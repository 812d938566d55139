"""Dense linear-algebra kernels: geometric median, PSD square root,
symmetric eigendecomposition, Moore-Penrose pseudoinverse."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import CalibrationDegenerate, EmptyInput, InvalidInput, NotSymmetric

EIG_CLAMP_REL = 1e-12  # eigenvalue floor, relative to trace/C
PINV_REL_TOL = 1e-12


def geometric_median(points, tol: float = 1e-10, max_iter: int = 500) -> np.ndarray:
    """Geometric median of d-dimensional points via Weiszfeld iteration.

    Starts from the coordinate-wise mean and repeats the distance-weighted
    average; points coinciding with the current estimate are skipped (the
    standard perturbation rule). Stops when the step norm drops below
    ``tol * (1 + norm(estimate))`` or after ``max_iter`` iterations.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InvalidInput("points must be a list of equal-length vectors")
    if pts.shape[0] == 0:
        raise EmptyInput("geometric_median needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("points contain non-finite values")

    est = pts.mean(axis=0)
    for _ in range(max_iter):
        dist = np.linalg.norm(pts - est, axis=1)
        good = dist > 0.0
        if not good.any():
            break  # every point sits on the estimate: it is the median
        inv = 1.0 / dist[good]
        new = (pts[good] * inv[:, None]).sum(axis=0) / inv.sum()
        step = float(np.linalg.norm(new - est))
        est = new
        if step < tol * (1.0 + float(np.linalg.norm(est))):
            break
    return est


def _check_symmetric(a: np.ndarray, rel_tol: float) -> None:
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if float(np.linalg.norm(a - a.T)) > rel_tol * scale:
        raise NotSymmetric(f"matrix asymmetry exceeds {rel_tol:g} relative")


def symmetric_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with a deterministic sign rule.

    Eigenvalues ascend; each eigenvector is flipped so its largest-magnitude
    entry (first such entry on ties) is positive.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    _check_symmetric(a, 1e-8)
    return signed_eigh((a + a.T) / 2.0)


def signed_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``symmetric_eig`` without its checks, for a caller that has already
    made ``a`` finite and symmetric."""
    vals, vecs = np.linalg.eigh(a)
    anchors = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[anchors, np.arange(vecs.shape[1])] < 0.0
    vecs = np.where(flip[None, :], -vecs, vecs)
    return vals, vecs


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below ``1e-12 * trace(A) / C`` are clamped to that floor (with
    a warning) so rank-deficient covariances survive; a zero-trace input is
    degenerate beyond repair.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    _check_symmetric(a, 1e-10)
    c = a.shape[0]
    trace = float(np.trace(a))
    if trace <= 0.0:
        raise CalibrationDegenerate("covariance trace is not positive")
    floor = EIG_CLAMP_REL * trace / c
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    if float(vals.min()) < floor:
        warnings.warn(
            "covariance is rank deficient; clamping small eigenvalues",
            RuntimeWarning,
            stacklevel=2,
        )
        vals = np.maximum(vals, floor)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return (root + root.T) / 2.0


def pinv(a: np.ndarray, rel_tol: float = PINV_REL_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below
    ``rel_tol * max_singular * max(dims)`` are treated as zero."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput("matrix must be 2-dimensional")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    if a.size == 0:
        return np.zeros(a.shape[::-1])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = rel_tol * float(s[0]) * max(a.shape)
    nz = s > cutoff
    if not nz.any():
        return np.zeros(a.shape[::-1])
    return (vt[nz].T / s[nz]) @ u[:, nz].T
