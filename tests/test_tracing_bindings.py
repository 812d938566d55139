"""The benchmark's tracer wraps names inside asrstream, and its harness
imports more; renaming one of them would silently drop a layer from traced
runs or break the benchmark, so check they all resolve, and run one
benchmark session end to end."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import asrstream.cli  # noqa: F401  (binds every module the tracer wraps)
from asrstream import io_formats
from asrstream.runtime import Pipeline
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    tracing = _load_tracing()
    for site, attrs in tracing.BINDINGS.items():
        module = sys.modules[f"asrstream.{site}"]
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"asrstream.{site}.{attr}"
    for site, cls_name, attr in tracing.METHODS:
        cls = getattr(sys.modules[f"asrstream.{site}"], cls_name)
        assert callable(getattr(cls, attr, None)), f"asrstream.{site}.{cls_name}.{attr}"


def test_every_unused_import_is_kept_for_the_tracer():
    """A module-level import its module never names is dead, unless the
    tracer wraps it there; so an import kept for a binding that the tracer
    drops gets flagged."""
    tracing = _load_tracing()
    bindings = {(site, attr) for site, attrs in tracing.BINDINGS.items() for attr in attrs}
    package = Path(asrstream.cli.__file__).parent
    unused, checked = set(), 0
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                checked += 1
                if bound not in names:
                    unused.add((path.stem, bound))
    assert checked > 50  # the walk found the package's imports
    assert unused <= bindings, sorted(unused - bindings)


def test_traced_reads_and_writes_take_the_path_first():
    # the tracer counts bytes as the size of the file named by the first argument
    tracing = _load_tracing()
    for attr in tracing.READS | tracing.WRITES:
        params = list(inspect.signature(getattr(io_formats, attr)).parameters)
        assert params[0] == "path", attr


def test_pipeline_takes_the_output_sink_fourth():
    # the tracer replaces Pipeline.__init__ and passes the sink positionally
    params = list(inspect.signature(Pipeline.__init__).parameters)
    assert params[3] == "output_sink"


def _asrstream_imports(path):
    """Every ``from asrstream... import name`` in the file at path, as
    (module, name) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "asrstream"
        for alias in node.names
    ]


def test_every_harness_import_resolves():
    checked = 0
    for script in ("run.py", "session.py"):
        for module_name, name in _asrstream_imports(PERFBENCH / script):
            module = importlib.import_module(module_name)
            assert hasattr(module, name), f"{script}: from {module_name} import {name}"
            checked += 1
    assert checked >= 8  # the parse found the harness's imports


def test_benchmark_session_runs_and_checks_its_passes(tmp_path):
    """perfbench/session.py, untraced and traced, cleans a small burst record
    at both of its chunk sizes, finds the two passes in agreement and
    reports the same output digest."""
    spec = SyntheticSpec(
        channels=8, srate=250.0, duration=4.0, calibration_duration=10.0,
        mixing_seed=1, noise_seed=2, events=(ArtifactEvent(1.5, 1.0, 10.0),),
    )
    calibration, recording, _ = generate_synthetic(spec)
    np.save(tmp_path / "calibration.npy", calibration)
    np.save(tmp_path / "recording.npy", recording)
    src = Path(asrstream.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    results = []
    for trace in (False, True):
        session = {
            "workload": "clean_64ch",
            "calibration": str(tmp_path / "calibration.npy"),
            "recording": str(tmp_path / "recording.npy"),
            "srate": spec.srate,
            "chunk": 256,
            "stream_chunk": 32,
            "tolerance": 1e-10,
            "trace": trace,
            "result": str(tmp_path / f"result{trace}.json"),
        }
        spec_path = tmp_path / f"spec{trace}.json"
        spec_path.write_text(json.dumps(session), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "session.py"), str(spec_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ready ")
        result = json.loads(Path(session["result"]).read_text(encoding="utf-8"))
        assert result["ok"] is True, result["check"]
        assert result["rejecting_updates"] > 0
        results.append(result)
    assert results[0]["digest"] == results[1]["digest"]
    assert results[1]["trace"]["calls"]["processing.asr_process_chunk"] > 0
