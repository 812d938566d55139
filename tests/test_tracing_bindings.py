"""The benchmark's tracer wraps names inside asrstream, and its harness
imports more; renaming one of them would silently drop a layer from traced
runs or break the benchmark, so check they all resolve."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import asrstream.cli  # noqa: F401  (binds every module the tracer wraps)
from asrstream import io_formats
from asrstream.runtime import Pipeline

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
