"""The benchmark's tracer wraps names inside asrstream; renaming one of them
would silently drop its layer from traced runs, so check they all resolve."""

import importlib.util
import inspect
import sys
from pathlib import Path

import asrstream.cli  # noqa: F401  (binds every module the tracer wraps)
from asrstream.runtime import Pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_pipeline_takes_the_output_sink_fourth():
    # the tracer replaces Pipeline.__init__ and passes the sink positionally
    params = list(inspect.signature(Pipeline.__init__).parameters)
    assert params[3] == "output_sink"
