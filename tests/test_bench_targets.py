"""The bench's tracer wraps names in twoshock by (module, attribute): each must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_exists_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(f"twoshock.{module}"), attr)]
    assert missing == []
