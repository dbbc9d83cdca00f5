"""The benchmark's named spans still point at functions the tracer wraps.

A traced benchmark run reports per-function metrics for the names in
``bench/spans.py``. A name the tracer cannot find reads 0 without an error,
so a rename or removal in the package would silently zero its metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from becochains.complexes import Complex

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
NAMES = dict.fromkeys([name for name, _ in spans.FUNCTION_METRICS] + list(spans.NESTED))


@pytest.mark.parametrize("name", list(NAMES))
def test_span_name_resolves_to_a_wrapped_function(name):
    layer, attr = name.split(".", 1)
    assert layer in spans.LAYERS
    if layer == "complexes" and attr in spans.COMPLEX_METHODS:
        assert callable(getattr(Complex, attr, None)), name
        return
    module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    assert attr in dict(spans._functions(module, public=True)), name
