"""The benchmark's tracer wraps moranspectra functions by name from outside
the package, so renaming or deleting one of them breaks `bench/run.py
--trace 1` without failing any other test."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    missing = [
        f"{home.__name__}.{name}"
        for _, home, names, _ in tracing.LAYERS
        for name in names
        if not callable(getattr(home, name, None))
    ]
    assert not missing, missing
    # The tracer clears and reads the analysis cache around each round.
    analysis = tracing.MODULES[0].moran._analysis
    assert callable(analysis.cache_clear) and callable(analysis.cache_info)
