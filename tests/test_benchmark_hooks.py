"""The benchmark's tracer wraps package names by attribute lookup; each must
still exist, so a simplification that drops one fails here and not only on
a traced benchmark run.  The tracer is imported, never installed."""

import importlib.util
from pathlib import Path

import anyonwalk.tl as tl

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    patches = _load_tracer().Tracer()._patches()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert patches and not missing
    assert callable(tl.compose.cache_info)
