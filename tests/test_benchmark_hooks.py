"""The benchmark imports package names and its tracer wraps more by
attribute lookup; each must still exist, so a simplification that drops one
fails here and not only on a benchmark run.  Both modules are imported,
never run."""

import importlib.util
import sys
from pathlib import Path

import anyonwalk.tl as tl

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists():
    patches = _load("tracer").Tracer()._patches()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert patches and not missing
    assert callable(tl.compose.cache_info)


def test_the_workloads_import_every_name_they_use():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"sweep", "deep", "pathsum", "exact"}
