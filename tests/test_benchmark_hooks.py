"""The benchmark imports package names and its tracer wraps more by
attribute lookup; each must still exist, so a simplification that drops one
fails here and not only on a benchmark run.  Both modules are imported,
never run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import anyonwalk.abelian as abelian
import anyonwalk.cli as cli
import anyonwalk.distribution as distribution
import anyonwalk.models as models
import anyonwalk.nonabelian as nonabelian
import anyonwalk.quantum_double as quantum_double
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


# the tracer wraps these module attributes; the CLI and the engines must look
# them up when called, not bind them at import, or the wrappers see nothing
_LOOKED_UP = [
    (models, "build_su2k"),
    (tl, "plat_bracket"),
    (tl, "markov_bracket"),
    (quantum_double, "double_walk_distribution"),
    (abelian, "variance_surface"),
    (distribution, "baseline_quantum"),
    (distribution, "distance"),
    (nonabelian, "distribution_dense"),
    (nonabelian, "distribution_pathsum"),
]


def test_the_cli_looks_up_each_traced_name_at_call_time(monkeypatch):
    calls = {}
    for owner, attr in _LOOKED_UP:
        name = f"{owner.__name__}.{attr}"
        calls[name] = 0

        def counted(*args, _orig=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    commands = [
        ["su2k", "dist", "--k", "3", "--t", "3", "--engine", "dense"],
        ["su2k", "dist", "--k", "3", "--t", "3", "--engine", "pathsum"],
        ["su2k", "sweep", "--k", "2..3", "--t", "3"],
        ["kauffman", "--n", "4", "--word", "1 -2", "--closure", "plat", "--exact"],
        ["kauffman", "--n", "4", "--word", "1 -2", "--closure", "markov", "--k", "3"],
        ["dsn", "dist", "--N", "5", "--t", "2"],
        ["abelian", "variance", "--phi", "0", "--t", "2"],
        ["baseline", "quantum", "--t", "2"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in commands] == [0] * len(commands)
    assert [name for name, count in calls.items() if count == 0] == []
