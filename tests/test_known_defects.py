"""Known defects, one strict xfail each, naming the ROADMAP item that owns it.

Each test asserts the intended behavior.  While the defect stands the test
fails and is reported as xfailed; a fix turns it into an XPASS, which fails
the run, so the fixing change drops the marker and updates the ROADMAP item.
Each input fails today within a few milliseconds.
"""

import pytest

import anyonwalk.fusion as fusion
import anyonwalk.nonabelian as nonabelian
from anyonwalk.cli import main
from anyonwalk.models import build_su2k


def _known(item: str, why: str):
    # raises=AssertionError: a crash is a new defect, not this one
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {why}")


@_known("16(b)", "auto routes t >= 6 to the dense engine, whose state budget refuses "
                 "k = 40 at t = 14, though pathsum admits the walk")
def test_auto_runs_a_long_walk_that_pathsum_admits(capsys):
    assert main(["su2k", "dist", "--k", "40", "--t", "14"]) == 0


@_known("16(c)", "the sweep runs every level group on the dense engine, whose state "
                 "budget refuses k = 4, 5 at t = 13")
def test_a_sweep_routes_a_group_the_dense_budget_refuses(capsys):
    assert main(["su2k", "sweep", "--k", "4,5", "--t", "13"]) == 0


@_known("10", "the trace rewrite cannot apply braid relations and stops at "
              "b6^2 b7^2 b6^-2 b7^-2")
def test_a_five_step_dsn_walk_is_computed(capsys):
    assert main(["dsn", "dist", "--N", "5", "--t", "5"]) == 0


@_known("21", "the qubit representation builds each generator as a dense 2^m x 2^m "
              "matrix, 4.3 GB at t = 13, though the state budget admits the walk")
def test_a_long_qubit_walk_builds_no_dense_generator(monkeypatch):
    build = getattr(fusion, "su22_qubit_generator", None)

    def bounded(n, i):
        # fails the test before a generator of n > 22 anyons (over 1 GB) is built
        assert n <= 22, f"dense {2 ** (n // 2 - 1)}-dimensional qubit generator requested"
        return build(n, i)

    # the walk calls the name it imported; a fix may drop either
    for module in (fusion, nonabelian):
        monkeypatch.setattr(module, "su22_qubit_generator", bounded, raising=False)
    dist = nonabelian.distribution_dense(build_su2k(2), None, 13, representation="qubit")
    assert dist.meta["norm_drift"] < 1e-12
