"""Known defects, one strict xfail each, naming the ROADMAP item that owns it.

Each test asserts the intended behavior.  While the defect stands the test
fails and is reported as xfailed; a fix turns it into an XPASS, which fails
the run, so the fixing change drops the marker and updates the ROADMAP item.
Each input is refused early today, in a few milliseconds.
"""

import pytest

from anyonwalk.cli import main


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
