import pytest

import anyonwalk.nonabelian as nonabelian
import anyonwalk.quantum_double as quantum_double


def _clear_plans():
    nonabelian._plans.clear()
    nonabelian._pathsum_plan.cache_clear()
    quantum_double._dsn_plan.cache_clear()


@pytest.fixture(autouse=True)
def cold_plan_cache():
    # a dense, pathsum or D(S_N) walk keeps its plan for the process; a test
    # that patches the walk's pass, table, loop counts or words must neither
    # read nor leave one behind
    _clear_plans()
    yield
    _clear_plans()
