import pytest

import anyonwalk.nonabelian as nonabelian


@pytest.fixture(autouse=True)
def cold_plan_cache():
    # a dense or pathsum walk keeps its plan for the process; a test that
    # patches the walk's pass, table or loop counts must neither read nor
    # leave one behind
    nonabelian._plans.clear()
    nonabelian._pathsum_plan.cache_clear()
    yield
    nonabelian._plans.clear()
    nonabelian._pathsum_plan.cache_clear()
