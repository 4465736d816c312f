import pytest

import anyonwalk.nonabelian as nonabelian


@pytest.fixture(autouse=True)
def cold_plan_cache():
    # a dense walk keeps its plan for the process; a test that patches the
    # walk's pass or table must neither read nor leave one behind
    nonabelian._plans.clear()
    yield
    nonabelian._plans.clear()
