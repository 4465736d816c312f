"""The test settings themselves: a failing property test is reported like
any other failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
