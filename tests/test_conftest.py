"""The shared conftest keeps a failing hypothesis test a plain failure under -W error."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

TINY = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None, max_examples=5)
    @given(st.integers(0, 10))
    def test_fails(x):
        assert x < 0


    def test_later():
        pass
    """)


def test_failing_hypothesis_test_is_reported_under_w_error(tmp_path):
    # without the conftest, hypothesis's failure report raises a DeprecationWarning
    # that -W error turns into INTERNALERROR (exit code 3), and test_later never runs
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_tiny.py").write_text(TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
