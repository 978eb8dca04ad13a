import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"

INNER = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # A session of its own, with this directory's conftest.py loaded as a
    # plugin, so that its every-warning-is-an-error filter applies.
    (tmp_path / "test_inner.py").write_text(INNER)
    path = [str(TESTS_DIR), str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "test_inner.py"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "FAILED test_inner.py::test_fails" in proc.stdout
