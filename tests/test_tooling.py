import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    """Under the repo's pytest settings, a failing ``@given`` test is
    reported and the run goes on to the next test.

    To report the failure, hypothesis imports ``libcst``, which warns about
    ``mypy_extensions``; with ``filterwarnings = ["error"]`` alone that
    warning ends the run in an INTERNALERROR (exit 3) after the first
    failure. Where ``libcst`` is not installed hypothesis imports nothing
    more and this test passes either way."""
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
