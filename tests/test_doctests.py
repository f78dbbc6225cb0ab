"""The library modules' docstring examples, and a failing property test's report."""
import doctest
import subprocess
import sys

import pytest

from stirlab import actions, grammar, objects, polynomials, stats


@pytest.mark.parametrize("module", [actions, grammar, objects, polynomials, stats])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_a_failing_property_test_is_reported(request, tmp_path):
    # as an error, a warning Hypothesis raised while reporting a failure ended
    # the run with INTERNALERROR; run in tmp_path, .hypothesis is written there
    (tmp_path / "test_it.py").write_text("from hypothesis import given, strategies as st\n"
                                         "@given(st.integers())\ndef test_it(n):\n    assert n < 5\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
                           request.config.inipath, "--rootdir", ".", "test_it.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "FAILED test_it.py::test_it" in proc.stdout and "INTERNALERROR" not in proc.stdout + proc.stderr
