"""Every demo must import against the current API and run to completion."""

import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_loads(path, capsys):
    namespace = runpy.run_path(path, run_name="demo")
    namespace["main"]()
    assert capsys.readouterr().out
