"""The narrative demo scripts must keep running cleanly."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted(
    pathlib.Path(__file__).resolve().parent.parent.glob("demos/*.py"))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_narrates(script):
    # the demos run in dev mode with warnings as errors, like the suite
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                             str(script)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) > 5
