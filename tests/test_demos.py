"""The narrative demo scripts must keep running cleanly, with pinned output."""

import pytest

from cli_calls import DEMOS, pinned, run_demo


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_narrates(script):
    # the demos run in dev mode with warnings as errors, like the suite
    result, digest = run_demo(script)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) > 5
    assert digest == pinned()[f"demo-{script.stem}"]
