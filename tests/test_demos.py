"""Each demo runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(run_python, demo):
    # run_python asserts exit status 0
    out = run_python(f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    if demo.stem.startswith("05_"):
        assert "rank lower bound 2" in out
