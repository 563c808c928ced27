"""Each demo prints exactly its golden output in demos/expected/."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
