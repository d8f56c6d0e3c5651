"""Every demo script runs to completion and prints the same bytes; the
identification demo reports a match."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout, which every engine change must keep
PINNED_STDOUT = {
    "01_milnor_arithmetic": "d5673743ed8d67e25f980aa984cb74d5d601a78d4de41df42c7ef8fe2aea89fc",
    "02_dual_hopf_algebra": "e06d5b3091582731152705d1a26e468542015efb752683b5ea49988c01f57c66",
    "03_adem_words_and_doubling": "239974e889255fd63e4372667236cdbc923f176eaf5163dd3dc751fbd2c0d1cf",
    "04_isotropic_action": "3af9a5333c57a7284c0b106f3ec9df656841f68825aaff4c4853e04116afb1cb",
    "05_ext_charts_and_massey": "9bf63dbb0ddb835ddef57a359e50068afe46ea3e0c8294169dd9891c147bcbc7",
    "06_isotropic_identification": "6b05a57830dbdd1ad37983cbfb769653e2f4ff5124934b9001f8fecba3c2c190",
}


def test_every_demo_is_pinned():
    assert sorted(PINNED_STDOUT) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.stem == "06_isotropic_identification":
        assert "  verdict: MATCH" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[path.stem]
