"""The library's seeded outputs, byte for byte, against ``tests/golden.json``.

``tests/golden.py`` says what each digest covers and how to record the file.
"""

import json

import numpy as np
import pytest

from golden import GOLDEN_PATH, digests

RECORDED = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(
    np.__version__ != RECORDED["numpy"],
    reason=f"golden.json was recorded under numpy {RECORDED['numpy']}, not {np.__version__}",
)
def test_seeded_outputs_match_the_golden_file():
    got, want = digests(), RECORDED["digests"]
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"outputs differ from tests/golden.json in {changed}"
