"""Make the suite's modules and the program importable for the self-tests."""

import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
for entry in (str(ROOT / "src"), str(SUITE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
