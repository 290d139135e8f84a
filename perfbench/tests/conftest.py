"""Make the benchmark's modules and this checkout's ``repro`` importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from reference import import_repro  # noqa: E402

import_repro()
