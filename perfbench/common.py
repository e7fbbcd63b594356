"""Paths and the result record shared by the benchmark's modules."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


class Run:
    """What one benchmark run observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.notes: List[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = value
        self.samples[name] = samples


def src_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env
