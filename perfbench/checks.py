"""Output checks against the values pinned in ``pins.json``.

A benchmark that times wrong answers measures nothing, so every pass
compares what the program returned with what the seed commit returned.
Simulated results are deterministic, so the comparison is exact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class OutputMismatch(Exception):
    """The program's output differs from the pinned seed output."""


def digest(payload) -> str:
    """SHA-256 of the canonical JSON text of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def training_pin(record: Dict) -> Dict:
    """The pinned fields of one training record."""
    return {
        "ok": record["ok"],
        "trace_digest": record["trace_digest"],
        "minibatch_time": record["minibatch_time"],
        "peak_bytes_per_gpu": list(record["peak_bytes_per_gpu"]),
        "plan_digest": digest(record["plan"]),
    }


def autoplan_pin(report) -> Dict:
    """The pinned outcome of one ``autoplan()`` call."""
    return {
        "n_valid": report.n_valid,
        "n_simulated": report.n_simulated,
        "winner": list(report.best.shape),
        "ranking": [[row.cache_key, row.minibatch_time]
                    for row in report.ranked if row.simulated],
    }


def serve_pin(record: Dict) -> str:
    """Digest of one serve record; the label is cosmetic and dropped."""
    return digest({k: v for k, v in record.items() if k != "label"})


def load_pins() -> Dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def expect(what: str, got, pinned) -> None:
    """Raise :class:`OutputMismatch` unless ``got`` equals ``pinned``.

    Both sides go through JSON so tuples and lists compare equal.
    """
    if json.loads(json.dumps(got)) != pinned:
        raise OutputMismatch(
            f"{what}: output differs from the pinned seed value\n"
            f"  got:    {json.dumps(got)[:400]}\n"
            f"  pinned: {json.dumps(pinned)[:400]}")


def check_training(pins: Dict, labels: List[str], records: List[Dict]) -> None:
    for label, record in zip(labels, records):
        expect(f"training record {label}", training_pin(record),
               pins["training"][label])
