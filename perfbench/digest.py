"""Output digests: what a run must reproduce, and the check against the oracle.

A run's outcome is the fused truth per item, the copying flag per pair
(kept as the set of copying pairs) and the final source accuracies, all
keyed by *name* so the digest does not depend on interning order.  The
digest hashes each part; accuracies are hashed rounded to the 1e-9
contract between the numpy kernels and the pure-Python reference.  A
rounding boundary can split two values closer than 1e-9, so an accuracy
hash mismatch alone is not a failure: :func:`compare` then asks for the
full reference outcome and compares value by value within 1e-9.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

#: The numpy/Python accuracy contract.
ACCURACY_TOLERANCE = 1e-9


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


@dataclass
class Outcome:
    """A fusion outcome, keyed by names.

    Attributes:
        truths: item name -> fused value label.
        copying: copying pairs as sorted ``(name, name)`` tuples, sorted.
        accuracies: source name -> final accuracy.
    """

    truths: dict[str, str]
    copying: list[tuple[str, str]]
    accuracies: dict[str, float]

    @classmethod
    def from_fusion(cls, dataset, chosen, accuracies, copying_pairs) -> "Outcome":
        names = dataset.source_names
        return cls(
            truths={
                dataset.item_names[item]: dataset.value_label[value]
                for item, value in chosen.items()
            },
            copying=sorted(
                tuple(sorted((names[a], names[b]))) for a, b in copying_pairs
            ),
            accuracies={names[s]: float(a) for s, a in enumerate(accuracies)},
        )

    def digest(self) -> dict:
        return {
            "truths_sha256": _sha256(sorted(self.truths.items())),
            "copying_sha256": _sha256([list(pair) for pair in self.copying]),
            "accuracies_sha256": _sha256(
                [[name, round(a * 1e9)] for name, a in sorted(self.accuracies.items())]
            ),
            "n_truths": len(self.truths),
            "n_copying": len(self.copying),
            "n_sources": len(self.accuracies),
        }

    def to_json(self) -> dict:
        return {
            "truths": self.truths,
            "copying": [list(pair) for pair in self.copying],
            "accuracies": self.accuracies,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Outcome":
        return cls(
            truths=dict(obj["truths"]),
            copying=[tuple(pair) for pair in obj["copying"]],
            accuracies={k: float(v) for k, v in obj["accuracies"].items()},
        )


def compare(
    outcome: Outcome,
    reference: dict,
    load_full: Callable[[], Outcome],
) -> list[str]:
    """Mismatches of ``outcome`` against a reference digest (empty: it matches).

    ``load_full`` supplies the full reference outcome; it is called only
    when the accuracy hashes differ.
    """
    mine = outcome.digest()
    problems = []
    for key in ("n_truths", "n_copying", "n_sources", "truths_sha256", "copying_sha256"):
        if mine[key] != reference[key]:
            problems.append(f"{key}: got {mine[key]}, reference {reference[key]}")
    if problems or mine["accuracies_sha256"] == reference["accuracies_sha256"]:
        return problems
    full = load_full()
    if set(full.accuracies) != set(outcome.accuracies):
        return ["accuracies: source sets differ from the reference"]
    worst_name, worst = max(
        ((name, abs(a - full.accuracies[name])) for name, a in outcome.accuracies.items()),
        key=lambda kv: kv[1],
    )
    if worst > ACCURACY_TOLERANCE:
        problems.append(
            f"accuracy of {worst_name} differs from the reference by {worst:.3g}"
        )
    return problems
