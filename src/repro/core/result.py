"""Detection results and the cost instrumentation shared by all detectors.

The paper measures efficiency in two ways: wall-clock time and the *number
of computations* (illustrated in Examples 3.6, 4.2 and 5.4).  We follow
the paper's accounting, implemented uniformly in :class:`CostCounter`:

* +1 per directional per-pair score update (a shared value touches a pair
  twice — once for ``C->`` and once for ``C<-``);
* +1 per lower-bound (``C^min``) evaluation and +1 per upper-bound
  (``C^max``) evaluation of a pair at an entry;
* +2 per considered pair for the final different-value adjustment
  (``ln(1-s) * (l - n)`` applied to both directions).

Under this convention PAIRWISE performs ``2 * (shared items over pairs)``
computations and INDEX performs ``2 * (shared-value incidences) +
2 * (pairs considered)``, matching the worked numbers in Example 3.6
(366 vs 154 on the motivating example).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contribution import CopyPosterior


class PairNotObservedError(LookupError):
    """A queried pair was never opened by the detection run.

    Pairs can be absent from ``DetectionResult.decisions`` by design —
    they share no value outside the index tail (or no item at all), or a
    sparse ``pair_layout`` never allocated them a slot.  Code that needs
    a verdict for such a pair must not surface a raw ``KeyError`` /
    ``IndexError`` from dict or slot decode; it raises this instead,
    naming the pair.  Subclasses :class:`LookupError`, so existing
    ``except KeyError``-adjacent handling still has a sane hook.
    """

    def __init__(self, s1: int, s2: int, method: str | None = None):
        origin = f" by the {method} run" if method else ""
        super().__init__(
            f"pair ({s1}, {s2}) was never observed{origin}: the sources "
            f"share no scored value, so no verdict was computed (the pair "
            f"is independent by construction)"
        )
        self.pair = (s1, s2) if s1 < s2 else (s2, s1)


@dataclass
class CostCounter:
    """Mutable cost tally threaded through a detector run."""

    computations: int = 0
    values_examined: int = 0
    pairs_considered: int = 0

    def score_update(self, n: int = 2) -> None:
        """Record directional score updates (default: both directions)."""
        self.computations += n

    def bound_evaluation(self, n: int = 1) -> None:
        """Record bound (min/max) evaluations."""
        self.computations += n

    def value_incidence(self) -> None:
        """Record one (pair, shared value) incidence examined."""
        self.values_examined += 1


@dataclass(frozen=True, slots=True)
class PairDecision:
    """Final verdict for one source pair ``(s1, s2)`` with ``s1 < s2``.

    Slotted: a run holds one per decided pair per round, and without a
    per-instance ``__dict__`` each takes about a quarter of the memory.

    Attributes:
        c_fwd: accumulated ``C(s1 -> s2)`` (may be a bound if ``early``).
        c_bwd: accumulated ``C(s1 <- s2)``.
        posterior: three-way posterior derived from the scores.
        copying: the binary decision (``Pr(independent) <= 0.5``).
        early: True when the verdict came from a Section IV bound rather
            than an exhaustive accumulation.
    """

    c_fwd: float
    c_bwd: float
    posterior: CopyPosterior
    copying: bool
    early: bool = False


@dataclass(frozen=True)
class DecisionDelta:
    """What changed between two detection rounds, for delta publishing.

    Attributes:
        changed: pairs whose verdict/scores differ from the previous
            round (including newly opened pairs), with their new decision.
        removed: pairs present previously but absent now.
    """

    changed: dict[tuple[int, int], "PairDecision"]
    removed: frozenset[tuple[int, int]]

    def __bool__(self) -> bool:
        return bool(self.changed) or bool(self.removed)


@dataclass
class DetectionResult:
    """Outcome of one copy-detection pass over a dataset.

    Pairs absent from ``decisions`` were never opened — they share no
    value outside the index tail (or no item at all) and are independent.

    Attributes:
        method: name of the algorithm that produced the result.
        n_sources: number of sources in the dataset.
        decisions: per-pair verdicts keyed by sorted source-id pairs.
        cost: the computation/incidence tally.
        elapsed_seconds: wall-clock detection time (filled by callers that
            time the run; 0.0 otherwise).
        changed_pairs: when the producer knows which pairs it actually
            re-resolved this round (INCREMENTAL's pass-2/pass-3 pairs,
            straight from the bookkeeping), the set of their keys; None
            means "unknown — assume anything may have changed".  Pairs
            re-confirmed by pass 1 are deliberately *excluded*: their
            verdict stands and their pass-1 scores are pessimistic
            estimates, so downstream consumers (the serving layer's delta
            publisher) keep the previous exact scores instead.
    """

    method: str
    n_sources: int
    decisions: dict[tuple[int, int], PairDecision] = field(default_factory=dict)
    cost: CostCounter = field(default_factory=CostCounter)
    elapsed_seconds: float = 0.0
    changed_pairs: set[tuple[int, int]] | None = None

    def decision_delta(self, previous: "DetectionResult | None") -> DecisionDelta:
        """The decision changes since ``previous``.

        With no ``previous`` everything counts as changed.  When this
        result carries :attr:`changed_pairs` the delta comes straight
        from it (plus any key the set missed but a dict comparison
        catches — belt and braces for hand-built results); otherwise it
        falls back to a field-exact comparison of the two decision
        dicts (:class:`PairDecision` is a frozen dataclass, so ``!=``
        compares scores and posteriors exactly).
        """
        if previous is None:
            return DecisionDelta(changed=dict(self.decisions), removed=frozenset())
        prev = previous.decisions
        if self.changed_pairs is not None:
            changed = {
                key: self.decisions[key]
                for key in self.changed_pairs
                if key in self.decisions
            }
            # Newly opened pairs the producer forgot to record.
            for key, decision in self.decisions.items():
                if key not in prev and key not in changed:
                    changed[key] = decision
        else:
            changed = {
                key: decision
                for key, decision in self.decisions.items()
                if prev.get(key) != decision
            }
        removed = frozenset(key for key in prev if key not in self.decisions)
        return DecisionDelta(changed=changed, removed=removed)

    def copying_pairs(self) -> set[tuple[int, int]]:
        """The set of pairs judged to be copying (either direction)."""
        return {pair for pair, d in self.decisions.items() if d.copying}

    def decision_for(self, s1: int, s2: int) -> PairDecision | None:
        """Verdict for a pair given in any order (``None`` if never opened)."""
        key = (s1, s2) if s1 < s2 else (s2, s1)
        return self.decisions.get(key)

    def copy_probability(self, copier: int, original: int) -> float:
        """Directed posterior ``Pr(copier -> original | Phi)``.

        Used by ACCUCOPY's vote discounting.  Unopened pairs are
        independent, so the probability is 0.
        """
        if copier == original:
            raise ValueError("a source cannot copy from itself")
        key = (copier, original) if copier < original else (original, copier)
        decision = self.decisions.get(key)
        if decision is None:
            return 0.0
        if copier < original:
            return decision.posterior.forward
        return decision.posterior.backward
