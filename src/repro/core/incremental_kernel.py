"""Columnar INCREMENTAL: the three-pass round as array operations.

:func:`repro.core.incremental.incremental_round` is the reference: it
walks the index entry by entry and the pairs record by record in pure
Python.  This module runs the same round over flat arrays, and
:class:`~repro.core.IncrementalDetector` picks it whenever
``params.backend == "numpy"``.

**State.**  :class:`ColumnarIncrementalState` keeps one slot per booked
pair in ascending pair-key order (``s1 * n_sources + s2``): the recorded
verdict, the stored reference-frame scores ``C-hat``, the decision
position, the after-decision count and the shared-item counts.  The
per-pair entry lists of the reference (``entry_pairs`` and the
``_shared_positions`` merges) become one *incidence list*: every
(entry position, booked pair) pair where both sources provide the
entry's value, sorted by position — a CSR over entries, read as a flat
stream.

**Each pass is a handful of vector operations.**  Entry scores come
from each entry's sorted accuracy extremes; big score changes are
folded into ``C-hat`` with ``np.add.at`` in position order; small
changes are counted with ``np.bincount``; the pass-1 and pass-2 checks
and the pass-3 rebuilds run over all candidate pairs at once; tail
re-opening inserts the opened pairs into the sorted slot arrays.

**Bit-identical to the reference.**  Decisions, ``changed_pairs``,
:class:`~repro.core.incremental.RoundStats`, the cost tally and every
stored per-pair float match the Python round exactly.  The log and exp
*operands* are computed in numpy in the reference's exact expression
order (IEEE ``+ - * /`` are correctly rounded, so they agree with scalar
Python), and the transcendental itself is ``math.log`` / ``math.exp``
per element because ``np.log``/``np.exp`` may differ by an ulp.  The
three scalar forms mirrored are :func:`~repro.core.contribution.
same_value_scores_both` (``s * single / denominator``),
:func:`~repro.core.contribution.same_value_score` (the ratio first) and
:func:`~repro.core.contribution.posterior`.  Per-pair sums are left
folds in position order, as in the reference's ``+=`` loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Sequence

import numpy as np

from ..data import Dataset
from .bound import DEFAULT_HYBRID_THRESHOLD, detect_hybrid
from .bound_kernel import (
    BookkeepingColumns,
    materialize_decisions,
    posterior_columns,
)
from .incremental import _NEGLIGIBLE, RoundStats
from .index import EntryOrdering, InvertedIndex
from .kernel import clamp_accuracies, expand_incidences_ordered
from .params import CopyParams
from .result import CostCounter, DetectionResult


@dataclass
class ColumnarIncrementalState:
    """Everything the columnar INCREMENTAL round carries between rounds.

    Per-pair arrays are aligned and sorted by pair key; per-entry arrays
    follow the index's processing order.
    """

    index: InvertedIndex
    value_ids: np.ndarray  #: value id per entry position
    offsets: np.ndarray  #: provider CSR offsets per entry position
    providers: np.ndarray  #: concatenated (sorted) provider ids
    p_ref: np.ndarray  #: reference probability per entry position
    s_ref: np.ndarray  #: reference M-hat score per entry position
    a_ref: np.ndarray  #: reference accuracy per source
    #: ``(4, n_entries)``: each entry's lowest, second-lowest,
    #: second-highest and highest reference accuracy.
    extremes: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    copying: np.ndarray
    c_base_fwd: np.ndarray
    c_base_bwd: np.ndarray
    decision_pos: np.ndarray
    n_after: np.ndarray
    n_total: np.ndarray
    l: np.ndarray  # noqa: E741 — the paper's l(S1, S2), as in PairBookkeeping
    inc_pos: np.ndarray  #: entry position per incidence (ascending)
    inc_pair: np.ndarray  #: pair slot per incidence
    history: list[RoundStats] = field(default_factory=list)
    reopen_level: float = float("inf")

    @property
    def n_sources(self) -> int:
        return len(self.a_ref)

    def decision_positions(self) -> dict[tuple[int, int], int]:
        """Per-pair decision position, keyed like the detection result."""
        return dict(
            zip(
                zip(self.s1.tolist(), self.s2.tolist()),
                self.decision_pos.tolist(),
            )
        )


def prepare_columnar(
    dataset: Dataset,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    ordering: EntryOrdering = EntryOrdering.BY_CONTRIBUTION,
    hybrid_threshold: int = DEFAULT_HYBRID_THRESHOLD,
    shared_items_hint=None,
    epoch_size: int | None = None,
) -> tuple[DetectionResult, ColumnarIncrementalState]:
    """The columnar twin of :func:`~repro.core.incremental.prepare_incremental`.

    Runs the same bookkeeping HYBRID round and keeps its bookkeeping
    columns as the per-pair state.
    """
    outcome = detect_hybrid(
        dataset,
        probabilities,
        accuracies,
        params,
        ordering=ordering,
        hybrid_threshold=hybrid_threshold,
        track_bookkeeping=True,
        shared_items_hint=shared_items_hint,
        epoch_size=epoch_size,
    )
    books = outcome.bookkeeping
    if not isinstance(books, BookkeepingColumns):
        books = BookkeepingColumns.from_mapping(books)
    columns = books.columns
    index = outcome.index
    n = dataset.n_sources
    s1 = books.s1.astype(np.int64)
    s2 = books.s2.astype(np.int64)
    cols = index.columnar_entries()
    row, islot, jslot = expand_incidences_ordered(cols.offsets, cols.providers)
    _, slot, booked = _find_slots(
        s1 * n + s2, cols.providers[islot], cols.providers[jslot], n
    )
    entries = index.entries
    n_entries = len(entries)
    a_ref = np.array(accuracies, dtype=np.float64)
    state = ColumnarIncrementalState(
        index=index,
        value_ids=np.fromiter(
            (e.value_id for e in entries), dtype=np.int64, count=n_entries
        ),
        offsets=cols.offsets,
        providers=cols.providers,
        p_ref=np.fromiter(
            (e.probability for e in entries), dtype=np.float64, count=n_entries
        ),
        s_ref=np.fromiter((e.score for e in entries), dtype=np.float64, count=n_entries),
        a_ref=a_ref,
        extremes=_entry_extremes(cols.offsets, cols.providers, a_ref),
        s1=s1,
        s2=s2,
        copying=columns["copying"].astype(bool),
        c_base_fwd=columns["c_base_fwd"].astype(np.float64),
        c_base_bwd=columns["c_base_bwd"].astype(np.float64),
        decision_pos=columns["decision_pos"].astype(np.int64),
        n_after=columns["n_after"].astype(np.int64),
        n_total=(columns["n_before"] + columns["n_after"]).astype(np.int64),
        l=columns["l"].astype(np.int64),
        inc_pos=row[booked],
        inc_pair=slot[booked],
        reopen_level=params.theta_ind,
    )
    return outcome.result, state


def columnar_round(
    state: ColumnarIncrementalState,
    probabilities: Sequence[float],
    accuracies: Sequence[float],
    params: CopyParams,
    rho_value: float = 1.0,
    rho_accuracy: float = 0.2,
) -> DetectionResult:
    """One INCREMENTAL round over the columnar state (mutated in place).

    Same arguments, result and ``state.history`` record as
    :func:`~repro.core.incremental.incremental_round`, bit for bit.
    """
    n_entries = len(state.p_ref)
    cost = CostCounter()
    stats = RoundStats(pairs_total=len(state.s1))
    probs = np.asarray(probabilities, dtype=np.float64)
    accs = np.asarray(accuracies, dtype=np.float64)
    p_now = probs[state.value_ids]
    a_ref = state.a_ref

    # Categorize entries by score change on reference accuracies.
    new_scores = _max_scores(p_now, state.extremes, params)
    delta = new_scores - state.s_ref
    magnitude = np.abs(delta)
    moved = ~(magnitude < _NEGLIGIBLE)
    big = moved & (magnitude >= rho_value)
    small = moved & ~big
    small_inc = small & (delta > 0)
    small_dec = small & ~small_inc
    stats.entries_big = int(big.sum())
    stats.entries_small = int(small.sum())
    stats.entries_unchanged = n_entries - stats.entries_big - stats.entries_small
    delta_small_inc = float(delta[small_inc].max(initial=0.0))
    delta_small_dec = float(magnitude[small_dec].max(initial=0.0))
    suffix_max_new = np.maximum.accumulate(np.append(new_scores, 0.0)[::-1])[::-1]
    m_credit = float(new_scores.min()) if n_entries else 0.0

    # Tail re-opening (see incremental_round): gated on tail-sum growth.
    # The reference sums with the builtin, which compensates rounding on
    # Python 3.12+, so the builtin it is here too.
    reopened = np.zeros(len(state.s1), dtype=bool)
    tail_sum = sum(new_scores[state.index.tail_start :].tolist())
    if tail_sum >= state.reopen_level:
        reopened = _reopen_tail_pairs(state, new_scores, params)
        if rho_value > 0.0:
            state.reopen_level = tail_sum + 0.25 * rho_value
        stats.reopened_pairs = int(reopened.sum())
        stats.pairs_total = len(state.s1)
    s1, s2 = state.s1, state.s2
    inc_pos, inc_pair = state.inc_pos, state.inc_pair

    # Pairs with a big accuracy change get a full recompute (pass 3).
    refresh = np.abs(accs - a_ref) >= rho_accuracy
    pending = reopened | refresh[s1] | refresh[s2]
    stats.refresh_pairs = int(pending.sum()) - stats.reopened_pairs

    # Pass 1: apply big changes, count small ones, re-check decisions.
    live = (
        moved[inc_pos]
        & ~pending[inc_pair]
        & (inc_pos < state.decision_pos[inc_pair])
    )
    is_big = live & big[inc_pos]
    if is_big.any():
        pos = inc_pos[is_big]
        pair = inc_pair[is_big]
        a1 = clamp_accuracies(a_ref[s1[pair]], params)
        a2 = clamp_accuracies(a_ref[s2[pair]], params)
        old_fwd, old_bwd = _scores_both(state.p_ref[pos], a1, a2, params)
        new_fwd, new_bwd = _scores_both(p_now[pos], a1, a2, params)
        cost.score_update(4 * len(pos))
        np.add.at(state.c_base_fwd, pair, new_fwd - old_fwd)
        np.add.at(state.c_base_bwd, pair, new_bwd - old_bwd)
    n_pairs = len(s1)
    n_dec = np.bincount(inc_pair[live & small_dec[inc_pos]], minlength=n_pairs)
    n_inc = np.bincount(inc_pair[live & small_inc[inc_pos]], minlength=n_pairs)

    copying = state.copying
    # Pessimistic working scores: a copying pair takes every small
    # decrease at worst magnitude; a no-copying pair every small
    # increase plus the suffix-max ceiling on its after-decision entries.
    ceiling = (
        suffix_max_new[np.minimum(state.decision_pos + 1, n_entries)] * state.n_after
    )
    base_fwd = np.where(
        copying,
        state.c_base_fwd - delta_small_dec * n_dec,
        state.c_base_fwd + delta_small_inc * n_inc,
    )
    base_bwd = np.where(
        copying,
        state.c_base_bwd - delta_small_dec * n_dec,
        state.c_base_bwd + delta_small_inc * n_inc,
    )
    work_fwd = np.where(copying, base_fwd, base_fwd + ceiling)
    work_bwd = np.where(copying, base_bwd, base_bwd + ceiling)
    decided = _Decided()
    cand = np.nonzero(~pending)[0]
    post = posterior_columns(work_fwd[cand], work_bwd[cand], params)
    confirmed = (post[0] <= 0.5) == copying[cand]
    decided.add(
        cand, confirmed, work_fwd[cand], work_bwd[cand], post, copying[cand], True
    )
    # Step 2 for copying pairs: minimum credit per after-decision entry.
    retry = np.nonzero(~confirmed & copying[cand] & (state.n_after[cand] > 0))[0]
    if len(retry):
        slots = cand[retry]
        credit = m_credit * state.n_after[slots]
        fwd = work_fwd[slots] + credit
        bwd = work_bwd[slots] + credit
        post = posterior_columns(fwd, bwd, params)
        ok = post[0] <= 0.5
        decided.add(slots, ok, fwd, bwd, post, copying[slots], True)
        confirmed[retry[ok]] = True
    stats.done_pass1 = int(confirmed.sum())
    pass2 = cand[~confirmed]

    # Pass 2: exact contributions of entries after the old decision point.
    # Pass-2 resolutions and pass-3 rebuilds are the round's changed
    # pairs; pass-1 re-confirmations are not (see incremental_round).
    changed_slots = [cand[:0]]
    rebuild = pending.copy()
    if len(pass2):
        in_pass2 = np.zeros(n_pairs, dtype=bool)
        in_pass2[pass2] = True
        sel = in_pass2[inc_pair] & (inc_pos >= state.decision_pos[inc_pair])
        cur_fwd, cur_bwd, ref_fwd, ref_bwd = _pair_sums(
            state, inc_pos[sel], inc_pair[sel], p_now, big, accs, a_ref, params, cost
        )
        fwd = base_fwd[pass2] + cur_fwd[pass2]
        bwd = base_bwd[pass2] + cur_bwd[pass2]
        post = posterior_columns(fwd, bwd, params)
        ok = (post[0] <= 0.5) == copying[pass2]
        decided.add(pass2, ok, fwd, bwd, post, copying[pass2], True)
        done = pass2[ok]
        stats.done_pass2 = len(done)
        # Absorb the after-decision entries (reference frame) and move
        # the decision point to the end of the index.
        state.c_base_fwd[done] += ref_fwd[done]
        state.c_base_bwd[done] += ref_bwd[done]
        state.decision_pos[done] = n_entries
        state.n_after[done] = 0
        changed_slots.append(done)
        rebuild[pass2[~ok]] = True

    # Pass 3: full exact rebuild for ambiguous / big-accuracy pairs.
    if rebuild.any():
        # Storage frame after this round: current accuracy for refreshed
        # sources (their reference advances below), reference otherwise.
        a_store = np.where(refresh, accs, a_ref)
        sel = rebuild[inc_pair]
        cur_fwd, cur_bwd, ref_fwd, ref_bwd = _pair_sums(
            state, inc_pos[sel], inc_pair[sel], p_now, big, accs, a_store, params, cost
        )
        idx = np.nonzero(rebuild)[0]
        penalty = (state.l[idx] - state.n_total[idx]) * params.ln_one_minus_s
        fwd = cur_fwd[idx] + penalty
        bwd = cur_bwd[idx] + penalty
        post = posterior_columns(fwd, bwd, params)
        verdict = post[0] <= 0.5
        stats.flips = int((verdict != copying[idx]).sum())
        copying[idx] = verdict
        state.c_base_fwd[idx] = ref_fwd[idx] + penalty
        state.c_base_bwd[idx] = ref_bwd[idx] + penalty
        state.decision_pos[idx] = n_entries
        state.n_after[idx] = 0
        stats.done_pass3 = len(idx)
        decided.add(idx, np.ones(len(idx), dtype=bool), fwd, bwd, post, verdict, False)
        changed_slots.append(idx)

    # Advance references.
    state.p_ref[big] = p_now[big]
    state.s_ref[big] = new_scores[big]
    if refresh.any():
        a_ref[refresh] = accs[refresh]
        state.extremes = _entry_extremes(state.offsets, state.providers, a_ref)
        owner = np.repeat(np.arange(n_entries), np.diff(state.offsets))
        touched = np.unique(owner[refresh[state.providers]])
        state.s_ref[touched] = _max_scores(
            state.p_ref[touched], state.extremes[:, touched], params
        )

    state.history.append(stats)
    cost.pairs_considered = n_pairs
    changed = np.concatenate(changed_slots)
    return DetectionResult(
        method="incremental",
        n_sources=state.n_sources,
        decisions=decided.materialize(s1, s2),
        cost=cost,
        changed_pairs=set(zip(s1[changed].tolist(), s2[changed].tolist())),
    )


class _Decided:
    """Decision columns gathered over the passes, materialized once."""

    def __init__(self) -> None:
        self.parts: list[tuple] = []

    def add(self, slots, keep, c_fwd, c_bwd, post, copying, early: bool) -> None:
        """Record ``slots[keep]``; every column is aligned with ``slots``."""
        self.parts.append((
            slots[keep],
            c_fwd[keep],
            c_bwd[keep],
            *(column[keep] for column in post),
            copying[keep],
            np.full(int(np.count_nonzero(keep)), early),
        ))

    def materialize(self, s1: np.ndarray, s2: np.ndarray) -> dict:
        """The round's decisions keyed by pair, in ascending key order."""
        decisions: dict = {}
        if self.parts:
            cols = [np.concatenate(column) for column in zip(*self.parts)]
            order = np.argsort(cols[0])
            slots = cols[0][order]
            materialize_decisions(
                decisions,
                list(zip(s1[slots].tolist(), s2[slots].tolist())),
                *(column[order].tolist() for column in cols[1:]),
            )
        return decisions


def _pair_sums(state, pos, pair, p_now, big, accs, a_store, params, cost):
    """Per-pair left-fold sums over the selected incidences.

    Returns ``(cur_fwd, cur_bwd, ref_fwd, ref_bwd)`` arrays over all pair
    slots: the contributions at current probabilities and accuracies,
    and in the storage frame (current probability for big-changed
    entries, the reference otherwise, on ``a_store`` accuracies).
    """
    n_pairs = len(state.s1)
    s1 = state.s1[pair]
    s2 = state.s2[pair]
    p = p_now[pos]
    cur = _scores_both(
        p, clamp_accuracies(accs[s1], params), clamp_accuracies(accs[s2], params), params
    )
    ref = _scores_both(
        np.where(big[pos], p, state.p_ref[pos]),
        clamp_accuracies(a_store[s1], params),
        clamp_accuracies(a_store[s2], params),
        params,
    )
    cost.score_update(4 * len(pos))
    out = []
    for values in (*cur, *ref):
        total = np.zeros(n_pairs)
        np.add.at(total, pair, values)
        out.append(total)
    return out


def _logs(args: np.ndarray) -> np.ndarray:
    """``math.log`` per element (``np.log`` may differ by an ulp)."""
    return np.fromiter(map(log, args.tolist()), dtype=np.float64, count=len(args))


def _scores_both(p, a1, a2, params: CopyParams):
    """:func:`~repro.core.contribution.same_value_scores_both` per element.

    ``a1``/``a2`` are already clamped.  Expression for expression the
    scalar reference: ``(1 - s) + s * single / denominator``.
    """
    s = params.s
    q = 1.0 - p
    denominator = p * a1 * a2 + q * (1.0 - a1) * (1.0 - a2) / params.n
    fwd = 1.0 - s + s * (p * a2 + q * (1.0 - a2)) / denominator
    bwd = 1.0 - s + s * (p * a1 + q * (1.0 - a1)) / denominator
    return _logs(fwd), _logs(bwd)


def _max_scores(p: np.ndarray, extremes: np.ndarray, params: CopyParams) -> np.ndarray:
    """:func:`~repro.core.maxscore.max_score` per entry from its extremes.

    Mirrors :func:`~repro.core.contribution.same_value_score` (the ratio
    is formed before the ``s *``) over the same five (copier, original)
    candidates.
    """
    a_min, a_second, a_second_max, a_max = clamp_accuracies(extremes, params)
    copier = np.concatenate((a_max, a_second, a_min, a_min, a_second_max))
    original = np.concatenate((a_min, a_min, a_second, a_max, a_max))
    p = np.tile(p, 5)
    s = params.s
    q = 1.0 - p
    denominator = p * copier * original + q * (1.0 - copier) * (1.0 - original) / params.n
    ratio = (p * original + q * (1.0 - original)) / denominator
    return _logs(1.0 - s + s * ratio).reshape(5, -1).max(axis=0, initial=-np.inf)


def _entry_extremes(offsets: np.ndarray, providers: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Each entry's lowest, second-lowest, second-highest and highest accuracy."""
    n_entries = len(offsets) - 1
    owner = np.repeat(np.arange(n_entries), np.diff(offsets))
    values = acc[providers]
    ranked = values[np.lexsort((values, owner))]
    lo, hi = offsets[:-1], offsets[1:]
    return np.stack((ranked[lo], ranked[lo + 1], ranked[hi - 2], ranked[hi - 1]))


def _find_slots(keys: np.ndarray, a: np.ndarray, b: np.ndarray, n_sources: int):
    """Look the unordered pairs ``(a, b)`` up in the sorted slot ``keys``.

    Returns ``(pair_keys, slot, found)``: each pair's key, its slot
    (meaningful where found) and whether the pair has one.
    """
    pair_keys = np.minimum(a, b) * n_sources + np.maximum(a, b)
    slot = np.searchsorted(keys, pair_keys)
    found = slot < len(keys)
    found[found] = keys[slot[found]] == pair_keys[found]
    return pair_keys, slot, found


def _reopen_tail_pairs(
    state: ColumnarIncrementalState, new_scores: np.ndarray, params: CopyParams
) -> np.ndarray:
    """Open unbooked tail pairs that could now reach the copy region.

    The columnar :func:`~repro.core.incremental._reopen_tail_pairs`: a
    pair's ceiling is its own tail entries' current score sum (folded in
    position order) plus the exact different-value penalty; pairs whose
    ceiling reaches ``theta_ind`` get a fresh slot (no-copying verdict,
    decision point at the index end) inserted in key order, with an
    incidence at every entry the two sources share.  Returns the
    opened-slot mask over the grown pair arrays.
    """
    n = state.n_sources
    n_entries = len(state.p_ref)
    tail_start = state.index.tail_start
    keys = state.s1 * n + state.s2
    tail = state.providers[state.offsets[tail_start] :]
    row, islot, jslot = expand_incidences_ordered(
        state.offsets[tail_start:] - state.offsets[tail_start], tail
    )
    tail_keys, _, booked = _find_slots(keys, tail[islot], tail[jslot], n)
    candidates, inverse = np.unique(tail_keys[~booked], return_inverse=True)
    reachable = np.zeros(len(candidates))
    np.add.at(reachable, inverse, new_scores[row[~booked] + tail_start])
    n_shared = np.bincount(inverse, minlength=len(candidates)).astype(np.float64)
    shared = state.index.shared_items
    cand_s1, cand_s2 = candidates // n, candidates % n
    l_cand = np.fromiter(
        (shared[pair] for pair in zip(cand_s1.tolist(), cand_s2.tolist())),
        dtype=np.int64,
        count=len(candidates),
    )
    ceiling = reachable + (l_cand - n_shared) * params.ln_one_minus_s
    keep = ~(ceiling < params.theta_ind)
    opened = candidates[keep]
    if not len(opened):
        return np.zeros(len(keys), dtype=bool)

    # Every entry where both sources appear, over the whole index.
    row, islot, jslot = expand_incidences_ordered(state.offsets, state.providers)
    _, new_rank, shared_here = _find_slots(
        opened, state.providers[islot], state.providers[jslot], n
    )
    new_pos = row[shared_here]
    new_rank = new_rank[shared_here]
    n_old = len(keys)
    all_keys = np.concatenate((keys, opened))
    order = np.argsort(all_keys, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    n_new = len(opened)

    def grow(old, fill):
        return np.concatenate((old, np.full(n_new, fill, dtype=old.dtype)))[order]

    state.s1 = all_keys[order] // n
    state.s2 = all_keys[order] % n
    state.copying = grow(state.copying, False)
    state.c_base_fwd = grow(state.c_base_fwd, 0.0)
    state.c_base_bwd = grow(state.c_base_bwd, 0.0)
    state.decision_pos = grow(state.decision_pos, n_entries)
    state.n_after = grow(state.n_after, 0)
    state.n_total = np.concatenate(
        (state.n_total, np.bincount(new_rank, minlength=n_new))
    )[order]
    state.l = np.concatenate((state.l, l_cand[keep]))[order]
    inc_pos = np.concatenate((state.inc_pos, new_pos))
    inc_pair = np.concatenate((rank[state.inc_pair], rank[n_old + new_rank]))
    by_pos = np.argsort(inc_pos, kind="stable")
    state.inc_pos = inc_pos[by_pos]
    state.inc_pair = inc_pair[by_pos]
    opened_mask = np.zeros(len(order), dtype=bool)
    opened_mask[rank[n_old:]] = True
    return opened_mask
