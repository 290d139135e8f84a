"""Columnar INCREMENTAL rounds against the pure-Python reference, in lockstep.

Two :class:`IncrementalDetector` instances — ``backend="python"`` (the
oracle, :func:`repro.core.incremental_round`) and ``backend="numpy"``
(:func:`repro.core.incremental_kernel.columnar_round`) — see identical
inputs every round.  After each round the decisions, ``changed_pairs``,
the cost tally, the round's :class:`RoundStats` and every booked pair's
stored state must be bit-identical (``==`` on floats).  Each scenario
also asserts that the branch it targets actually ran.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CopyParams, IncrementalDetector
from repro.data import DatasetBuilder
from tests.strategies import worlds

LAYOUTS = ("dense", "sparse")


def _python_pairs(state) -> dict:
    return {
        key: (r.copying, r.c_base_fwd, r.c_base_bwd, r.decision_pos, r.n_after)
        for key, r in state.pairs.items()
    }


def _columnar_pairs(state) -> dict:
    keys = zip(state.s1.tolist(), state.s2.tolist())
    rows = zip(
        state.copying.tolist(),
        state.c_base_fwd.tolist(),
        state.c_base_bwd.tolist(),
        state.decision_pos.tolist(),
        state.n_after.tolist(),
    )
    return dict(zip(keys, rows))


def lockstep(dataset, schedule, pair_layout="dense", **rho):
    """Run both backends over ``schedule`` (one ``(probs, accs)`` per round).

    Round 1 is the preparation round; every later round is incremental.
    Returns the numpy detector's round history.
    """
    reference = IncrementalDetector(
        CopyParams(backend="python"), prepare_round=1, **rho
    )
    candidate = IncrementalDetector(
        CopyParams(backend="numpy", pair_layout=pair_layout), prepare_round=1, **rho
    )
    for round_no, (probs, accs) in enumerate(schedule, start=1):
        ref = reference.run_round(round_no, dataset, probs, accs)
        got = candidate.run_round(round_no, dataset, probs, accs)
        assert got.decisions == ref.decisions, f"round {round_no}"
        assert got.changed_pairs == ref.changed_pairs, f"round {round_no}"
        assert got.cost == ref.cost, f"round {round_no}"
        ref_state, got_state = reference.state, candidate.state
        assert got_state.history == ref_state.history, f"round {round_no}"
        assert _columnar_pairs(got_state) == _python_pairs(ref_state), (
            f"round {round_no}"
        )
    return candidate.state.history


def drifting(probs, accs, rounds, seed, value_step, accuracy_step=0.0):
    """A schedule of ``rounds`` inputs random-walking from ``(probs, accs)``."""
    rng = random.Random(seed)
    schedule = []
    for _ in range(rounds):
        schedule.append((list(probs), list(accs)))
        probs = [min(max(p + rng.uniform(-value_step, value_step), 0.001), 0.999) for p in probs]
        accs = [
            min(max(a + rng.uniform(-accuracy_step, accuracy_step), 0.01), 0.99)
            for a in accs
        ]
    return schedule


def total(history, field):
    return sum(getattr(stats, field) for stats in history)


@pytest.fixture(scope="module")
def stock_world():
    """Dense sharing: BOUND+ concludes pairs early, so n_after > 0."""
    from repro.synth import make_profile

    dataset = make_profile("stock_1day", 0.02, seed=3).dataset
    rng = random.Random(5)
    probs = [rng.uniform(0.05, 0.95) for _ in range(dataset.n_values)]
    accs = [rng.uniform(0.5, 0.95) for _ in range(dataset.n_sources)]
    return dataset, probs, accs


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBranches:
    def test_pass2_resolutions(self, stock_world, layout):
        dataset, probs, accs = stock_world
        schedule = drifting(probs, accs, rounds=7, seed=1, value_step=0.05)
        history = lockstep(dataset, schedule, layout)
        assert len(history) == 6
        assert total(history, "done_pass2") > 0
        assert total(history, "done_pass3") > 0

    def test_big_entry_changes(self, stock_world, layout):
        dataset, probs, accs = stock_world
        schedule = drifting(probs, accs, rounds=6, seed=2, value_step=0.1)
        history = lockstep(dataset, schedule, layout, rho_value=0.05)
        assert total(history, "entries_big") > 0
        assert total(history, "entries_small") > 0

    def test_accuracy_refresh(self, stock_world, layout):
        dataset, probs, accs = stock_world
        schedule = drifting(
            probs, accs, rounds=6, seed=3, value_step=0.05, accuracy_step=0.05
        )
        history = lockstep(dataset, schedule, layout, rho_accuracy=0.01)
        assert total(history, "refresh_pairs") > 0
        assert total(history, "flips") > 0

    def test_every_change_big(self, stock_world, layout):
        dataset, probs, accs = stock_world
        schedule = drifting(probs, accs, rounds=6, seed=4, value_step=0.3)
        history = lockstep(dataset, schedule, layout, rho_value=0.0)
        assert total(history, "entries_small") == 0


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rho_value", [1.0, 0.0])
class TestTailReopening:
    """The worlds of ``test_robustness.TestIncrementalReopening``."""

    def test_big_swing_reopens_tail_pair(self, layout, rho_value):
        b = DatasetBuilder()
        b.add("A", "D", "v")
        b.add("B", "D", "v")
        dataset = b.build()
        schedule = [([0.5], [0.5, 0.5]), ([0.05], [0.5, 0.5])]
        schedule += [([p], [0.5, 0.5]) for p in (0.04, 0.5, 0.03, 0.02)]
        history = lockstep(dataset, schedule, layout, rho_value=rho_value)
        assert history[0].reopened_pairs == 1

    def test_hopeless_tail_pairs_stay_closed(self, layout, rho_value):
        b = DatasetBuilder()
        b.add("A", "D0", "v")
        b.add("B", "D0", "v")
        for i in range(1, 5):
            b.add("A", f"D{i}", f"a{i}")
            b.add("B", f"D{i}", f"b{i}")
        dataset = b.build()
        rest = [0.5] * (dataset.n_values - 1)
        schedule = [([p] + rest, [0.5, 0.5]) for p in (0.5, 0.1, 0.05, 0.2, 0.01, 0.3)]
        history = lockstep(dataset, schedule, layout, rho_value=rho_value)
        assert total(history, "reopened_pairs") == 0

    def test_reopening_among_booked_pairs(self, layout, rho_value):
        """An opened slot is inserted before booked ones in key order,
        shifting every booked pair's slot and incidence."""
        b = DatasetBuilder()
        b.add("A", "T", "t")  # A, B: ids 0, 1 — the tail pair
        b.add("B", "T", "t")
        b.add("A", "U", "u")
        b.add("C", "U", "u")
        for item in range(6):
            for source in ("C", "D", "E"):
                b.add(source, f"I{item}", f"x{item}")
        dataset = b.build()
        accs = [0.6] * dataset.n_sources
        rest = [0.2] * (dataset.n_values - 2)
        schedule = [
            ([p, q] + rest, accs)
            for p, q in (
                (0.5, 0.5), (0.02, 0.5), (0.02, 0.02), (0.3, 0.01), (0.01, 0.01), (0.5, 0.5)
            )
        ]
        history = lockstep(dataset, schedule, layout, rho_value=rho_value)
        assert history[0].reopened_pairs == 1


@settings(max_examples=30, deadline=None)
@given(
    world=worlds(),
    seed=st.integers(min_value=0, max_value=1000),
    rho_value=st.sampled_from([1.0, 0.05, 0.0]),
    rho_accuracy=st.sampled_from([0.2, 0.01]),
    layout=st.sampled_from(LAYOUTS),
)
def test_random_worlds_lockstep(world, seed, rho_value, rho_accuracy, layout):
    dataset, probs, accs = world
    schedule = drifting(
        probs, accs, rounds=6, seed=seed, value_step=0.2, accuracy_step=0.03
    )
    lockstep(
        dataset, schedule, layout, rho_value=rho_value, rho_accuracy=rho_accuracy
    )
