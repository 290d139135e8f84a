"""The output check every run ends with."""

import pytest
from digest import Outcome, compare


@pytest.fixture
def outcome():
    return Outcome(
        truths={"item0": "i0/true", "item1": "i1/f3", "item2": "i2/true"},
        copying=[("copy0.0", "src004"), ("copy0.1", "src004")],
        accuracies={"src004": 0.81, "copy0.0": 0.6, "copy0.1": 0.62},
    )


def _never():
    raise AssertionError("the full reference should not be needed")


def test_identical_outcome_passes(outcome):
    assert compare(outcome, outcome.digest(), _never) == []


def test_perturbed_truth_is_rejected(outcome):
    reference = outcome.digest()
    outcome.truths["item1"] = "i1/true"
    problems = compare(outcome, reference, _never)
    assert any("truths_sha256" in p for p in problems)


def test_flipped_verdict_is_rejected(outcome):
    reference = outcome.digest()
    outcome.copying = outcome.copying[:1]
    problems = compare(outcome, reference, _never)
    assert any("copying_sha256" in p for p in problems)


def test_flipped_verdict_with_same_count_is_rejected(outcome):
    reference = outcome.digest()
    outcome.copying = [("copy0.0", "copy0.1"), ("copy0.1", "src004")]
    problems = compare(outcome, reference, _never)
    assert problems and all("n_copying" not in p for p in problems)


def test_accuracy_within_contract_falls_back_to_full_reference(outcome):
    full = Outcome.from_json(outcome.to_json())
    # 2e-12 apart, within the contract, but on either side of a 1e-9
    # rounding boundary: the accuracy hashes differ.
    full.accuracies["src004"] = 0.81050000049
    outcome.accuracies["src004"] = 0.81050000051
    reference = full.digest()
    assert outcome.digest()["accuracies_sha256"] != reference["accuracies_sha256"]
    assert compare(outcome, reference, lambda: full) == []


def test_accuracy_beyond_contract_is_rejected(outcome):
    full = Outcome.from_json(outcome.to_json())
    reference = outcome.digest()
    outcome.accuracies["copy0.0"] += 1e-6
    problems = compare(outcome, reference, lambda: full)
    assert problems and "copy0.0" in problems[0]
