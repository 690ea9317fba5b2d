"""How ``run_all`` schedules the suite: criteria 1-9 run twice, not three times.

The stubs stand in for the real criteria so that only the scheduling is
under test; the real criteria are covered by ``test_acceptance.py``.
"""

import pytest

from pointersim import validation
from pointersim.validation import CriterionResult


@pytest.fixture
def stub_suite(monkeypatch):
    """Nine counting stubs for criteria 1-9 and a one-scenario corpus.

    Returns the per-criterion call counts and the set of criterion numbers
    whose result changes from one call to the next.
    """
    calls = [0] * 9
    unstable: set[int] = set()

    def stub(number):
        def criterion():
            calls[number - 1] += 1
            value = float(calls[number - 1]) if number in unstable else 0.0
            return CriterionResult(number, f"stub_{number}", True, value, 1.0, "stub")
        return criterion

    monkeypatch.setattr(validation, "_CRITERIA_1_9", tuple(stub(n) for n in range(1, 10)))
    monkeypatch.setattr(validation, "bundled_scenario_names", lambda: ["zero_coupling"])
    return calls, unstable


def test_run_all_runs_each_criterion_twice(stub_suite):
    calls, _unstable = stub_suite
    results = validation.run_all()
    assert calls == [2] * 9
    assert [r.number for r in results] == list(range(1, 11))
    assert results[-1].passed and results[-1].value == 0.0


def test_determinism_fails_when_a_rerun_result_differs(stub_suite):
    _calls, unstable = stub_suite
    unstable.add(4)
    results = validation.run_all()
    assert not results[-1].passed
    assert results[-1].value == 1.0


def test_criterion_10_alone_makes_two_fresh_passes(stub_suite):
    calls, _unstable = stub_suite
    assert validation.run_criterion(10).passed
    assert calls == [2] * 9
