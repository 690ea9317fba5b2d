"""How ``run_all`` schedules the suite: two passes, each simulating the
bundled corpus once and handing it to criteria 1-9; and how a blown
wall-clock budget fails ``pointersim validate`` without entering the
serialized summaries.

The stubs stand in for the real criteria so that only the scheduling is
under test; the real criteria's verdicts are covered by
``test_acceptance.py``.  The last tests run criteria 3, 6 and 9 alone:
criterion 3 for the corpus seconds its budget counts, 6 and 9 for their
memory peak and for which moment passes they call.  The clock test keeps
every wall-clock read in the suite and the CLI.
"""

import ast
import itertools
from types import SimpleNamespace

import pytest

from pointersim import validation
from pointersim.cli import main
from pointersim.scenarios import load_bundled, run_scenario
from pointersim.validation import CriterionResult
from conftest import count_calls, source_sites, traced_peak


@pytest.fixture
def stub_suite(monkeypatch):
    """Nine counting stubs for criteria 1-9 and a one-scenario corpus.

    Records the per-criterion call counts (``calls``), the corpora built in
    order (``built``) and, per criterion call, ``(number, corpus)`` with the
    corpus it received (``received``).  Criterion numbers added to
    ``unstable`` return a different value on each call; those added to
    ``slow`` report twice their 1 s wall-clock budget.
    """
    calls = [0] * 9
    unstable: set[int] = set()
    slow: set[int] = set()
    built: list[dict] = []
    received: list[tuple[int, dict]] = []

    def stub(number):
        def criterion(corpus):
            calls[number - 1] += 1
            received.append((number, corpus))
            value = float(calls[number - 1]) if number in unstable else 0.0
            elapsed = 2.0 if number in slow else 0.5
            return CriterionResult(number, f"stub_{number}", True, value, 1.0, "stub",
                                   budget_s=1.0, elapsed_s=elapsed)
        return criterion

    real_corpus = validation._bundled_corpus

    def counting_corpus():
        built.append(real_corpus())
        return built[-1]

    monkeypatch.setattr(validation, "_CRITERIA_1_9", tuple(stub(n) for n in range(1, 10)))
    monkeypatch.setattr(validation, "bundled_scenario_names", lambda: ["zero_coupling"])
    monkeypatch.setattr(validation, "_bundled_corpus", counting_corpus)
    return SimpleNamespace(calls=calls, unstable=unstable, slow=slow, built=built,
                           received=received)


def test_run_all_runs_each_criterion_twice(stub_suite):
    results = validation.run_all()
    assert stub_suite.calls == [2] * 9
    assert [r.number for r in results] == list(range(1, 11))
    assert results[-1].passed and results[-1].value == 0.0


def test_each_pass_builds_one_corpus_shared_by_its_criteria(stub_suite):
    built, received = stub_suite.built, stub_suite.received
    validation.run_all()
    assert len(built) == 2
    assert built[0] is not built[1]
    assert list(built[0]) == ["zero_coupling"]
    first, second = received[:9], received[9:]
    assert [n for n, _ in first] == [n for n, _ in second] == list(range(1, 10))
    assert all(corpus is built[0] for _, corpus in first)
    assert all(corpus is built[1] for _, corpus in second)


def test_determinism_fails_when_a_rerun_result_differs(stub_suite):
    stub_suite.unstable.add(4)
    results = validation.run_all()
    assert not results[-1].passed
    assert results[-1].value == 1.0


@pytest.mark.parametrize("number", range(1, 10))
def test_run_criterion_dispatches_to_its_criterion(stub_suite, number):
    """One suite pass runs criterion ``number`` once, at its own place, on
    the one corpus the pass built."""
    results, corpus = validation._suite_pass()
    assert results[number - 1].number == number
    assert stub_suite.calls[number - 1] == 1
    assert len(stub_suite.built) == 1 and corpus is stub_suite.built[0]
    got_number, got_corpus = stub_suite.received[number - 1]
    assert got_number == number and got_corpus is corpus


def test_criterion_10_alone_makes_two_fresh_passes(stub_suite):
    """Criterion 10 handed one pass builds exactly one more of its own."""
    assert validation.criterion_10_determinism(validation._suite_pass()).passed
    assert stub_suite.calls == [2] * 9
    assert len(stub_suite.built) == 2
    assert stub_suite.built[0] is not stub_suite.built[1]


def test_blown_budget_fails_validate_but_leaves_the_summary_bytes(stub_suite, tmp_path):
    def summaries(results):
        return validation.summary_json_text(results), validation.summary_csv_text(results)

    on_time = validation.run_all()
    assert all(r.ok for r in on_time)
    assert main(["validate", "--out", str(tmp_path / "on_time")]) == 0

    stub_suite.slow.add(3)
    late = validation.run_all()
    assert late[2].passed and not late[2].within_budget and not late[2].ok
    assert "OVER BUDGET" in late[2].line()
    assert summaries(late) == summaries(on_time)
    assert late[-1].passed  # the determinism criterion never sees the clock
    assert main(["validate", "--out", str(tmp_path / "late")]) == 1
    for name in ("validate_summary.json", "validate_summary.csv"):
        assert ((tmp_path / "late" / name).read_bytes()
                == (tmp_path / "on_time" / name).read_bytes())


def test_the_suite_pass_clocks_each_criterion(monkeypatch):
    # The stub reads no clock; the pass times its call, 2 s by the patched
    # clock, against a 1 s budget.
    def stub(corpus):
        return CriterionResult(1, "stub_1", True, 0.0, 1.0, "stub", budget_s=1.0, elapsed_s=0.0)

    ticks = itertools.count(step=2.0)
    monkeypatch.setattr(validation, "_CRITERIA_1_9", (stub,))
    monkeypatch.setattr(validation, "_bundled_corpus", dict)
    monkeypatch.setattr(validation.time, "perf_counter", lambda: next(ticks))
    (result,), _corpus = validation._suite_pass()
    assert result.passed and result.elapsed_s == 2.0
    assert not result.within_budget and not result.ok


def test_only_the_suite_and_the_cli_read_the_clock():
    # A report holds no time: the corpus times each run, the suite pass each
    # criterion call, and ``pointersim run`` its one scenario.
    sites = source_sites(lambda node: "time" if (
        isinstance(node, ast.Name) and node.id == "time"
        or isinstance(node, ast.ImportFrom) and node.module == "time") else None)
    assert sites == {("validation", "_suite_pass", "time"),
                     ("validation", "_bundled_corpus", "time"),
                     ("cli", "_cmd_run", "time")}


def test_criterion_3_budget_counts_its_corpus_run():
    # Its own work takes well under a second; the 61 s its corpus run took
    # is what blows the 60 s budget, and the numbers still pass.
    cfg = load_bundled("seq_corr_full")
    result = validation.criterion_3_sequential_shifts({"seq_corr_full": (run_scenario(cfg), 61.0)})
    assert result.passed and not result.within_budget
    assert result.elapsed_s == 61.0


def test_criterion_6_holds_one_64_cubed_pointer_while_measuring():
    # The displaced state replaces the undisplaced one before its moments are
    # taken, so the 64^3 pass peaks at the state, the moments scratch and
    # block buffers, not at two states plus scratch.  A whole-grid phase in
    # the displacement adds a quarter pointer (2.53).
    pointer_bytes = 64**3 * 16
    result, peak = traced_peak(lambda: validation.criterion_6_displacement_invariance({}))
    assert result.passed
    assert peak <= 2.4 * pointer_bytes, f"traced peak {peak / 2**20:.2f} MiB"


def test_criterion_9_holds_two_64_cubed_pointers():
    # The first-order pointer, readout included, is formed block by block in
    # one output array (2.16); the whole-grid xi * phi and displacement
    # phase peaked at 3.03.
    cfg = load_bundled("seq_corr_full")
    corpus = {"seq_corr_full": (run_scenario(cfg), 0.0)}
    result, peak = traced_peak(lambda: validation.criterion_9_oracle_crosscheck(corpus))
    assert result.passed
    assert peak <= 2.5 * 64**3 * 16, f"traced peak {peak / 2**20:.2f} MiB"


def test_criterion_9_takes_only_means(monkeypatch):
    # It compares mean vectors, so it needs no covariance pass.
    cfg = load_bundled("zero_coupling")
    corpus = {"zero_coupling": (run_scenario(cfg), 0.0)}
    counts = count_calls(monkeypatch, validation, "moments", "means")
    assert validation.criterion_9_oracle_crosscheck(corpus).passed
    assert counts == {"moments": 0, "means": 1}
