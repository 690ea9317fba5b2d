"""The benchmark's traced reference counts hold for the current code.

``perfbench/tracing.py`` pins, per reference scenario, how often one
``run_scenario`` calls the traced layers (``EXPECTED_COUNTS``), and its tracer
refuses to install when a traced function is bound somewhere it cannot
wrap.  Checking both here makes a count drift or a renamed traced function
fail the test suite, not only a traced benchmark run.  The test imports
``perfbench/tracing.py`` as it is and changes nothing there.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_reference_counts_match(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.check_reference_counts(tracer) == []
    finally:
        tracer.uninstall()


def test_lg_probe_diagonalizes_one_matrix(monkeypatch):
    # lg_probe's pauli_z and proj0 couplings commute: one 2x2 eigh gives the
    # basis that phases every grid cell, not one eigh per cell.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from pointersim.scenarios import load_bundled, run_scenario

    cfg = load_bundled("lg_probe")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_scenario(cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["numpy.linalg.eigh"] == 1
    assert tracer.work["numpy.linalg.eigh.matrices"] == 1


@pytest.mark.parametrize("name, builder", [("jozsa_baseline", "pointer.gaussian_pointer"),
                                           ("lg_probe", "pointer.lg_mode"),
                                           ("two_mode_entangle", "pointer.gaussian_pointer")])
def test_every_pointer_build_is_traced(monkeypatch, name, builder):
    # The scenario's pointer-kind table must reach its builder through a name
    # the tracer rebinds; a builder held by reference would count no calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from pointersim.scenarios import build_pointer, load_bundled

    cfg = load_bundled(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        build_pointer(cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls[builder] == 1
