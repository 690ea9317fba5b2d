"""Every document the benchmark generates passes the input rules.

``perfbench/generate.py`` varies bundled templates to make the documents the
``run_3d`` and ``sweep_2d`` workloads run.  A document that an input rule,
the builder or the kick budget (at the workload's largest strength
multiplier, after the build as in a run) rejects would count as a failed
operation there; here it fails the test suite instead.  The test imports
``perfbench/generate.py`` and ``perfbench/workloads.py`` as they are and
changes nothing there.
"""

from pathlib import Path

import pytest

from pointersim import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCENARIOS = Path(scenarios.__file__).resolve().parent / "scenarios"
DOCUMENTS_PER_TEMPLATE = 4


@pytest.fixture(scope="module")
def generate():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import generate
        yield generate


@pytest.fixture(scope="module")
def largest_multiplier(generate):
    """The largest strength multiplier each workload runs its documents at:
    ``run_3d`` runs each once as written, ``sweep_2d`` at ``MULTIPLIERS``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
        yield {"RUN_3D_TEMPLATES": 1.0, "SWEEP_2D_TEMPLATES": max(workloads.MULTIPLIERS)}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["RUN_3D_TEMPLATES", "SWEEP_2D_TEMPLATES"])
def test_generated_documents_parse_and_build(generate, largest_multiplier, workload, seed):
    templates = generate.load_templates(SCENARIOS, getattr(generate, workload))
    for name, template in templates.items():
        for index in range(DOCUMENTS_PER_TEMPLATE):
            cfg = scenarios.parse_config(generate.document(template, seed, index),
                                         source=f"{name}:{seed}:{index}")
            grid, _phi = scenarios.build_pointer(cfg)
            assert grid is cfg.grid
            scenarios.check_kick_budget(cfg, largest_multiplier[workload])
