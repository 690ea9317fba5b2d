"""Weak quantum measurement with correlated multidimensional pointer states.

Simulates von Neumann weak couplings plus projective postselection on
discretized multimode pointer wavefunctions, and verifies the closed-form
first-order pointer-shift predictions (including every correlation-driven
term) against the exact evolution.
"""

from .errors import (
    ConfigError,
    DimensionError,
    GridCoverage,
    InvalidCovariance,
    InvalidObservable,
    InvalidParams,
    InvalidState,
    NearOrthogonalPostselection,
    NormalizationError,
    PointersimError,
    PostselectionFailed,
    RepresentationError,
)
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    SystemState,
    weak_value,
)
from .pointer import (
    Grid,
    MomentSet,
    PointerWavefunction,
    auto_grid,
    displace_momentum,
    gaussian_pointer,
    lg_mode,
    means,
    moments,
)
from .dynamics import (
    CouplingSpec,
    JointState,
    apply_couplings,
    evolve,
    first_order_pointer,
    make_joint,
    postselect,
    strong_readout,
)
from .shifts import (
    ORIENTATION,
    RE_ORIENTATION,
    ShiftPrediction,
    lg_compatibility,
    predict_general,
)
from .entanglement import (
    CMatrix,
    TwoModeGaussianParams,
    c_matrix_direct,
    c_matrix_from_shifts,
    is_entangled,
    two_mode_gaussian,
)
from .fouriercorr import appendix_a_check
from .scenarios import (
    ScenarioConfig,
    ShiftReport,
    bundled_scenario_names,
    load_bundled,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
)

__version__ = "0.1.0"
