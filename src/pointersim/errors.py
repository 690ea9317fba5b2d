"""Exception types raised across the toolkit."""


class PointersimError(Exception):
    """Base class for all toolkit errors."""


class InvalidState(PointersimError):
    """System state vector is unusable (zero vector, dimension < 2, non-finite)."""


class InvalidObservable(PointersimError):
    """Matrix is not Hermitian within tolerance."""


class DimensionError(PointersimError):
    """Operands have incompatible dimensions."""


class NearOrthogonalPostselection(PointersimError):
    """Postselection overlap below the floor; the weak value would blow up.

    Carries the measured overlap magnitude in ``overlap``.
    """

    def __init__(self, overlap: float):
        self.overlap = float(overlap)
        super().__init__(
            f"|<post|pre>| = {self.overlap:.3e} is below the overlap floor"
        )


class NormalizationError(PointersimError):
    """Wavefunction norm differs from 1 beyond tolerance."""


class InvalidCovariance(PointersimError):
    """Covariance matrix is not symmetric positive definite."""


class GridCoverage(PointersimError):
    """Grid extent too small to hold the requested state."""


class RepresentationError(PointersimError):
    """Coupling specs mix position and momentum quadrature representations."""


class PostselectionFailed(PointersimError):
    """Postselection probability below threshold (effectively orthogonal branch)."""


class InvalidParams(PointersimError):
    """Analytic parameter set violates its constraints (e.g. not normalizable)."""


class ConfigError(PointersimError):
    """Scenario document failed validation.  ``path`` locates the offending key."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
