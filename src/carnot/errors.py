"""Exception types shared across the package.

Everything raised on bad mathematical input derives from CarnotError so
callers (and the CLI) can distinguish precondition failures from ordinary
usage errors. Solver non-convergence gets its own branch because it is the
one failure mode that can occur on perfectly valid input.
"""


class CarnotError(Exception):
    """Base class for mathematical precondition violations."""


class SkewViolation(CarnotError):
    """Structure constants conflict with skew-symmetry in the lower pair."""


class JacobiViolation(CarnotError):
    """Structure constants fail the Jacobi identity beyond tolerance."""


class GradingViolation(CarnotError):
    """A nonzero constant sits outside the layer grading."""


class NotGenerating(CarnotError):
    """The first layer fails to bracket-generate some higher layer."""


class NonPositiveScale(CarnotError):
    """Dilations require a strictly positive scale factor."""


class NonFiniteState(CarnotError):
    """Integration produced a NaN or infinity."""


class TooFewSamples(CarnotError):
    """A sampled-curve operation needs more grid points than provided."""


class NotSkew(CarnotError):
    """Matrix handed to the canonical-form routine is not skew-symmetric."""


class WrongStep(CarnotError):
    """Closed-form exponential requested outside the 2-step case."""


class GridMismatch(CarnotError):
    """Curve data and field data live on different time grids."""


class EndpointViolation(CarnotError):
    """Variation field fails the required endpoint conditions."""


class NotUnitSpeed(CarnotError):
    """Curve is not parametrized by arc length within tolerance."""


class NotUnit(CarnotError):
    """Covector fails the unit horizontal-norm normalization."""


class NoConvergence(CarnotError):
    """Iterative solver exhausted its budget without meeting tolerance."""


class ZeroGradient(CarnotError):
    """Defining function has vanishing full gradient at the point."""


class Characteristic(CarnotError):
    """Horizontal gradient vanishes: the point is characteristic."""


class NotOnSurface(CarnotError):
    """Point does not satisfy the surface equation within tolerance."""


class OutsideChart(CarnotError):
    """Point lies outside the validated tubular chart."""
