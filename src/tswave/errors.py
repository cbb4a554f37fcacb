"""Exception types shared across the toolkit."""


class TswaveError(RuntimeError):
    """Base class for all toolkit errors."""


class NonConvergence(TswaveError):
    """An iterative procedure exhausted its budget without meeting tolerance."""


class ZeroOnContour(TswaveError):
    """A sampled contour value is (numerically) zero; winding count undefined."""


class NonResolvable(TswaveError):
    """Adaptive contour refinement exhausted its sample budget."""


class DerivativeBreakdown(TswaveError):
    """Newton difference quotient underflowed; no usable search direction."""


class SectorViolation(TswaveError):
    """Argument lies outside the sector on which the Airy evaluation is defined."""


class UnsupportedOrder(TswaveError):
    """Requested derivative order exceeds what the evaluator provides."""


class StructureViolation(TswaveError):
    """Background profile fails a monotonicity/concavity structural inequality."""


class NonContraction(TswaveError):
    """Fixed-point gap ratios stopped decreasing; scheme is outside its contraction regime."""


class RegimeMismatch(TswaveError):
    """Operation invoked for the wrong wavenumber regime."""


class SingularSystem(TswaveError):
    """Discrete resolvent factorization is numerically singular (spectral parameter outside the resolvent set)."""


class GrowthOverflow(TswaveError):
    """An export time at which the mode's amplitude e^{alpha Im c t / sqrt(eps)}
    grows or decays beyond what the export keeps finite."""

    def __init__(self, t, exponent, limit):
        self.t = t
        self.exponent = exponent
        super().__init__(f"export time t = {t!r}: alpha Im c t / sqrt(eps) = {exponent:.6g} "
                         f"lies outside +-{limit:.6g}; the energy would change by more "
                         f"than e^{2.0 * limit:.4g} from t = 0")


class WindingNotOne(TswaveError):
    """Boundary winding count differs from one; certification of a unique simple zero fails."""

    def __init__(self, winding, message=None, report=None):
        self.winding = winding
        self.report = report
        super().__init__(message or f"winding number {winding} != 1")
