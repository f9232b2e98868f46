"""Exception types shared across the package."""


class DctcSimError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolationError(DctcSimError, ValueError):
    """A domain invariant failed: bad dimensions, unknown labels, a matrix
    that is not Hermitian/unitary/normalized within tolerance, and so on."""


class DegenerateAmplitudesError(DctcSimError, ValueError):
    """Amplitude pair with alpha ~ beta where the protocol requires alpha != beta."""


class FixedPointConvergenceError(DctcSimError, RuntimeError):
    """The solver found no fixed point that passes its checks."""

    def __init__(self, best_residual: float, tolerance: float, detail: str = ""):
        self.best_residual = best_residual
        self.tolerance = tolerance
        super().__init__(
            f"no valid fixed point: residual {best_residual:.3e}, tolerance {tolerance:.3e}"
            + (f"; {detail}" if detail else ""))
