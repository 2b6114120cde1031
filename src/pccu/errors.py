"""Exception types shared across the solver."""


class ConfigError(ValueError):
    """Invalid run configuration (bad mesh, unknown ids, inconsistent BCs...)."""


class AdmissibilityError(ValueError):
    """A state left the admissible set (negative density/thickness, c^2 <= 0).

    t is the time of the step it escaped from, when raised while stepping.
    """

    t = None


class ReconstructionError(RuntimeError):
    """Equilibrium-variable inversion failed (no positive root).

    t is the time of the step it escaped from, when raised while stepping.
    """

    t = None


class NumericalError(RuntimeError):
    """Non-finite values appeared during time stepping.

    Carries enough provenance to locate the blow-up: time, RK stage and the
    first offending cell.
    """

    def __init__(self, message, t=None, stage=None, where=None):
        super().__init__(message)
        self.t = t
        self.stage = stage
        self.where = where
