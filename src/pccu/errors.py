"""Exception types shared across the solver."""


class ConfigError(ValueError):
    """Invalid run configuration (bad mesh, unknown ids, inconsistent BCs...)."""


class _Located:
    """Mixin: t, the RK stage, the sweep direction ("x" or "y") and where
    (the cell index) locate a failure."""

    def __init__(self, message, t=None, stage=None, where=None,
                 direction=None):
        super().__init__(message)
        self.t, self.stage, self.where = t, stage, where
        self.direction = direction


class AdmissibilityError(_Located, ValueError):
    """A state left the admissible set (negative density/thickness, c^2 <= 0).

    t is the time of the step it escaped from, when raised while stepping;
    stage and where are set when an RK stage candidate could not be
    brought back into the set, direction when a sweep raised it.
    """


class ReconstructionError(_Located, RuntimeError):
    """Equilibrium-variable inversion failed (no positive root).

    t is the time of the step it escaped from, when raised while stepping,
    and direction the sweep that raised it.  From invert_momentum_flux,
    where indexes the worst failed value in its inputs.
    """


class NumericalError(_Located, RuntimeError):
    """Non-finite values appeared during time stepping, located by time,
    RK stage and the first offending cell."""
