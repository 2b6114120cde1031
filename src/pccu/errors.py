"""Exception types shared across the solver."""

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration (bad mesh, unknown ids, inconsistent BCs...)."""


class _Located:
    """Mixin: t, the RK stage, the sweep direction ("x" or "y") and where
    (a cell index) locate a failure; t is the start of the step it escaped
    from while stepping."""

    def __init__(self, message, t=None, stage=None, where=None,
                 direction=None):
        super().__init__(message)
        self.t, self.stage, self.where = t, stage, where
        self.direction = direction


class AdmissibilityError(_Located, ValueError):
    """A state left the admissible set (negative density/thickness,
    c^2 <= 0)."""


class ReconstructionError(_Located, RuntimeError):
    """Equilibrium-variable inversion failed (no positive root).  From
    invert_momentum_flux, where indexes the worst failed value in its
    inputs."""


class NumericalError(_Located, RuntimeError):
    """Non-finite values appeared during time stepping; where is the first
    offending cell."""


def check_admissible(model, state, what):
    """AdmissibilityError naming the first cell of state (..., d) outside
    model.admissible, as where, and its state."""
    ok = model.admissible(state)
    if not np.all(ok):
        cell = tuple(np.argwhere(~ok)[0].tolist())
        raise AdmissibilityError("%s outside the admissible set at cell %s: %s"
                                 % (what, cell, state[cell].tolist()),
                                 where=cell)
