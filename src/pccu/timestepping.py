"""Third-order strong-stability-preserving Runge-Kutta stepping."""

import numpy as np

from .errors import AdmissibilityError, NumericalError


def cfl_dt(speed_x, speed_y, dx, dy, cfl):
    """Time step from the CFL condition.

    dt = cfl / (speed_x/dx + speed_y/dy); pass speed_y = 0, dy = 1 in 1-D.
    Returns inf when both speeds vanish (caller clips to the next event).
    """
    rate = speed_x / dx + (speed_y / dy if dy is not None else 0.0)
    if rate <= 0.0:
        return np.inf
    return cfl / rate


def ssprk3_step(u, dt, rhs, rhs0=None, stage_check=None, admissible=None):
    """One SSP-RK3 step u -> u(t + dt).

    rhs maps an array to its tendency.  rhs0, if given, is the precomputed
    tendency at u (saves one evaluation when the caller already needed it
    for the CFL bound).  stage_check(candidate, stage) may raise to abort.

    admissible, if given, maps a stage candidate to a per-cell mask.  Where
    it fails, the stage is redone with rhs(values, flagged), the tendency
    with the robust flux on the faces of the flagged cells; the flagged
    set grows by the failing cells until the candidate passes.  When a
    redo fails only in cells already flagged, AdmissibilityError names
    the stage and the first such cell (its index over the cell axes).
    """
    stages = (lambda v, k: v + dt * k,
              lambda v, k: 0.75 * u + 0.25 * (v + dt * k),
              lambda v, k: u / 3.0 + (2.0 / 3.0) * (v + dt * k))
    v = u
    for stage, combine in enumerate(stages, 1):
        k = rhs0 if stage == 1 and rhs0 is not None else rhs(v)
        candidate = combine(v, k)
        if admissible is not None:
            bad = ~admissible(candidate)
            flagged = np.zeros_like(bad)
            while np.any(bad):
                if not np.any(bad & ~flagged):
                    cell = tuple(np.argwhere(bad)[0].tolist())
                    raise AdmissibilityError(
                        "stage %d leaves cell %s inadmissible even with the "
                        "robust flux on its faces" % (stage, cell),
                        stage=stage, where=cell)
                flagged |= bad
                candidate = combine(v, rhs(v, flagged))
                bad = ~admissible(candidate)
        if stage_check is not None:
            stage_check(candidate, stage)
        v = candidate
    return v


def finite_stage_check(t):
    """Stage check raising NumericalError on the first non-finite value.

    The error's where is that value's cell: its index over the cell axes.
    """
    def check(candidate, stage):
        if not np.all(np.isfinite(candidate)):
            *cell, comp = np.argwhere(~np.isfinite(candidate))[0].tolist()
            raise NumericalError(
                "non-finite state (component %d of cell %s)"
                % (comp, tuple(cell)), t=t, stage=stage, where=tuple(cell))
    return check
