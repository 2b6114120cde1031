"""Independent correctness checks on solver output.

Every check derives its expectation from the physics of the setup (exact
conservation laws, Rankine-Hugoniot speeds, boundary-flux budgets, mirror
symmetry, exact CSV round trips), never from a stored copy of earlier
output, and recomputes what it needs from the conserved state itself rather
than through the solver's model classes.

A check is a Check(name, value, limit, ok): value is the measured error or
margin, limit what it is compared against.
"""

import os
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    value: float
    limit: float
    ok: bool


def at_most(name, value, limit):
    value = float(value)
    return Check(name, value, limit, bool(value <= limit))   # NaN fails


def positive(name, minimum):
    minimum = float(minimum)
    return Check(name, minimum, 0.0, bool(minimum > 0.0))


def relative_drift(initial, final, comp):
    """|sum(final) - sum(initial)| / |sum(initial)| of one component."""
    s0 = initial[..., comp].sum()
    s1 = final[..., comp].sum()
    return abs(s1 - s0) / abs(s0)


def mirror_defect(state, even, odd):
    """Largest violation of symmetry about the grid's middle row (axis 0).

    Components in `even` must satisfy q(-y) = q(y), those in `odd`
    q(-y) = -q(y); the defect is relative to the largest |q| checked.
    """
    flipped = state[::-1]
    scale = np.abs(state[..., list(even) + list(odd)]).max()
    defect = 0.0
    for c in even:
        defect = max(defect, np.abs(state[..., c] - flipped[..., c]).max())
    for c in odd:
        defect = max(defect, np.abs(state[..., c] + flipped[..., c]).max())
    return defect / scale


# ---- multifluid ---------------------------------------------------------------

def stiffened_gas_pressure(state, dimension):
    """(p, pi_inf) from (rho, rho u[, rho v], E, G, P).

    p = (E - |rho u|^2 / (2 rho) - P) / G and pi_inf = P / (G + 1), since
    G = 1/(gamma - 1) and P = gamma pi_inf / (gamma - 1).
    """
    rho = state[..., 0]
    mom2 = sum(state[..., 1 + i] ** 2 for i in range(dimension))
    ie = dimension + 1
    g_coef, p_coef = state[..., ie + 1], state[..., ie + 2]
    p = (state[..., ie] - 0.5 * mom2 / rho - p_coef) / g_coef
    return p, p_coef / (g_coef + 1.0)


def multifluid_admissible(tag, state, dimension):
    p, pi_inf = stiffened_gas_pressure(state, dimension)
    return [positive(tag + ".min_rho", state[..., 0].min()),
            positive(tag + ".min_p_plus_pi_inf", (p + pi_inf).min())]


def shock_position(x, rho, lo, hi, rho_pre, rho_post):
    """Position of a left-running shock with post-shock density on its
    right: where rho first falls below the mean of the two densities,
    scanning x in (lo, hi) leftward from hi, interpolated linearly between
    the two cells that straddle it.  NaN if there is no crossing."""
    mid = 0.5 * (rho_pre + rho_post)
    sel = (x > lo) & (x < hi)
    xs, rs = x[sel], rho[sel]
    below = np.nonzero(rs < mid)[0]
    if below.size == 0 or below[-1] == xs.size - 1:
        return float("nan")
    j = below[-1]
    frac = (mid - rs[j]) / (rs[j + 1] - rs[j])
    return float(xs[j] + frac * (xs[j + 1] - xs[j]))


# ---- thermal shallow water ------------------------------------------------------

def trsw_admissible(tag, state):
    return [positive(tag + ".min_h", state[..., 0].min()),
            positive(tag + ".min_hb", state[..., 3].min())]


def max_momentum(state):
    return float(np.abs(state[..., 1:3]).max())


# ---- output round trip -----------------------------------------------------------

def csv_roundtrip(path, state):
    """Number of values in a field CSV that differ from the state they were
    written from (0 when the file reads back bit-equal).  The first one
    (1-D) or two (2-D) columns are coordinates and are skipped."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = state.shape[-1]
    values = state.reshape(-1, d)
    if table.shape[0] != values.shape[0] or table.shape[1] - d not in (1, 2):
        return values.size
    return int(np.count_nonzero(table[:, -d:] != values))


def csv_checks(tag, out_dir, states):
    out = []
    for i, state in enumerate(states):
        name = "field_%03d.csv" % i
        path = os.path.join(out_dir, name)
        bad = csv_roundtrip(path, state) if os.path.exists(path) \
            else state.size
        out.append(at_most("%s.%s_roundtrip_mismatches" % (tag, name),
                           bad, 0))
    return out
