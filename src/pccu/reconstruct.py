"""Generalized-minmod piecewise-linear reconstruction.

Works on "stacked lines": arrays of shape (L, n + 2*GHOST, d) holding L
independent 1-D sweeps of n interior cells each.  Interface f = 0..n sits
between padded cells f+1 and f+2, so every interior cell has both of its
faces covered.
"""

import numpy as np

from .grid import GHOST


def _minmod3(a, b, c):
    pos = (a > 0.0) & (b > 0.0) & (c > 0.0)
    neg = (a < 0.0) & (b < 0.0) & (c < 0.0)
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    return np.where(pos, lo, np.where(neg, hi, 0.0))


def limited_slopes(values, dx, theta):
    """Limited slopes along axis -2.

    values: (..., n, d) cell averages; returns (..., n-2, d) slopes for the
    inner cells: minmod(theta*dl/dx, (dl+dr)/(2 dx), theta*dr/dx) with
    dl, dr the one-sided average differences.
    """
    dl = values[..., 1:-1, :] - values[..., :-2, :]
    dr = values[..., 2:, :] - values[..., 1:-1, :]
    return _minmod3(theta * dl, 0.5 * (dl + dr), theta * dr) / dx


def interface_values(lines, dx, theta):
    """One-sided interface values of the piecewise-linear reconstruction.

    lines: (L, n + 2*GHOST, d) cell averages with ghosts filled.
    Returns (U_minus, U_plus, half) where U_minus/U_plus have shape
    (L, n+1, d) covering interfaces 0..n, and half = (dx/2) * slope for the
    cells 1..n+2 (used by in-cell path increments).
    """
    half = 0.5 * dx * limited_slopes(lines, dx, theta)
    return edge_values(lines, half) + (half,)


def edge_values(lines, half):
    """(U_minus, U_plus) at interfaces 0..n from averages and half slopes.

    half covers the padded cells 1..n+2.  U_minus at interface f is the
    right edge of padded cell f+1 (half index f) and U_plus the left edge
    of padded cell f+2 (half index f+1).
    """
    u_minus = lines[:, GHOST - 1:-GHOST, :] + half[:, :-1, :]
    u_plus = lines[:, GHOST:-GHOST + 1, :] - half[:, 1:, :]
    return u_minus, u_plus


def drop_inadmissible_slopes(lines, half, admissible):
    """Zero the slope of every cell with an edge value outside the set.

    admissible maps states (..., d) to a boolean mask (...).  A cell whose
    slope is zeroed has its average on both edges, so the returned
    interface values are admissible wherever the cell averages are; the
    slopes of all other cells are left as they were.  Returns (U_minus,
    U_plus, half, number of cells whose slope was zeroed).
    """
    u_minus, u_plus = edge_values(lines, half)
    bad = np.zeros(half.shape[:-1], dtype=bool)
    bad[:, :-1] = ~admissible(u_minus)
    bad[:, 1:] |= ~admissible(u_plus)
    half = np.where(bad[..., None], 0.0, half)
    return edge_values(lines, half) + (half, int(np.count_nonzero(bad)))


def reconstruct_equilibrium(lines, model, direction, dx, theta, r_center, r_face):
    """Interface values via equilibrium-variable reconstruction.

    The equilibrium variables E are formed from cell averages (with the
    accumulated source integrals r_center), limited and evaluated at the
    interfaces, and inverted back to conservative states.  The modified
    states U_breve+- are recovered from a per-interface single-valued
    version of the inverse map, so they coincide whenever E+ = E-.

    Returns (U_minus, U_plus, U_breve_minus, U_breve_plus), each (L, n+1, d).
    """
    e_cells = model.equilibrium_values(lines, r_center, direction)
    half = 0.5 * dx * limited_slopes(e_cells, dx, theta)
    e_minus = e_cells[:, GHOST - 1:-GHOST, :] + half[:, :-1, :]
    e_plus = e_cells[:, GHOST:-GHOST + 1, :] - half[:, 1:, :]

    h_left = lines[:, GHOST - 1:-GHOST, 0]
    h_right = lines[:, GHOST:-GHOST + 1, 0]
    h_shared = 0.5 * (h_left + h_right)

    # Batch the four inversions (U-, U+, and the two breve recoveries) into
    # one call; the breve pair shares per-interface buoyancy (the mean of
    # slot 2 of E-, E+) and thickness guess so equal targets give
    # bitwise-equal states.
    b_shared = 0.5 * (e_minus[..., 2] + e_plus[..., 2])
    targets = np.concatenate([e_minus, e_plus, e_minus, e_plus], axis=0)
    r4 = np.concatenate([r_face] * 4, axis=0)
    guesses = np.concatenate([h_left, h_right, h_shared, h_shared], axis=0)
    overrides = np.concatenate([e_minus[..., 2], e_plus[..., 2],
                                b_shared, b_shared], axis=0)
    states = model.equilibrium_invert(targets, r4, guesses, direction,
                                      b_values=overrides)
    nl = lines.shape[0]
    u_minus, u_plus, ub_minus, ub_plus = (states[i * nl:(i + 1) * nl]
                                          for i in range(4))
    return u_minus, u_plus, ub_minus, ub_plus
