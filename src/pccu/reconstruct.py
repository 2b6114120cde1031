"""Generalized-minmod piecewise-linear reconstruction.

Works on "stacked lines": arrays of shape (L, n + 2*GHOST, d) holding L
independent 1-D sweeps of n interior cells each.  Interface f = 0..n sits
between padded cells f+1 and f+2, so every interior cell has both of its
faces covered.
"""

import numpy as np

from .errors import ReconstructionError
from .grid import GHOST


def _minmod3(a, b, c):
    """minmod(a, b, c): the smallest argument when all three are positive,
    the largest when all are negative, +0.0 otherwise (a NaN too).

    fmax(lo, 0) + fmin(hi, 0) gives it in one sum; fmax and fmin may
    return -0.0 for a -0.0 argument, so adding +0.0 makes every zero
    result +0.0.  Only the two arrays formed here are written.
    """
    lo = np.minimum(a, b)
    np.minimum(lo, c, out=lo)
    hi = np.maximum(a, b)
    np.maximum(hi, c, out=hi)
    out = np.fmax(lo, 0.0, out=lo)
    out += np.fmin(hi, 0.0, out=hi)
    out += 0.0
    return out


def limited_half_slopes(values, theta):
    """Limited half slopes, (dx/2) * slope, along axis -2.

    values: (..., n, d) cell averages; returns (..., n-2, d) for the inner
    cells: minmod(theta/2 dl, (dl+dr)/4, theta/2 dr) with dl, dr the
    one-sided average differences (scaling by powers of two is exact).
    dl and dr are views of one difference array, scaled by theta/2 in
    place once (dl+dr)/4 is formed.
    """
    diff = values[..., 1:, :] - values[..., :-1, :]
    dl, dr = diff[..., :-1, :], diff[..., 1:, :]
    mid = dl + dr
    mid *= 0.25
    diff *= 0.5 * theta
    return _minmod3(dl, mid, dr)


def interface_values(lines, theta):
    """One-sided interface values of the piecewise-linear reconstruction.

    lines: (L, n + 2*GHOST, d) cell averages with ghosts filled.
    Returns (pair, half): pair holds U_minus and U_plus, (2, L, n+1, d)
    over interfaces 0..n (see edge_values), and half = (dx/2) * slope for
    the cells 1..n+2 (for drop_inadmissible_slopes).
    """
    half = limited_half_slopes(lines, theta)
    return edge_values(lines, half), half


def edge_values(lines, half, out=None):
    """(U_minus, U_plus) at interfaces 0..n from averages and half slopes,
    as one (2, L, n+1, d) array, component-major like the lines; out, if
    given, is that array.

    half covers the padded cells 1..n+2.  U_minus at interface f is the
    right edge of padded cell f+1 (half index f) and U_plus the left edge
    of padded cell f+2 (half index f+1).
    """
    nl, cells, d = half.shape
    pair = (np.empty((2, d, nl, cells - 1)).transpose(0, 2, 3, 1)
            if out is None else out)
    np.add(lines[:, GHOST - 1:-GHOST, :], half[:, :-1, :], out=pair[0])
    np.subtract(lines[:, GHOST:-GHOST + 1, :], half[:, 1:, :], out=pair[1])
    return pair


def drop_inadmissible_slopes(lines, half, admissible):
    """Zero the slope of every cell with an edge value outside the set.

    admissible maps states (..., d) to a boolean mask (...).  A cell whose
    slope is zeroed has its average on both edges, so the returned
    interface values are admissible wherever the cell averages are; the
    slopes of all other cells are left as they were.  Returns (pair, half,
    number of cells whose slope was zeroed), pair as from edge_values.
    """
    ok = admissible(edge_values(lines, half))
    bad = np.zeros(half.shape[:-1], dtype=bool)
    bad[:, :-1] = ~ok[0]
    bad[:, 1:] |= ~ok[1]
    half = np.where(bad[..., None], 0.0, half)
    return edge_values(lines, half), half, int(np.count_nonzero(bad))


def reconstruct_equilibrium(lines, model, direction, theta, r_center, r_face):
    """Interface values via equilibrium-variable reconstruction.

    The equilibrium variables E are formed from cell averages (with the
    accumulated source integrals r_center), limited and evaluated at the
    interfaces, and inverted back to conservative states.  The modified
    states U_breve+- are recovered from a per-interface single-valued
    version of the inverse map, so they coincide whenever E+ = E-.

    Returns one (4, L, n+1, d) array of U_minus, U_plus, U_breve_minus
    and U_breve_plus: its first two slabs are the pair of edge_values.
    """
    # Batch the four inversions (U-, U+, and the two breve recoveries) on
    # a leading axis of one call; the breve pair shares per-interface
    # buoyancy (the mean of slot 2 of E-, E+) and thickness guess so equal
    # targets give bitwise-equal states.  E's cell values and slopes are
    # freed before the inversion, the peak of the sweep.
    e_cells = model.equilibrium_values(lines, r_center, direction)
    half = limited_half_slopes(e_cells, theta)
    nl, faces = half.shape[0], half.shape[1] - 1
    targets = np.empty((4, e_cells.shape[-1], nl, faces)).transpose(0, 2, 3, 1)
    edge_values(e_cells, half, out=targets[:2])
    del e_cells, half
    targets[2:] = targets[:2]
    buoyancy = np.add(targets[0, ..., 2], targets[1, ..., 2],
                      out=targets[2, ..., 2])
    buoyancy *= 0.5
    targets[3, ..., 2] = buoyancy

    guesses = np.empty((4, nl, faces))
    guesses[0] = lines[:, GHOST - 1:-GHOST, 0]
    guesses[1] = lines[:, GHOST:-GHOST + 1, 0]
    shared = np.add(guesses[0], guesses[1], out=guesses[2])
    shared *= 0.5
    guesses[3] = shared
    try:
        return model.equilibrium_invert(targets, r_face, guesses, direction)
    except ReconstructionError as exc:
        if exc.where is None:
            raise
        part, line, face = exc.where
        raise ReconstructionError("%s; at %s of face %d on line %d" % (
            exc, ("U-", "U+", "U_breve-", "U_breve+")[part], face,
            line)) from exc
