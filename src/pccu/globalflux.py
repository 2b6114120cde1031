"""Path integrals of the nonconservative products and source terms.

The global flux K = F - W trades the nonconservative terms B u_xi + S for
the running integral W(xi) = int_anchor^xi (B u_xi' + S) dxi', accumulated
left to right along each sweep line with W = 0 at the left edge of the
padded line.  Only differences of W enter the scheme, so the anchor is
immaterial.

Two accumulation modes are provided:

* interleave_cell_halves: per-cell left/right half integrals (evaluated
  from cell averages) are chained to give single-valued values of W at
  every cell center and interface.  Used by the equilibrium-reconstruction
  path, where the same W must feed both the cell equilibrium variables and
  the interface inversions.

* interleave_jumps_cells: per-interface jump terms B(mid) (u+ - u-) and
  in-cell terms B(mid) (u-|f+1 - u+|f) across each interior cell, on the
  model's nonconservative rows only, are chained to give the two one-sided
  values W^-|f (left of the jump) and W^+|f (right of the jump) at every
  interface.  Used with conservative-variable reconstruction, where W may
  be double-valued at the interfaces.
"""

import numpy as np


def _chain(first, second):
    """Running sums along axis 1 of first[0], second[0], first[1], ...,
    taken in order in a component-major buffer."""
    nl, nf, k = first.shape
    inc = np.empty((k, nl, nf + second.shape[1]),
                   dtype=first.dtype).transpose(1, 2, 0)
    inc[:, 0::2, :] = first
    inc[:, 1::2, :] = second
    return np.cumsum(inc, axis=1)


def interleave_cell_halves(half_left, half_right):
    """Chain per-cell half integrals into center and interface values.

    half_left/half_right: (L, n + 2g, k) contributions of the left/right
    half of every padded cell, on the k rows the sources act on.  Returns
    (w_center, w_face) with w_center of shape (L, n + 2g, k) (value at
    each cell center) and w_face of shape (L, n+1, k) (single-valued W at
    interfaces 0..n, which sit to the right of padded cells 1..n+1).
    """
    cum = _chain(half_left, half_right)
    # the right face of padded cell i is sum 2i + 1
    return cum[:, 0::2, :], cum[:, 3:-4:2, :]


def interleave_jumps_cells(jump, cell):
    """Chain interface jumps and in-cell integrals into one-sided W.

    jump: (L, n+1, k) contribution of the jump at interfaces 0..n;
    cell: (L, n, k) in-cell contribution of interior cells (padded cells
    2..n+1, each sitting between two of the interfaces); k counts the
    model's nonconservative rows.  Returns (w_minus, w_plus), both
    (L, n+1, k) and component-major like the sweep's arrays: the values
    immediately left and right of each interface, with w_minus = 0 at
    interface 0.
    """
    cum = _chain(jump, cell)
    w_plus = cum[:, 0::2, :]
    w_minus = np.zeros_like(w_plus)
    w_minus[:, 1:, :] = cum[:, 1::2, :]
    return w_minus, w_plus
