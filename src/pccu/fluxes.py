"""Central-upwind interface fluxes, classical and characteristic-split.

All routines operate on stacked interface arrays of shape (L, nf, d):
L independent sweep lines, nf interfaces per line, d components.
"""

import numpy as np


def local_speeds(lam_minus, lam_plus):
    """Fieldwise one-sided speeds and the extremal pair.

    lam_minus/lam_plus: (L, nf, d) eigenvalues at the left/right
    reconstructed interface states.  Returns (lam_lo, lam_hi, a_lo, a_hi)
    where lam_hi_i = max(lam_i^-, lam_i^+, 0), lam_lo_i = min(..., 0), and
    a_hi/a_lo are the largest/smallest fields (the eigenvalues are ordered).
    """
    lam_hi = np.maximum(np.maximum(lam_minus, lam_plus), 0.0)
    lam_lo = np.minimum(np.minimum(lam_minus, lam_plus), 0.0)
    return lam_lo, lam_hi, lam_lo[..., 0], lam_hi[..., -1]


def split_weights(lam_lo, lam_hi, a_lo, a_hi, eps0):
    """Per-field upwinding weights (P_i, M_i, Q_i).

    For each characteristic field: if the local fan lam_hi_i - lam_lo_i is
    wider than eps0, use the fieldwise central-upwind weights; otherwise
    fall back to the extremal speeds a_hi - a_lo; if those degenerate too,
    use the unweighted average (1/2, 1/2, 0).  By construction P + M = 1
    for every field.
    """
    gap = lam_hi - lam_lo
    field_ok = gap > eps0
    safe_gap = np.where(field_ok, gap, 1.0)
    # the fallback weights belong to the face, not the field: form them
    # once per face and let np.where broadcast them over the fields
    agap = a_hi - a_lo
    glob_ok = agap > eps0
    safe_agap = np.where(glob_ok, agap, 1.0)
    p_g = np.where(glob_ok, a_hi / safe_agap, 0.5)[..., None]
    m_g = np.where(glob_ok, -a_lo / safe_agap, 0.5)[..., None]
    q_g = np.where(glob_ok, a_hi * a_lo / safe_agap, 0.0)[..., None]
    p = np.where(field_ok, lam_hi / safe_gap, p_g)
    m = np.where(field_ok, -lam_lo / safe_gap, m_g)
    q = np.where(field_ok, lam_hi * lam_lo / safe_gap, q_g)
    return p, m, q


def extremal_weights(a_lo, a_hi, d, eps0):
    """Weights giving every field the extremal speeds a_lo/a_hi.

    Feeding these through characteristic_flux reproduces the classical
    central-upwind flux (the R / R^-1 factors cancel).
    """
    agap = a_hi - a_lo
    ok = (agap > eps0)[..., None]
    safe = np.where(ok, agap[..., None], 1.0)
    shape = a_hi.shape + (d,)
    p = np.broadcast_to(np.where(ok, a_hi[..., None] / safe, 0.5), shape)
    m = np.broadcast_to(np.where(ok, -a_lo[..., None] / safe, 0.5), shape)
    q = np.broadcast_to(np.where(ok, (a_hi * a_lo)[..., None] / safe, 0.0), shape)
    return p, m, q


def apply_rows(rows, vec):
    """Sparse matrix times vector over the last axis of `vec`.

    rows[i] maps slot j to the coefficient of vec[..., j] in out[..., i]
    (None for 1).  A row sums its even-j and its odd-j terms separately,
    then adds the two, as np.einsum does over a contiguous dense matrix:
    lcd at rest keeps the dense R and R^-1's exact zeros only in that
    order, and round-off there flips split_weights.
    """
    comps = np.ascontiguousarray(np.moveaxis(vec, -1, 0))
    out = np.empty(vec.shape[:-1] + (len(rows),))
    for i, row in enumerate(rows):
        lanes = [None, None]
        for j in sorted(row):
            term = comps[j] if row[j] is None else row[j] * comps[j]
            lane = lanes[j % 2]
            lanes[j % 2] = term if lane is None else lane + term
        even, odd = lanes
        out[..., i] = odd if even is None else (
            even if odd is None else even + odd)
    return out


def characteristic_flux(model, face, p, m, q, k_minus, k_plus, du):
    """Assemble the interface flux in characteristic variables.

    flux = R [ P * (R^-1 K^-) + M * (R^-1 K^+) + Q * (R^-1 (U_breve^+ - U_breve^-)) ]
    with the weights applied fieldwise; R^-1 and R are the model's
    to_char and from_char projections with the face data `face`.
    """
    ch = model.to_char(face, np.stack([k_minus, k_plus, du]))
    return model.from_char(face, p * ch[0] + m * ch[1] + q * ch[2])


def central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, eps0):
    """Classical central-upwind interface flux.

    (a_hi K^- - a_lo K^+) / (a_hi - a_lo) + a_hi a_lo / (a_hi - a_lo) * du,
    falling back to the plain average when the speeds degenerate.  Equals
    the characteristic assembly with all fields given the extremal weights.
    """
    agap = a_hi - a_lo
    ok = agap > eps0
    safe = np.where(ok, agap, 1.0)[..., None]
    hi = a_hi[..., None]
    lo = a_lo[..., None]
    upwind = (hi * k_minus - lo * k_plus) / safe + (hi * lo / safe) * du
    return np.where(ok[..., None], upwind, 0.5 * (k_minus + k_plus))
