"""Central-upwind interface fluxes, classical and characteristic-split.

All routines operate on stacked interface arrays of shape (L, nf, d):
L independent sweep lines, nf interfaces per line, d components.
"""

import numpy as np

from .grid import sweep_empty

# A field's fan counts as open when it is wider than SPLIT_TAU times the
# face's extremal fan (and than eps0): round-off in a speed at rest must not
# flip a field from the fallback to its one-sided weights.
SPLIT_TAU = 1e-12


def ordered_speeds(w, s):
    """The distinct speeds (w - s, w, w + s) of a model's fan over a new
    last axis, laid out like the sweep's components (grid.sweep_empty,
    with w's last two axes as lines and faces); w and s have the same
    shape, with any number of axes (none for a single state)."""
    shape = np.shape(w)
    lam = sweep_empty(shape[:-2], shape[-2:] + (3,))
    np.subtract(w, s, out=lam[..., 0])
    lam[..., 1] = w
    np.add(w, s, out=lam[..., 2])
    return lam


def face_mean(a):
    """0.5 (a_i + a_(i+1)) over the last axis, in a new array: the mean of
    each pair of neighbouring cells, at the face between them."""
    out = np.add(a[..., :-1], a[..., 1:])
    out *= 0.5
    return out


def local_speeds(lam):
    """The extremal one-sided speeds (a_lo, a_hi) of every face.

    lam: (2, L, nf, k) ordered distinct speeds at the left and right
    reconstructed interface states.  a_lo = min(lam_0^-, lam_0^+, 0) and
    a_hi = max(lam_k^-, lam_k^+, 0) come from the outermost fields only.
    """
    a_lo = np.minimum(np.minimum(lam[0, ..., 0], lam[1, ..., 0]), 0.0)
    a_hi = np.maximum(np.maximum(lam[0, ..., -1], lam[1, ..., -1]), 0.0)
    return a_lo, a_hi


def field_speeds(lam):
    """Fieldwise one-sided speeds (lam_lo, lam_hi) of the speed pair lam of
    local_speeds: lam_hi_i = max(lam_i^-, lam_i^+, 0) and lam_lo_i =
    min(lam_i^-, lam_i^+, 0), each (L, nf, k)."""
    lam_hi = np.maximum(np.maximum(lam[0], lam[1]), 0.0)
    lam_lo = np.minimum(np.minimum(lam[0], lam[1]), 0.0)
    return lam_lo, lam_hi


def split_weights(lam, a_lo, a_hi, eps0):
    """Per-field upwinding weights (P_i, M_i, Q_i) from the speed pair lam
    of local_speeds and its extremal speeds.

    For each characteristic field: if the local fan lam_hi_i - lam_lo_i
    (field_speeds) is wider than max(eps0, SPLIT_TAU * (a_hi - a_lo)), use
    the fieldwise central-upwind weights; otherwise fall back to the
    extremal speeds a_hi - a_lo; if those are no wider than eps0, use the
    unweighted average (1/2, 1/2, 0).  By construction P + M = 1 for
    every field.
    """
    lam_lo, lam_hi = field_speeds(lam)
    # the fallback weights belong to the face, not the field: form them
    # once per face and let them broadcast over the fields
    agap = a_hi - a_lo
    gap = lam_hi - lam_lo
    field_ok = gap > np.maximum(SPLIT_TAU * agap, eps0)[..., None]
    fallback = ~field_ok
    np.copyto(gap, 1.0, where=fallback)         # gap is now the safe gap
    glob_ok = agap > eps0
    np.copyto(agap, 1.0, where=~glob_ok)        # and agap the safe one
    p_g = np.where(glob_ok, a_hi / agap, 0.5)[..., None]
    m_g = np.where(glob_ok, -a_lo / agap, 0.5)[..., None]
    q_g = np.where(glob_ok, a_hi * a_lo / agap, 0.0)[..., None]
    q = np.multiply(lam_hi, lam_lo)
    q /= gap
    p = np.divide(lam_hi, gap, out=lam_hi)
    m = np.negative(lam_lo, out=lam_lo)
    m /= gap
    for weight, face_weight in ((p, p_g), (m, m_g), (q, q_g)):
        np.copyto(weight, face_weight, where=fallback)
    return p, m, q


def _times(coef, values, out):
    """coef * values in out, or values itself for a coef of None (1)."""
    return values if coef is None else np.multiply(coef, values, out=out)


def characteristic_flux(vectors, p, m, q, k_minus, k_plus, du):
    """Assemble the interface flux in characteristic variables.

    flux = R [ P * (R^-1 K^-) + M * (R^-1 K^+) + Q * (R^-1 (U_breve^+ - U_breve^-)) ]
    with the weights applied fieldwise.  p, m, q hold the weights of the
    distinct speeds, (L, nf, 3): the w - c wave, every middle field (they
    all move with w) and the w + c wave.  The middle fields share the
    weights P_w, M_w, Q_w, and sum_i r_i l_i = I, so

        flux = P_w K^- + M_w K^+ + Q_w du + sum_k r_k [(P_k - P_w) l_k K^-
               + (M_k - M_w) l_k K^+ + (Q_k - Q_w) l_k du]

    over the two acoustic fields k, with l_k their rows of R^-1 and r_k
    their columns of R from vectors = ((left, right, shared), columns), as
    model.lcd_matrices returns them.  Each projection l_k V sums the row's
    own entries, then the shared ones, in the maps' order; every shared
    product is formed once per vector V and serves both rows.
    """
    mid = 1                             # the middle speed, w
    flux = p[..., mid:mid + 1] * k_minus
    term = m[..., mid:mid + 1] * k_plus
    flux += term
    flux += np.multiply(q[..., mid:mid + 1], du, out=term)
    del term
    (left, right, shared), columns = vectors
    work = sweep_empty((4 + len(shared),), flux.shape[:-1])
    amps, (proj, scratch), shared_terms = work[:2], work[2:4], work[4:]
    for n, (weights, values) in enumerate(((p, k_minus), (m, k_plus),
                                           (q, du))):
        for term, (j, coef) in zip(shared_terms, shared.items()):
            np.multiply(coef, values[..., j], out=term)
        for amp, row, k in zip(amps, (left, right), (0, -1)):
            # the amplitude takes its first term in place, later ones via proj
            acc = proj if n else amp
            (j, coef), *rest = row.items()
            np.multiply(coef, values[..., j], out=acc)
            for j, coef in rest:
                acc += np.multiply(coef, values[..., j], out=scratch)
            for term in shared_terms:
                acc += term
            acc *= np.subtract(weights[..., k], weights[..., mid],
                               out=scratch)
            if n:
                amp += acc
    for i, (lo, hi) in columns.items():
        flux[..., i] += np.add(_times(lo, amps[0], proj),
                               _times(hi, amps[1], scratch), out=proj)
    return flux


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
    upwind = hi * k_minus
    term = lo * k_plus
    upwind -= term
    upwind /= safe
    coef = hi * lo
    coef /= safe
    upwind += np.multiply(coef, du, out=term)
    if not ok.all():
        average = np.add(k_minus, k_plus, out=term)
        average *= 0.5
        np.copyto(upwind, average, where=~ok[..., None])
    return upwind
