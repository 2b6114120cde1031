"""Thermal (Ripa-type) rotating shallow water model.

State vector U = (h, q, p, hb) with q = h u, p = h v and b the buoyancy;
the pressure term is b h^2 / 2.  Bottom topography Z and the Coriolis
parameter f(y) = f0 + beta y enter through source terms; there are no
nonconservative products (B = 0), so the global flux is K = F - W with W
the running source integral.

The 1-D form drops the x dependence: the state keeps all four components
(q is then a passively advected transverse discharge) and the single sweep
direction behaves like the meridional one.

Reconstruction runs in equilibrium variables

    E = (m, m^2/h + b h^2/2 + R, b, transverse velocity)

with m the discharge along the sweep and R = -W_momentum, so lake-at-rest
and geostrophic-type steady states reconstruct exactly.  Recovering h from
(m, E2, b, R) needs the positive root of psi(h) = m^2/h + b h^2/2 = phi on
the monotone branch containing the guess (the cell average of h next to
the interface).  That is a root of a depressed cubic, taken in closed form
(Viete's trigonometric solution) and polished by one Newton step.
"""

import numpy as np

from .errors import AdmissibilityError, ReconstructionError
from .fluxes import apply_rows

H_MIN = 1e-10
RESIDUAL_TOL = 1e-12


def invert_momentum_flux(m, phi, b, guess):
    """Solve m^2/h + b h^2/2 = phi for h > 0, on the branch of the guess.

    All inputs broadcast to a common shape.  Times 2h/b this is the cubic
    h^3 - a h + 2 m^2/b = 0 with a = 2 phi/b: Viete's formula gives its
    upper (subcritical) root, deflation the lower one, and one Newton step
    polishes either.  Cells with m == 0.0 take h = sqrt(2 phi / b).
    """
    m, phi, b, guess = np.broadcast_arrays(
        np.asarray(m, float), np.asarray(phi, float),
        np.asarray(b, float), np.asarray(guess, float))
    if np.any(b <= 0.0):
        raise ReconstructionError("non-positive buoyancy at an interface")
    h = np.array(guess, dtype=np.float64, copy=True)

    # m*m == 0.0 also catches |m| small enough that m^2 underflows; the
    # kinetic term is then far below any resolvable thickness and the
    # at-rest closed form is the root of the relevant (upper) branch.
    m2_all = m * m
    still = m2_all == 0.0
    if np.any(still):
        phi0 = phi[still]
        if np.any(phi0 <= 0.0):
            raise ReconstructionError(
                "no positive thickness root (phi <= 0 at rest)")
        h[still] = np.sqrt(2.0 * phi0 / b[still])

    moving = ~still
    if not np.any(moving):
        return h
    bb = b[moving]
    ph = phi[moving]
    m2 = m2_all[moving]
    # h_up = 2 r cos(t), r = sqrt(a/3), cos(3t) = kappa.  kappa^2 is
    # 27 b m^4 / (8 phi^3), so kappa >= -1 is psi_min <= phi; phi <= 0
    # gives NaN or -inf, which fails it too.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 2.0 * ph / bb
        r = np.sqrt(a / 3.0)
        kappa = -1.5 * m2 / ph / r
    short = ~(kappa >= -1.0)
    if np.any(short):
        raise ReconstructionError(_below_critical(
            m[moving][short], ph[short], bb[short], m.size))
    # cos(t) via tan(t/2): numpy's float64 tan is vectorised, its cos is not
    # (numpy 2.4 on AVX-512 x86: 67 against 370 us per 23k values).
    tau = np.tan(np.arccos(kappa) / 6.0) ** 2
    hh = 2.0 * r * (1.0 - tau) / (1.0 + tau)
    gg = guess[moving]
    lower = bb * gg * gg * gg < m2              # guess < h_crit
    if np.any(lower):
        # (sqrt(4a - 3 h_up^2) - h_up) / 2 without its cancellation
        hu = hh[lower]
        hh[lower] = 4.0 * m2[lower] / bb[lower] / (
            hu * (hu + np.sqrt(4.0 * a[lower] - 3.0 * hu * hu)))
    res = m2 / hh + 0.5 * bb * hh * hh - ph
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        polished = hh - res / (bb * hh - m2 / (hh * hh))
        res_polished = m2 / polished + 0.5 * bb * polished * polished - ph
    # psi' ~ 0 next to the double root makes the step noise there: keep
    # it only where the residual does not grow.
    better = np.abs(res_polished) <= np.abs(res)
    hh = np.where(better, polished, hh)
    worst = np.max(np.where(better, np.abs(res_polished), np.abs(res)) / ph)
    if worst > RESIDUAL_TOL:
        raise ReconstructionError(
            "thickness root inaccurate (relative residual %.3e)" % worst)
    h[moving] = hh
    return h


def _below_critical(m, phi, b, total):
    """No-root message naming the failed count and the worst cell."""
    psi_min = 1.5 * np.cbrt(b * m ** 4)
    k = int(np.argmax(psi_min - phi))
    return ("no positive thickness root (momentum flux below critical) at %d "
            "of %d interface values; worst m=%.6g phi=%.6g b=%.6g "
            "psi_min=%.6g" % (m.size, total, m[k], phi[k], b[k], psi_min[k]))


class ThermalShallowWater:
    """Model hooks for the finite-volume driver (1-D or 2-D)."""

    reconstruction = "equilibrium"
    d = 4

    def __init__(self, dimension, topography=None, f0=0.0, beta=0.0):
        if dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        self.dimension = dimension
        self.topography = topography
        self.f0 = float(f0)
        self.beta = float(beta)

    def _indices(self, direction):
        """(along-sweep discharge slot, transverse discharge slot)."""
        if self.dimension == 1 or direction == "y":
            return 2, 1
        return 1, 2

    def momentum_index(self, direction):
        return self._indices(direction)[0]

    def coriolis(self, y):
        return self.f0 + self.beta * np.asarray(y, dtype=np.float64)

    def admissible(self, state):
        """Per-state mask of {h > H_MIN, h b > 0, finite components}."""
        return ((state[..., 0] > H_MIN) & (state[..., 3] > 0.0)
                & np.isfinite(state).all(axis=-1))

    def validate(self, state, where="state"):
        if np.all(self.admissible(state)):
            return
        if not np.all(np.isfinite(state)):
            raise AdmissibilityError("non-finite %s" % where)
        if np.any(state[..., 0] <= H_MIN):
            raise AdmissibilityError(
                "non-positive thickness in %s (min %.3e)"
                % (where, state[..., 0].min()))
        if np.any(state[..., 3] <= 0.0):
            raise AdmissibilityError("non-positive buoyancy in " + where)

    # ---- fluxes and eigenstructure --------------------------------------

    def flux(self, state, direction):
        ia, it = self._indices(direction)
        h = state[..., 0]
        m = state[..., ia]
        w = m / h
        out = np.empty_like(state)
        out[..., 0] = m
        out[..., ia] = m * w + 0.5 * state[..., 3] * h
        out[..., it] = state[..., it] * w
        out[..., 3] = state[..., 3] * w
        return out

    def eigenvalues(self, state, direction):
        ia, _ = self._indices(direction)
        hb = state[..., 3]
        if np.any(state[..., 0] <= 0.0) or np.any(hb < 0.0):
            raise AdmissibilityError(
                "wave-speed evaluation needs h > 0 and h b >= 0")
        w = state[..., ia] / state[..., 0]
        s = np.sqrt(hb)                     # sqrt(h b) from the hb slot
        return np.stack([w - s, w, w, w + s], axis=-1)

    def lcd_matrices(self, avg_left, avg_right, direction):
        """Face data (ia, it, h, w, t, b) of to_char/from_char: the means
        of the two adjacent cells' h, w, t and b, with w the velocity
        along the sweep (slot ia) and t the one across it (slot it)."""
        ia, it = self._indices(direction)

        def prim(avg):
            h = avg[..., 0]
            return h, avg[..., ia] / h, avg[..., it] / h, avg[..., 3] / h
        h, w, t, b = (0.5 * (lv + rv) for lv, rv in zip(prim(avg_left),
                                                         prim(avg_right)))
        if np.any(b <= 0.0) or np.any(h <= 0.0):
            raise AdmissibilityError(
                "characteristic decomposition needs h > 0 and b > 0")
        return ia, it, h, w, t, b

    def to_char(self, face, vec):
        """R^-1 vec over the last axis: the amplitudes of the (w - s) wave,
        the buoyancy and shear materials and the (w + s) wave, in that
        order, with s = sqrt(b h)."""
        ia, it, h, w, t, b = face
        kap = np.sqrt(b / h)
        inv_b = 1.0 / b
        rows = [{0: 0.25 * (b + 2.0 * w * kap), ia: -0.5 * kap, 3: 0.25},
                {0: -0.5 * b, 3: 0.5},
                {0: -0.5 * t, it: None, 3: -0.5 * t * inv_b},
                {0: 0.25 * (b - 2.0 * w * kap), ia: 0.5 * kap, 3: 0.25}]
        return apply_rows(rows, vec)

    def from_char(self, face, ch):
        """R ch over the last axis, for amplitudes ordered as to_char's."""
        ia, it, h, w, t, b = face
        s = np.sqrt(b * h)
        inv_b = 1.0 / b
        rows = [None] * 4
        rows[0] = {0: inv_b, 1: -inv_b, 3: inv_b}
        rows[ia] = {0: (w - s) * inv_b, 1: -w * inv_b, 3: (w + s) * inv_b}
        rows[it] = {0: t * inv_b, 2: None, 3: t * inv_b}
        rows[3] = {0: None, 1: None, 3: None}
        return apply_rows(rows, ch)

    def quasilinear_matrix(self, state, direction):
        ia, it = self._indices(direction)
        h = state[..., 0]
        w = state[..., ia] / h
        t = state[..., it] / h
        b = state[..., 3] / h
        mat = np.zeros(state.shape[:-1] + (4, 4))
        mat[..., 0, ia] = 1.0
        mat[..., ia, 0] = 0.5 * b * h - w * w
        mat[..., ia, ia] = 2.0 * w
        mat[..., ia, 3] = 0.5 * h
        mat[..., it, 0] = -w * t
        mat[..., it, ia] = t
        mat[..., it, it] = w
        mat[..., 3, 0] = -b * w
        mat[..., 3, ia] = b
        mat[..., 3, 3] = w
        return mat

    # ---- equilibrium reconstruction hooks --------------------------------

    def equilibrium_values(self, lines, r_center, direction):
        """E = (m, m^2/h + b h^2/2 + R, b, transverse velocity)."""
        ia, it = self._indices(direction)
        h = lines[..., 0]
        m = lines[..., ia]
        hb = lines[..., 3]
        out = np.empty_like(lines)
        out[..., 0] = m
        out[..., 1] = m * (m / h) + 0.5 * hb * h + r_center
        out[..., 2] = hb / h
        out[..., 3] = lines[..., it] / h
        return out

    def equilibrium_invert(self, e_values, r_values, h_guess, direction,
                           b_values=None):
        """Conservative states from equilibrium values at interfaces."""
        ia, it = self._indices(direction)
        m = e_values[..., 0]
        b = e_values[..., 2] if b_values is None else b_values
        phi = e_values[..., 1] - r_values
        h = invert_momentum_flux(m, phi, b, h_guess)
        out = np.empty_like(e_values)
        out[..., 0] = h
        out[..., ia] = m
        out[..., it] = h * e_values[..., 3]
        out[..., 3] = h * b
        return out

    # ---- source integrals -------------------------------------------------

    def source_half_increments(self, lines, geom):
        """Half-cell integrals of the source terms, from cell averages.

        Topography: -<hb> dZ over each half cell, with Z sampled at cell
        centers and each face value the mean of its two center values (the
        end faces extrapolate linearly).  Then the two half cells next to a
        face add up to -<hb>_mean dZ across it, which balances the jump of
        b h^2/2 whenever h + Z and b are constant: the discrete lake at rest
        is exact.  Coriolis: along x the momentum source is +f(y) h v with
        f constant on the line; along y it is -f(y) h u integrated exactly
        for affine f (midpoint rule per half cell).  Returns (half_left,
        half_right) of shape lines.shape.
        """
        ia, it = self._indices(geom.direction)
        half_l = np.zeros_like(lines)
        half_r = np.zeros_like(lines)
        centers = geom.coords
        if self.topography is not None:
            if self.dimension == 1:
                z_c = self.topography(centers)
            elif geom.direction == "x":
                z_c = self.topography(centers[None, :],
                                      geom.transverse[:, None])
            else:
                z_c = self.topography(geom.transverse[:, None],
                                      centers[None, :])
            # Half of each center-to-center jump, per face.
            dz = 0.5 * np.diff(z_c, axis=-1)
            dz = np.concatenate([dz[..., :1], dz, dz[..., -1:]], axis=-1)
            hb = lines[..., 3]
            half_l[..., ia] -= hb * dz[..., :-1]
            half_r[..., ia] -= hb * dz[..., 1:]
        if self.f0 != 0.0 or self.beta != 0.0:
            if geom.direction == "x":
                f_line = self.coriolis(geom.transverse)[:, None]
                seg = 0.5 * geom.dx
                half_l[..., ia] += lines[..., it] * f_line * seg
                half_r[..., ia] += lines[..., it] * f_line * seg
            else:
                seg = 0.5 * geom.dx
                f_lo = self.coriolis(centers - 0.25 * geom.dx)
                f_hi = self.coriolis(centers + 0.25 * geom.dx)
                half_l[..., ia] -= lines[..., it] * f_lo * seg
                half_r[..., ia] -= lines[..., it] * f_hi * seg
        return half_l, half_r
