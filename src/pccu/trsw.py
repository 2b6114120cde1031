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
(Viete's trigonometric solution) with no iteration and no at-rest case.
"""

import numpy as np

from .errors import AdmissibilityError, ReconstructionError, check_admissible
from .fluxes import face_mean, ordered_speeds
from .grid import sweep_empty

H_MIN = 1e-10
RESIDUAL_TOL = 1e-12


def invert_momentum_flux(m, phi, b, guess):
    """Solve m^2/h + b h^2/2 = phi for h > 0, on the branch of the guess.

    All inputs broadcast to a common shape.  Times 2h/b this is the cubic
    h^3 - a h + 2 m^2/b = 0 with a = 2 phi/b: Viete's formula gives its
    upper (subcritical) root, deflation the lower one, in one closed-form
    pass over every value.  At m == 0 (or m^2 underflowing) Viete's root
    is sqrt(a), the at-rest thickness.
    """
    m, phi, b, guess = np.broadcast_arrays(
        np.asarray(m, float), np.asarray(phi, float),
        np.asarray(b, float), np.asarray(guess, float))
    if np.any(b <= 0.0):
        raise ReconstructionError("non-positive buoyancy at an interface")
    # each chain starts in an array of its own, so a single value (0-d)
    # continues in place as well
    m2 = np.square(m, out=np.empty_like(m))
    # h_up = 2 r cos(t), r = sqrt(a/3), cos(3t) = kappa.  kappa^2 is
    # 27 b m^4 / (8 phi^3), so kappa >= -1 is psi_min <= phi; phi <= 0
    # gives NaN or -inf, which fails it too, at rest as well.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.multiply(2.0, phi, out=np.empty_like(m))
        a /= b
        r = np.divide(a, 3.0, out=np.empty_like(m))
        np.sqrt(r, out=r)
        kappa = np.multiply(-1.5, m2, out=np.empty_like(m))
        kappa /= phi
        kappa /= r
    short = ~(kappa >= -1.0)
    if np.any(short):
        raise _below_critical(m, phi, b, np.flatnonzero(short))
    del short
    # cos(t) via tan(t/2): numpy's float64 tan is vectorised, its cos is not
    # (numpy 2.4 on AVX-512 x86: 67 against 370 us per 23k values).
    tau = np.arccos(kappa, out=kappa)
    tau /= 6.0
    np.tan(tau, out=tau)
    np.square(tau, out=tau)
    h = np.multiply(2.0, r, out=r)
    h *= np.subtract(1.0, tau)
    h /= np.add(1.0, tau, out=tau)
    del r, kappa, tau
    lower = b * guess * guess * guess < m2              # guess < h_crit
    if np.any(lower):
        # (sqrt(4a - 3 h_up^2) - h_up) / 2 without its cancellation
        hu = h[lower]
        h[lower] = 4.0 * m2[lower] / b[lower] / (
            hu * (hu + np.sqrt(4.0 * a[lower] - 3.0 * hu * hu)))
    del lower, a
    # a negative guess at m == 0 (an inadmissible average) takes the lower
    # root h = 0, whose residual is 0/0: a NaN fails the check as well
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.divide(m2, h, out=m2)                  # psi(h) - phi
        term = np.multiply(0.5, b)
        term *= h
        term *= h
        res += term
        res -= phi
        np.abs(res, out=res)
        res /= phi
    worst = np.max(res, initial=0.0)
    if not worst <= RESIDUAL_TOL:
        raise ReconstructionError(
            "thickness root inaccurate (relative residual %.3e)" % worst)
    return h


def _below_critical(m, phi, b, failed):
    """No-root error naming the failed count and the worst value of the
    flat indices failed; its where is that value's index into m."""
    mf, pf, bf = m.flat[failed], phi.flat[failed], b.flat[failed]
    psi_min = 1.5 * np.cbrt(bf * mf ** 4)
    k = int(np.argmax(psi_min - pf))
    return ReconstructionError(
        "no positive thickness root (momentum flux below critical) at %d "
        "of %d interface values; worst m=%.6g phi=%.6g b=%.6g psi_min=%.6g"
        % (failed.size, m.size, mf[k], pf[k], bf[k], psi_min[k]),
        where=np.unravel_index(failed[k], m.shape))


class ThermalShallowWater:
    """Model hooks for the finite-volume driver (1-D or 2-D)."""

    reconstruction = "equilibrium"
    d = 4

    def __init__(self, dimension, topography=None, f0=0.0, beta=0.0):
        if dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if dimension == 1 and (f0 != 0.0 or beta != 0.0):
            raise ValueError("Coriolis (f0, beta) needs a 2-D grid: in 1-D "
                             "no sweep carries the f*hv term on hu")
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
        check_admissible(self, state, where)

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
        """The distinct speeds (w - s, w, w + s), s = sqrt(h b), over the
        last axis; both material fields move with w."""
        ia, _ = self._indices(direction)
        hb = state[..., 3]
        # the bounds of admissible; NaN fails both
        if not (np.all(state[..., 0] > H_MIN) and np.all(hb > 0.0)):
            raise AdmissibilityError(
                "wave-speed evaluation needs h > H_MIN and h b > 0")
        w = state[..., ia] / state[..., 0]
        s = np.sqrt(hb)                     # sqrt(h b) from the hb slot
        return ordered_speeds(w, s)

    def lcd_matrices(self, cells, direction):
        """The acoustic pair of the eigensystem at the faces between
        consecutive cells, from the means of the two cells' h, w, t and b,
        as ((left, right, shared), columns): w the velocity along the sweep
        (slot ia), t the one across it (slot it), s = sqrt(b h).

        left and right are the (w - s) and (w + s) rows of R^-1, each a
        {slot: coef} map of the entries it has alone (slots 0 and ia);
        shared holds the 0.25 on hb that both rows have.  columns maps each
        row of R to its pair ((w - s) column, (w + s) column), coef None
        for 1."""
        ia, it = self._indices(direction)
        h = cells[..., 0]
        w, t, b = (np.divide(cells[..., j], h) for j in (ia, it, 3))
        h, w, t, b = (face_mean(a) for a in (h, w, t, b))
        if np.any(b <= 0.0) or np.any(h <= 0.0):
            raise AdmissibilityError(
                "characteristic decomposition needs h > 0 and b > 0")
        kap = np.divide(b, h)
        np.sqrt(kap, out=kap)
        s = np.multiply(b, h, out=h)
        np.sqrt(s, out=s)
        inv_b = np.divide(1.0, b)
        two_wk = np.multiply(2.0, w)
        two_wk *= kap
        left = {0: np.add(b, two_wk), ia: np.multiply(-0.5, kap)}
        right = {0: np.subtract(b, two_wk, out=two_wk),
                 ia: np.multiply(0.5, kap, out=kap)}
        left[0] *= 0.25
        right[0] *= 0.25
        t_b = np.multiply(t, inv_b, out=t)
        w_lo = np.subtract(w, s, out=b)
        w_lo *= inv_b
        w_hi = np.add(w, s, out=s)
        w_hi *= inv_b
        columns = {0: (inv_b, inv_b), ia: (w_lo, w_hi), it: (t_b, t_b),
                   3: (None, None)}
        return (left, right, {3: 0.25}), columns

    # ---- equilibrium reconstruction hooks --------------------------------

    def equilibrium_values(self, lines, r_center, direction):
        """E = (m, m^2/h + b h^2/2 + R, b, transverse velocity)."""
        ia, it = self._indices(direction)
        h = lines[..., 0]
        m = lines[..., ia]
        hb = lines[..., 3]
        out = np.empty_like(lines)
        out[..., 0] = m
        e2 = np.divide(m, h, out=out[..., 1])
        e2 *= m
        pressure = np.multiply(hb, 0.5, out=out[..., 2])   # b h^2/2 = hb h/2
        pressure *= h
        e2 += pressure
        e2 += r_center
        np.divide(hb, h, out=out[..., 2])
        np.divide(lines[..., it], h, out=out[..., 3])
        return out

    def equilibrium_invert(self, e_values, r_values, h_guess, direction):
        """Conservative states from equilibrium values at interfaces."""
        ia, it = self._indices(direction)
        m = e_values[..., 0]
        b = e_values[..., 2]
        phi = e_values[..., 1] - r_values
        h = invert_momentum_flux(m, phi, b, h_guess)
        del phi
        out = np.empty_like(e_values)
        out[..., 0] = h
        out[..., ia] = m
        np.multiply(h, e_values[..., 3], out=out[..., it])
        np.multiply(h, b, out=out[..., 3])
        return out

    # ---- source integrals -------------------------------------------------

    def source_geometry(self, geom):
        """(dz, f_lo, f_hi) of the lines of geom, None for a term this
        model lacks, formed once per run and direction (driver.line_geometry)
        for source_half_increments.  dz: half of each center-to-center jump
        of Z per padded face, the end faces repeating their neighbours,
        (L, n + 2g) or (1, n + 2g).  f_lo, f_hi: along x, -f(y) of each
        line, (L, 1), on both halves; along y, f at the midpoints of the
        two halves of each padded cell, (1, n + 2g)."""
        dz = f_lo = f_hi = None
        if self.topography is not None:
            z_c = self.topography(*geom.points)
            dz = 0.5 * np.diff(z_c, axis=-1)
            dz = np.concatenate([dz[..., :1], dz, dz[..., -1:]], axis=-1)
            # the lines innermost, as the sweep lays out the averages it
            # multiplies (grid.sweep_empty)
            dz = np.asfortranarray(dz)
        if self.f0 != 0.0 or self.beta != 0.0:
            y = geom.points[1]
            if geom.direction == "x":
                # +f h v: subtracting -f adds f exactly
                f_lo = f_hi = -self.coriolis(y)
            else:
                f_lo = self.coriolis(y - 0.25 * geom.dx)
                f_hi = self.coriolis(y + 0.25 * geom.dx)
        return dz, f_lo, f_hi

    def source_half_increments(self, lines, geom):
        """Half-cell integrals of the source terms, from cell averages and
        geom.sources (source_geometry).

        Topography: -<hb> dZ over each half cell, with Z sampled at cell
        centers and each face value the mean of its two center values (the
        end faces extrapolate linearly).  Then the two half cells next
        to a face add up to -<hb>_mean dZ across it, which balances the jump
        of b h^2/2 whenever h + Z and b are constant: the discrete lake at
        rest is exact.  Coriolis: along x the momentum source is +f(y) h v
        with f constant on the line; along y it is -f(y) h u integrated exactly
        for affine f (midpoint rule per half cell).  Returns (half_left,
        half_right) on the momentum row along the sweep: (L, n + 2g, 1),
        in the sweep's layout (grid.sweep_empty).
        """
        it = self._indices(geom.direction)[1]
        dz, f_lo, f_hi = geom.sources
        half = sweep_empty((2,), lines.shape[:-1] + (1,))
        half[...] = 0.0
        half_l, half_r = half
        if dz is not None:
            hb = lines[..., 3]
            half_l[..., 0] -= hb * dz[..., :-1]
            half_r[..., 0] -= hb * dz[..., 1:]
        if f_lo is not None:
            seg = 0.5 * geom.dx
            half_l[..., 0] -= lines[..., it] * f_lo * seg
            half_r[..., 0] -= lines[..., it] * f_hi * seg
        return half_l, half_r
