"""Compressible two-fluid model with stiffened-gas closure.

State vector (1-D): U = (rho, rho u, E, G, P)
             (2-D): U = (rho, rho u, rho v, E, G, P)

where G = 1/(gamma - 1) and P = gamma pi_inf / (gamma - 1) carry the
material parameters through the flow.  Pressure recovers as

    p = (E - rho |u|^2 / 2 - P) / G

and the sound speed is c = sqrt(gamma (p + pi_inf) / rho).  G and P are
advected quantities: G_t + u G_x = 0, written in nonconservative form, and
likewise for P.  Everything else is a plain Euler flux.
"""

import numpy as np

from .errors import AdmissibilityError, check_admissible
from .fluxes import face_mean, ordered_speeds

RHO_MIN = 1e-12


def _inside(rho, g_coef, margin):
    """Admissibility mask from density, G and margin = p + pi_inf."""
    return ((rho > RHO_MIN) & (g_coef > 0.0)
            & (margin > 0.0) & (margin < np.inf))


def material_coeffs(gamma, pi_inf):
    """(G, P) pair encoding the stiffened-gas parameters."""
    g_coef = 1.0 / (gamma - 1.0)
    p_coef = gamma * pi_inf / (gamma - 1.0)
    return g_coef, p_coef


def conservative_state(rho, u, v, p, gamma, pi_inf, dimension):
    """Conservative state from primitive values (broadcasting)."""
    rho, u, v, p = np.broadcast_arrays(
        np.asarray(rho, float), np.asarray(u, float),
        np.asarray(v, float), np.asarray(p, float))
    gamma = np.broadcast_to(np.asarray(gamma, float), rho.shape)
    pi_inf = np.broadcast_to(np.asarray(pi_inf, float), rho.shape)
    g_coef, p_coef = material_coeffs(gamma, pi_inf)
    kinetic = 0.5 * rho * (u * u + (v * v if dimension == 2 else 0.0))
    energy = g_coef * p + p_coef + kinetic
    if dimension == 1:
        comps = [rho, rho * u, energy, g_coef, p_coef]
    else:
        comps = [rho, rho * u, rho * v, energy, g_coef, p_coef]
    return np.stack(comps, axis=-1)


class Multifluid:
    """Model hooks for the finite-volume driver (1-D or 2-D)."""

    reconstruction = "conservative"

    def __init__(self, dimension):
        if dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        self.dimension = dimension
        self.d = 5 if dimension == 1 else 6
        self.ie = self.d - 3          # energy slot
        self.ig = self.d - 2          # G slot
        self.ip = self.d - 1          # P slot
        self.noncons_rows = slice(self.ig, self.ip + 1)

    def momentum_index(self, direction):
        return 1 if direction == "x" else 2

    def _indices(self, direction):
        """(momentum slot along the sweep, slot across it or None in 1-D)."""
        ia = self.momentum_index(direction)
        return ia, None if self.dimension == 1 else 3 - ia

    # ---- thermodynamics -------------------------------------------------

    def primitives(self, state):
        """(rho, u, v, p, gamma, pi_inf); v is zeros in 1-D.

        In 1-D the kinetic energy drops the v terms: u^2 + 0 * 0 is u^2
        bitwise, u^2 being no -0.0.
        """
        rho = state[..., 0]
        # for a single state (d,) ufuncs return scalars; out= keeps arrays
        u = np.divide(state[..., 1], rho, out=np.empty_like(rho))
        kinetic = np.multiply(u, u, out=np.empty_like(u))
        scratch = np.empty_like(u)
        if self.dimension == 2:
            v = state[..., 2] / rho
            kinetic += np.multiply(v, v, out=scratch)
        else:
            v = np.zeros_like(u)
        kinetic *= np.multiply(rho, 0.5, out=scratch)
        p_coef = state[..., self.ip]
        g_coef = state[..., self.ig]
        p = np.subtract(state[..., self.ie], kinetic, out=kinetic)
        p -= p_coef
        p /= g_coef
        gamma = np.divide(1.0, g_coef, out=np.empty_like(u))
        gamma += 1.0
        pi_inf = np.add(g_coef, 1.0, out=scratch)
        np.divide(p_coef, pi_inf, out=pi_inf)
        return rho, u, v, p, gamma, pi_inf

    def admissible(self, state):
        """Per-state mask of {rho > RHO_MIN, G > 0, 0 < p + pi_inf < inf}.

        A non-finite component fails the pressure test, so the mask also
        rejects it.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho, _, _, p, _, pi_inf = self.primitives(state)
            return _inside(rho, state[..., self.ig], p + pi_inf)

    def validate(self, state, where="state"):
        check_admissible(self, state, where)

    # ---- fluxes and eigenstructure --------------------------------------

    def flux(self, state, direction):
        rho = state[..., 0]
        ia = self.momentum_index(direction)
        w = state[..., ia] / rho
        kinetic = np.square(state[..., 1], out=np.empty_like(rho))
        if self.dimension == 2:
            kinetic += np.square(state[..., 2])
        kinetic *= 0.5
        kinetic /= rho
        p = np.subtract(state[..., self.ie], kinetic, out=kinetic)
        p -= state[..., self.ip]
        p /= state[..., self.ig]
        out = np.empty_like(state)
        np.multiply(state[..., :self.ig], w[..., None], out=out[..., :self.ig])
        out[..., ia] += p
        out[..., self.ie] += np.multiply(p, w, out=p)
        out[..., self.noncons_rows] = 0.0
        return out

    def eigenvalues(self, state, direction):
        """The distinct speeds (w - c, w, w + c) over the last axis; every
        field between the two acoustic ones moves with w."""
        rho, u, v, p, gamma, pi_inf = self.primitives(state)
        w = u if direction == "x" else v
        margin = p + pi_inf
        if not np.all(_inside(rho, state[..., self.ig], margin)):
            raise AdmissibilityError(
                "wave-speed evaluation needs p + pi_inf > 0, rho > 0 and "
                "G > 0 (min p + pi_inf %.3e)" % float(margin.min()))
        c = np.sqrt(gamma * margin / rho)
        return ordered_speeds(w, c)

    def noncons_increment(self, state_a, state_b, direction):
        """Path increment of B u_xi across the segment from a to b, on the
        rows noncons_rows (G and P); B is zero on every other row.

        B has -u on the G and P rows, evaluated at the segment midpoint
        (velocity of the mean state), so the increment is
        (-u_mid dG, -u_mid dP), shape (..., 2).
        """
        ia = self.momentum_index(direction)
        u_mid = ((0.5 * (state_a[..., ia] + state_b[..., ia]))
                 / (0.5 * (state_a[..., 0] + state_b[..., 0])))
        rows = self.noncons_rows
        return -u_mid[..., None] * (state_b[..., rows] - state_a[..., rows])

    def lcd_matrices(self, cells, direction):
        """The acoustic pair of the eigensystem at the faces between
        consecutive cells, from the means of the two cells' primitives, as
        ((left, right, shared), columns).

        left and right are the w - c and w + c rows of R^-1, each a
        {slot: coef} map of the entries it has alone (slots 0 and ia);
        shared holds the entries both rows have (E, G, P and in 2-D the
        transverse slot it).  columns maps each row of R with acoustic
        entries to its pair (w - c column, w + c column), coef None for 1.
        w is the velocity along the sweep (slot ia), t the one across it.
        The rows are (X +- Y) / (2 c^2), X = (gamma - 1)(kin V0 - w Va -
        t Vt + Ve - p VG - VP), Y = c (w V0 - Va).  In 1-D the t terms are
        all zero and left out (w^2 + 0 * 0 is w^2 bitwise).
        """
        rho, u, v, p, gamma, pi_inf = self.primitives(cells)
        w, t = (u, v) if direction == "x" else (v, u)
        rho, w, p, gamma, pi_inf = (face_mean(a)
                                    for a in (rho, w, p, gamma, pi_inf))
        csq = np.add(p, pi_inf)
        csq *= gamma
        csq /= rho
        if np.any(csq <= 0.0) or not np.all(np.isfinite(csq)):
            raise AdmissibilityError(
                "characteristic decomposition needs p + pi_inf > 0")
        ia, it = self._indices(direction)
        g = np.subtract(gamma, 1.0, out=gamma)
        c = np.sqrt(csq, out=csq)
        c2 = np.multiply(c, c, out=pi_inf)
        kin = np.multiply(w, w)
        if it is not None:
            t = face_mean(t)
            kin += np.multiply(t, t, out=rho)
        kin *= 0.5
        enth = np.divide(c2, g)
        enth += kin
        inv2c2 = np.divide(0.5, c2, out=c2)
        wc = np.multiply(w, c)
        gw = np.multiply(g, w)
        gk = np.multiply(g, kin, out=kin)
        left = {0: np.add(gk, wc), ia: np.negative(c)}
        right = {0: np.subtract(gk, wc, out=gk), ia: np.subtract(c, gw)}
        left[ia] -= gw
        for row in (left, right):
            for coef in row.values():
                coef *= inv2c2
        gi = np.multiply(g, inv2c2)
        gp = np.multiply(g, p, out=p)
        gp *= inv2c2
        shared = {self.ie: gi, self.ig: np.negative(gp, out=gp),
                  self.ip: np.negative(gi)}
        columns = {0: (None, None),
                   ia: (np.subtract(w, c), np.add(w, c, out=c)),
                   self.ie: (np.subtract(enth, wc), np.add(enth, wc, out=wc))}
        if it is not None:
            gt = np.multiply(g, t, out=gw)
            gt *= inv2c2
            shared[it] = np.negative(gt, out=gt)
            columns[it] = (t, t)
        return (left, right, shared), columns
