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
from .fluxes import ordered_speeds

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
        """(rho, u, v, p, gamma, pi_inf); v is zeros in 1-D."""
        rho = state[..., 0]
        u = state[..., 1] / rho
        v = state[..., 2] / rho if self.dimension == 2 else np.zeros_like(u)
        g_coef = state[..., self.ig]
        p_coef = state[..., self.ip]
        kinetic = 0.5 * rho * (u * u + v * v)
        p = (state[..., self.ie] - kinetic - p_coef) / g_coef
        gamma = 1.0 / g_coef + 1.0
        pi_inf = p_coef / (g_coef + 1.0)
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
        mom = state[..., self.momentum_index(direction)]
        w = mom / rho
        g_coef = state[..., self.ig]
        p_coef = state[..., self.ip]
        if self.dimension == 2:
            kinetic = 0.5 * (state[..., 1] ** 2 + state[..., 2] ** 2) / rho
        else:
            kinetic = 0.5 * state[..., 1] ** 2 / rho
        p = (state[..., self.ie] - kinetic - p_coef) / g_coef
        out = np.empty_like(state)
        np.multiply(state[..., :self.ig], w[..., None], out=out[..., :self.ig])
        out[..., self.momentum_index(direction)] += p
        out[..., self.ie] += p * w
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
        """Sparse rows of R^-1 and of R at the faces between consecutive
        cells, as lists of {slot: coef} maps (coef None for 1), from the
        means of the two cells' primitives.

        The characteristic fields are the w - c wave, the contact, in 2-D
        the shear wave, the G and P material waves and the w + c wave, in
        that order (1-D has no shear slot); w is the velocity along the
        sweep (slot ia), t the one across it (slot it).  The acoustic rows
        of R^-1 are (X +- Y) / (2 c^2), X = (gamma - 1)(kin V0 - w Va -
        t Vt + Ve - p VG - VP), Y = c (w V0 - Va); the contact is
        V0 - X / c^2.
        """
        rho, u, v, p, gamma, pi_inf = (0.5 * (a[..., :-1] + a[..., 1:])
                                       for a in self.primitives(cells))
        csq = gamma * (p + pi_inf) / rho
        if np.any(csq <= 0.0) or not np.all(np.isfinite(csq)):
            raise AdmissibilityError(
                "characteristic decomposition needs p + pi_inf > 0")
        w, t = (u, v) if direction == "x" else (v, u)
        ia, it = self._indices(direction)
        ie, ig, ip = self.ie, self.ig, self.ip
        g = gamma - 1.0
        c = np.sqrt(csq)
        c2 = c * c
        inv2c2 = 0.5 / c2
        kin = 0.5 * (w * w + t * t)
        gi = g * inv2c2
        gp = g * p * inv2c2
        left = {0: (g * kin + w * c) * inv2c2, ia: (-c - g * w) * inv2c2,
                ie: gi, ig: -gp, ip: -gi}
        right = {**left, 0: (g * kin - w * c) * inv2c2,
                 ia: (c - g * w) * inv2c2}
        contact = {0: (2.0 * c2 - 2.0 * g * kin) * inv2c2,
                   ia: 2.0 * g * w * inv2c2, ie: -2.0 * gi, ig: 2.0 * gp,
                   ip: 2.0 * gi}
        shear = []
        if it is not None:
            gt = g * t * inv2c2
            left[it] = right[it] = -gt
            contact[it] = 2.0 * gt
            shear = [{0: -t, it: None}]
        materials = [{ig: None, ip: 1.0 / p}, {ip: -1.0 / p}]

        kr, kg, kp = self.d - 1, self.d - 3, self.d - 2
        enth = c2 / g + kin
        rows = [None] * self.d
        rows[0] = {0: None, 1: None, kr: None}
        rows[ia] = {0: w - c, 1: w, kr: w + c}
        rows[ie] = {0: enth - w * c, 1: kin, kg: p, kr: enth + w * c}
        rows[ig] = {kg: None, kp: None}
        rows[ip] = {kp: -p}
        if it is not None:
            rows[it] = {0: t, 1: t, 2: None, kr: t}
            rows[ie][2] = t
        return [left, contact] + shear + materials + [right], rows

    def quasilinear_matrix(self, state, direction):
        """Full Jacobian-plus-B matrix A of the quasilinear form."""
        rho, u, v, p, gamma, pi_inf = self.primitives(state)
        w, t = (u, v) if direction == "x" else (v, u)
        ia, it = self._indices(direction)
        ie, ig, ip = self.ie, self.ig, self.ip
        c2 = gamma * (p + pi_inf) / rho
        mat = np.zeros(state.shape[:-1] + (self.d, self.d))
        g1 = gamma - 1.0
        q2 = w * w + t * t
        mat[..., 0, ia] = 1.0
        mat[..., ia, 0] = 0.5 * (gamma - 3.0) * w * w + 0.5 * g1 * t * t
        mat[..., ia, ia] = (3.0 - gamma) * w
        mat[..., ia, ie] = g1
        mat[..., ia, ig] = -g1 * p
        mat[..., ia, ip] = -g1
        mat[..., ie, 0] = -w * c2 / g1 + (0.5 * gamma - 1.0) * w * q2
        mat[..., ie, ia] = c2 / g1 + (1.5 - gamma) * w * w + 0.5 * t * t
        mat[..., ie, ie] = gamma * w
        mat[..., ie, ig] = -g1 * p * w
        mat[..., ie, ip] = -g1 * w
        mat[..., ig, ig] = w
        mat[..., ip, ip] = w
        if it is not None:
            mat[..., ia, it] = -g1 * t
            mat[..., it, 0] = -w * t
            mat[..., it, ia] = t
            mat[..., it, it] = w
            mat[..., ie, it] = -g1 * w * t
        return mat
