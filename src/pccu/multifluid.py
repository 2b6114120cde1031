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

from .errors import AdmissibilityError

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

    def pressure(self, state):
        return self.primitives(state)[3]

    def sound_speed(self, state):
        rho, _, _, p, gamma, pi_inf = self.primitives(state)
        return np.sqrt(gamma * (p + pi_inf) / rho)

    def admissible(self, state):
        """Per-state mask of {rho > RHO_MIN, G > 0, 0 < p + pi_inf < inf}.

        A non-finite component fails the pressure test, so the mask also
        rejects it.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho, _, _, p, _, pi_inf = self.primitives(state)
            return _inside(rho, state[..., self.ig], p + pi_inf)

    def validate(self, state, where="state"):
        if np.all(self.admissible(state)):
            return
        if not np.all(np.isfinite(state)):
            raise AdmissibilityError("non-finite %s" % where)
        rho = state[..., 0]
        if np.any(rho <= RHO_MIN):
            raise AdmissibilityError(
                "non-positive density in %s (min %.3e)" % (where, rho.min()))
        if np.any(state[..., self.ig] <= 0.0):
            raise AdmissibilityError("non-positive G coefficient in " + where)
        _, _, _, p, _, pi_inf = self.primitives(state)
        raise AdmissibilityError(
            "non-positive or overflowing p + pi_inf in %s (min %.3e)"
            % (where, (p + pi_inf).min()))

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
        out = state * w[..., None]
        out[..., self.momentum_index(direction)] += p
        out[..., self.ie] += p * w
        out[..., self.ig] = 0.0
        out[..., self.ip] = 0.0
        return out

    def eigenvalues(self, state, direction):
        rho, u, v, p, gamma, pi_inf = self.primitives(state)
        w = u if direction == "x" else v
        margin = p + pi_inf
        if not np.all(_inside(rho, state[..., self.ig], margin)):
            raise AdmissibilityError(
                "wave-speed evaluation needs p + pi_inf > 0, rho > 0 and "
                "G > 0 (min p + pi_inf %.3e)" % float(margin.min()))
        c = np.sqrt(gamma * margin / rho)
        mids = [w] * (self.d - 2)
        return np.stack([w - c] + mids + [w + c], axis=-1)

    def noncons_increment(self, state_a, state_b, direction):
        """Path increment of B u_xi across the segment from a to b.

        B has -u on the G and P rows, evaluated at the segment midpoint
        (velocity of the mean state), so the increment is
        (-u_mid dG, -u_mid dP) on those rows and zero elsewhere.
        """
        mid = 0.5 * (state_a + state_b)
        u_mid = mid[..., self.momentum_index(direction)] / mid[..., 0]
        out = np.zeros_like(state_a)
        out[..., self.ig] = -u_mid * (state_b[..., self.ig] - state_a[..., self.ig])
        out[..., self.ip] = -u_mid * (state_b[..., self.ip] - state_a[..., self.ip])
        return out

    def _hatted(self, avg_left, avg_right, direction):
        """Means of the per-cell primitive values, velocities along the
        sweep and across it: (w, t, p, gamma, c); t is zero in 1-D."""
        prim_l = self.primitives(avg_left)
        prim_r = self.primitives(avg_right)
        rho, u, v, p, gamma, pi_inf = (0.5 * (a + b)
                                       for a, b in zip(prim_l, prim_r))
        csq = gamma * (p + pi_inf) / rho
        if np.any(csq <= 0.0) or not np.all(np.isfinite(csq)):
            raise AdmissibilityError(
                "characteristic decomposition needs p + pi_inf > 0")
        w, t = (u, v) if direction == "x" else (v, u)
        return w, t, p, gamma, np.sqrt(csq)

    def lcd_matrices(self, avg_left, avg_right, direction):
        """Eigenvector matrices (R, R^-1) and eigenvalues at the face.

        Inputs are the cell averages adjacent to each interface; shapes
        (..., d).  Returns (R, Rinv, lam) with matrix shapes (..., d, d).
        Columns of R: the w - c wave, the contact, in 2-D the shear wave,
        the G and P material waves, the w + c wave (w the velocity along
        the sweep).  1-D is 2-D with v = 0 and the shear slot left out.
        """
        w, t, p, gamma, c = self._hatted(avg_left, avg_right, direction)
        ia, it = self._indices(direction)
        ie, ig, ip = self.ie, self.ig, self.ip
        # characteristic slots: shear (2-D only), G and P materials, w + c
        ks, kg, kp, kr = 2, self.d - 3, self.d - 2, self.d - 1
        g = gamma - 1.0
        # one buffer for both: glibc's adaptive mmap threshold then settles
        # above the per-stage temporaries, which stop costing page faults
        r_mat, r_inv = np.zeros((2,) + w.shape + (self.d, self.d))
        c2 = c * c
        inv2c2 = 0.5 / c2
        kin = 0.5 * (w * w + t * t)
        enth = c2 / g + kin
        r_mat[..., 0, 0] = 1.0
        r_mat[..., 0, 1] = 1.0
        r_mat[..., 0, kr] = 1.0
        r_mat[..., ia, 0] = w - c
        r_mat[..., ia, 1] = w
        r_mat[..., ia, kr] = w + c
        r_mat[..., ie, 0] = enth - w * c
        r_mat[..., ie, 1] = kin
        r_mat[..., ie, kg] = p
        r_mat[..., ie, kr] = enth + w * c
        r_mat[..., ig, kg] = 1.0
        r_mat[..., ig, kp] = 1.0
        r_mat[..., ip, kp] = -p

        r_inv[..., 0, 0] = (g * kin + w * c) * inv2c2
        r_inv[..., 0, ia] = (-c - g * w) * inv2c2
        r_inv[..., 0, ie] = g * inv2c2
        r_inv[..., 0, ig] = -g * p * inv2c2
        r_inv[..., 0, ip] = -g * inv2c2
        r_inv[..., 1, 0] = (2.0 * c2 - 2.0 * g * kin) * inv2c2
        r_inv[..., 1, ia] = 2.0 * g * w * inv2c2
        r_inv[..., 1, ie] = -2.0 * g * inv2c2
        r_inv[..., 1, ig] = 2.0 * g * p * inv2c2
        r_inv[..., 1, ip] = 2.0 * g * inv2c2
        r_inv[..., kg, ig] = 1.0
        r_inv[..., kg, ip] = 1.0 / p
        r_inv[..., kp, ip] = -1.0 / p
        r_inv[..., kr, 0] = (g * kin - w * c) * inv2c2
        r_inv[..., kr, ia] = (c - g * w) * inv2c2
        r_inv[..., kr, ie] = g * inv2c2
        r_inv[..., kr, ig] = -g * p * inv2c2
        r_inv[..., kr, ip] = -g * inv2c2
        if it is not None:
            r_mat[..., it, 0] = t
            r_mat[..., it, 1] = t
            r_mat[..., it, ks] = 1.0
            r_mat[..., it, kr] = t
            r_mat[..., ie, ks] = t
            r_inv[..., 0, it] = -g * t * inv2c2
            r_inv[..., 1, it] = 2.0 * g * t * inv2c2
            r_inv[..., ks, 0] = -t
            r_inv[..., ks, it] = 1.0
            r_inv[..., kr, it] = -g * t * inv2c2

        mids = [w] * (self.d - 2)
        lam = np.stack([w - c] + mids + [w + c], axis=-1)
        return r_mat, r_inv, lam

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
