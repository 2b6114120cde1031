"""CFL step selection and the three-stage SSP Runge-Kutta update."""

import numpy as np
import pytest

from pccu.errors import AdmissibilityError, NumericalError
from pccu.timestepping import cfl_dt, ssprk3_step, finite_stage_check


def test_cfl_dt_1d_oracle():
    assert cfl_dt(2.0, 0.0, 0.1, None, 0.45) == pytest.approx(0.0225,
                                                              abs=1e-16)


def test_cfl_dt_2d_oracle():
    # 0.45 / (1/0.1 + 1/0.1) = 0.0225
    assert cfl_dt(1.0, 1.0, 0.1, 0.1, 0.45) == pytest.approx(0.0225,
                                                             abs=1e-16)


def test_cfl_dt_zero_speed_returns_inf():
    assert cfl_dt(0.0, 0.0, 0.1, 0.1, 0.45) == np.inf


def test_exponential_decay_cubic_taylor():
    # L(U) = -U, dt = 0.1: the scheme reproduces the cubic Taylor
    # polynomial of exp(-0.1) exactly: 1 - 0.1 + 0.005 - 1/6*0.001
    u = np.array([1.0])
    out = ssprk3_step(u, 0.1, lambda v: -v)
    assert out[0] == pytest.approx(0.9048333333333333, abs=5e-16)


def test_zero_rhs_is_identity():
    u = np.array([1.0, -2.0, 3.5])
    out = ssprk3_step(u, 0.7, lambda v: np.zeros_like(v))
    assert np.array_equal(out, u)


def test_third_order_self_convergence():
    # integrate u' = -u to t = 1 with n and 2n steps
    def solve(n):
        u = np.array([1.0])
        dt = 1.0 / n
        for _ in range(n):
            u = ssprk3_step(u, dt, lambda v: -v)
        return u[0]

    errs = [abs(solve(n) - np.exp(-1.0)) for n in (20, 40)]
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 2.9, f"observed order {rate:.3f}"


def test_stage_values_pin_shu_osher_coefficients():
    # probe the convex-combination structure: with rhs = 1 and u = 0 the
    # stages must hit dt * (1, 1/2, 1); with rhs = 0 and u = 1 each stage's
    # coefficients must sum to one
    seen = []
    ssprk3_step(np.array([0.0]), 1.0, lambda v: np.ones_like(v),
                stage_check=lambda cand, s: seen.append(cand[0]))
    assert seen == [1.0, 0.5, 1.0]
    seen.clear()
    ssprk3_step(np.array([1.0]), 1.0, lambda v: np.zeros_like(v),
                stage_check=lambda cand, s: seen.append(cand[0]))
    assert seen == [1.0, 1.0, 1.0]


def test_rhs0_reuse_matches_fresh_evaluation():
    rng = np.random.default_rng(5)
    u = rng.normal(size=8)
    rhs = lambda v: np.sin(v)
    a = ssprk3_step(u, 0.2, rhs)
    b = ssprk3_step(u, 0.2, rhs, rhs0=np.sin(u))
    assert np.array_equal(a, b)


def test_finite_stage_check_raises_with_stage_index():
    u = np.ones((4, 3))

    def blow_up(v):
        k = np.zeros_like(v)
        k[2, 1] = np.inf
        return k

    with pytest.raises(NumericalError) as info:
        ssprk3_step(u, 0.1, blow_up, stage_check=finite_stage_check(t=0.25))
    assert info.value.stage == 1
    assert info.value.t == 0.25
    assert info.value.where == (2,)         # the cell, not the component
    with pytest.raises(NumericalError) as info:
        ssprk3_step(u.reshape(2, 2, 3), 0.1, lambda v: np.full_like(v, np.nan),
                    stage_check=finite_stage_check(t=0.25))
    assert info.value.where == (0, 0)


def test_tendency_error_names_its_stage():
    calls = []

    def rhs(v, stage=None):
        calls.append(v)
        if len(calls) == 2:
            raise AdmissibilityError("no wave speed", stage=stage)
        return -v

    # raised by the second call, the second stage's tendency
    with pytest.raises(AdmissibilityError) as info:
        ssprk3_step(np.ones(3), 0.1, rhs)
    assert info.value.stage == 2
    # a stage the error already carries is kept
    calls.clear()
    with pytest.raises(AdmissibilityError) as info:
        ssprk3_step(np.ones(3), 0.1, lambda v: rhs(v, stage=3))
    assert info.value.stage == 3
