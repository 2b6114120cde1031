"""End-to-end acceptance gates.

One test per criterion; each prints a single `criterion N ...: PASS/FAIL`
line next to the measured numbers and enforces the stated tolerance and,
where bounded, the runtime.
"""

import json
import time

import numpy as np
import pytest

import pccu.cli as cli
from pccu.errors import AdmissibilityError, NumericalError, \
    ReconstructionError
from pccu.grid import Grid, Field, BoundaryCondition, init_from_function
from pccu.driver import RunConfig, run, spatial_rhs
from pccu.fluxes import local_speeds, split_weights, characteristic_flux, \
    central_upwind_flux
from pccu.multifluid import Multifluid, conservative_state, \
    material_coeffs
from pccu.trsw import ThermalShallowWater
from pccu.output import schlieren_shade
from pccu.catalog import make_config
from conftest import random_multifluid_states, random_trsw_states, \
    acoustic_pair_checks, dense_eigensystem, expand_fields, \
    extremal_weights, face_vectors, quasilinear_matrix
from test_golden import GOLDEN, REFERENCE

EPS0 = 1e-18


def _report(line, ok):
    print(f"{line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


# ---- 1. steady state preserved over a long run -----------------------------------

def test_criterion_01_well_balanced_long_run():
    worst = {}
    elapsed = 0.0
    for scheme in ("pccu", "lcd"):
        config = make_config("ex6", scheme=scheme, snapshots=(0.0,))
        report = run(config)
        elapsed += report.wall_time
        first, last = report.states[0], report.states[-1]
        worst[scheme] = max(np.abs(last[:, 0] - first[:, 0]).max(),
                            np.abs(last[:, 3] - first[:, 3]).max())
    ok = max(worst.values()) <= 1e-11 and elapsed < 10.0
    _report(f"criterion 1 (steady state to t=10, drift "
            f"pccu={worst['pccu']:.2e} lcd={worst['lcd']:.2e}, "
            f"{elapsed:.1f}s)", ok)


# ---- 2. steady spatial operator ----------------------------------------------------

def test_criterion_02_steady_rhs():
    config = make_config("ex6")
    worst = {}
    for scheme in ("pccu", "lcd"):
        fld = init_from_function(config.grid, config.model.d, config.ic)
        tend, _, _ = spatial_rhs(fld, config.model, config.bc, scheme,
                                 config.theta, config.eps0)
        worst[scheme] = np.abs(tend).max()
    ok = max(worst.values()) <= 1e-12
    _report(f"criterion 2 (steady tendency pccu={worst['pccu']:.2e} "
            f"lcd={worst['lcd']:.2e})", ok)


# ---- 3. eigensystem oracle suite ------------------------------------------------------

def test_criterion_03_eigensystem_oracles(rng):
    cases = [(Multifluid(1), "x", 1), (Multifluid(2), "x", 2),
             (Multifluid(2), "y", 2), (ThermalShallowWater(1), "x", None),
             (ThermalShallowWater(2), "x", None),
             (ThermalShallowWater(2), "y", None)]
    t0 = time.perf_counter()
    worst_diag = worst_inv = worst_spec = worst_proj = 0.0
    pair_same = True
    for model, direction, dim in cases:
        if dim is not None:
            left = random_multifluid_states(rng, 1000, dim)[None]
            right = random_multifluid_states(rng, 1000, dim)[None]
            prim_l, prim_r = model.primitives(left), model.primitives(right)
            hat = [0.5 * (a + b) for a, b in zip(prim_l, prim_r)]
            hat_state = conservative_state(*hat, dim)
        else:
            left = random_trsw_states(rng, 1000)[None]
            right = random_trsw_states(rng, 1000)[None]
            prim = lambda s: s / np.concatenate(
                [np.ones_like(s[..., :1]), s[..., :1], s[..., :1],
                 s[..., :1]], axis=-1)
            hat = 0.5 * (prim(left) + prim(right))
            hat_state = np.concatenate(
                [hat[..., :1], hat[..., :1] * hat[..., 1:]], axis=-1)
        r_mat, r_inv = dense_eigensystem(model, left, right, direction)
        speeds = model.eigenvalues(hat_state, direction)
        lam = expand_fields(speeds, model.d)
        a_mat = quasilinear_matrix(model, hat_state, direction)
        resid = np.einsum('...ij,...jk->...ik', a_mat, r_mat) \
            - r_mat * lam[..., None, :]
        worst_diag = max(worst_diag, np.abs(resid).max())
        eye = np.einsum('...ij,...jk->...ik', r_mat, r_inv)
        worst_inv = max(worst_inv,
                        np.abs(eye - np.eye(model.d)).max())
        # independent spectrum oracle
        spec = np.sort(np.real(np.linalg.eigvals(a_mat)), axis=-1)
        worst_spec = max(worst_spec,
                         np.abs(spec - np.sort(lam, axis=-1)).max())
        # the hook's acoustic pair against the oracle, and A P = w P
        same, proj = acoustic_pair_checks(model, left, right, direction,
                                          r_mat, r_inv, a_mat, speeds[..., 1])
        pair_same = pair_same and same
        worst_proj = max(worst_proj, proj)
    elapsed = time.perf_counter() - t0
    ok = worst_diag <= 1e-11 and worst_inv <= 1e-11 \
        and worst_spec <= 1e-9 and pair_same and worst_proj <= 1e-11 \
        and elapsed < 5.0
    _report(f"criterion 3 (diag {worst_diag:.2e}, inverse {worst_inv:.2e}, "
            f"spectrum {worst_spec:.2e}, hook pair "
            f"{'bitwise' if pair_same else 'differs'}, projector "
            f"{worst_proj:.2e}, {elapsed:.1f}s)", ok)


# ---- 4. weight identities and CU equivalence --------------------------------------------

def test_criterion_04_flux_identities(rng):
    model = Multifluid(1)
    left = random_multifluid_states(rng, 1000, 1)[None]
    right = random_multifluid_states(rng, 1000, 1)[None]
    lam = model.eigenvalues(np.stack([left, right]), "x")
    a_lo, a_hi = local_speeds(lam)

    p, m, q = split_weights(lam, a_lo, a_hi, EPS0)
    pm_err = np.abs(p + m - 1.0).max()
    pe, me, qe = extremal_weights(a_lo, a_hi, 3, EPS0)
    pm_err = max(pm_err, np.abs(pe + me - 1.0).max())

    vectors = face_vectors(model, left, right, "x")
    k_minus = model.flux(left, "x") + rng.normal(size=left.shape)
    k_plus = model.flux(right, "x") + rng.normal(size=left.shape)
    du = right - left
    via_lcd = characteristic_flux(vectors, pe, me, qe,
                                  k_minus, k_plus, du)
    classic = central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, EPS0)
    rel = np.abs(via_lcd - classic).max() / max(np.abs(classic).max(), 1.0)
    ok = pm_err <= 1e-15 and rel <= 1e-12
    _report(f"criterion 4 (|P+M-1| {pm_err:.2e}, CU equivalence {rel:.2e})",
            ok)


# ---- 5. conservation on a closed loop ---------------------------------------------------

def test_criterion_05_conservation_periodic_single_fluid():
    model = Multifluid(1)
    grid = Grid(0.0, 1.0, 50)

    def ic(x):
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        u = 0.5 + 0.1 * np.cos(2 * np.pi * x)
        return conservative_state(rho, u, 0.0, 1.0, 1.4, 0.0, 1)

    config = RunConfig(model=model, grid=grid,
                       bc=BoundaryCondition("periodic", "periodic"),
                       ic=ic, t_final=6.5)
    report = run(config)
    sums0 = np.asarray(report.conservation["initial"][:3])
    sums1 = np.asarray(report.conservation["final"][:3])
    drift = np.abs(sums1 - sums0) / np.abs(sums0)

    fld = Field(grid, 5)
    fld.interior[...] = conservative_state(1.0, 0.5, 0.0, 1.0, 1.4, 0.0, 1)
    tend, _, _ = spatial_rhs(fld, model, config.bc, "pccu", 1.3, EPS0)
    ok = report.steps >= 1000 and drift.max() <= 1e-12 \
        and np.all(tend == 0.0)
    _report(f"criterion 5 ({report.steps} steps, drift {drift.max():.2e}, "
            f"constant tendency {np.abs(tend).max():.1e})", ok)


# ---- 6. spatial order of accuracy ---------------------------------------------------------

def _entropy_wave_density(scheme, nx):
    model = Multifluid(1)
    grid = Grid(0.0, 1.0, nx)

    def ic(x):
        return conservative_state(1.0 + 0.2 * np.sin(2 * np.pi * x),
                                  1.0, 0.0, 1.0, 1.4, 0.0, 1)

    config = RunConfig(model=model, grid=grid,
                       bc=BoundaryCondition("periodic", "periodic"),
                       ic=ic, scheme=scheme, t_final=0.1)
    return run(config).states[-1][:, 0]


def test_criterion_06_second_order_convergence():
    t0 = time.perf_counter()
    rates = {}
    for scheme in ("pccu", "lcd"):
        rho = {n: _entropy_wave_density(scheme, n) for n in (100, 200, 400)}
        diffs = []
        for n in (100, 200):
            fine = rho[2 * n].reshape(n, 2).mean(axis=1)
            diffs.append(np.abs(fine - rho[n]).sum() / n)
        rates[scheme] = np.log2(diffs[0] / diffs[1])
    elapsed = time.perf_counter() - t0
    ok = min(rates.values()) >= 1.8 and elapsed < 30.0
    _report(f"criterion 6 (L1 self-convergence rate pccu={rates['pccu']:.2f} "
            f"lcd={rates['lcd']:.2f}, {elapsed:.1f}s)", ok)


def _trsw_1d_wave(n, scheme):
    def ic(x):
        h = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        u = 0.3 * np.sin(2 * np.pi * x)         # transverse
        v = 0.5 + 0.1 * np.cos(2 * np.pi * x)
        b = 1.0 + 0.1 * np.cos(2 * np.pi * x)
        return np.stack([h, h * u, h * v, h * b], axis=-1)

    return RunConfig(model=ThermalShallowWater(1), grid=Grid(0.0, 1.0, n),
                     bc=BoundaryCondition("periodic", "periodic"), ic=ic,
                     scheme=scheme, t_final=0.1)


def _multifluid_diagonal_wave(n, scheme):
    def ic(x, y):
        return conservative_state(1.0 + 0.2 * np.sin(2 * np.pi * (x + y)),
                                  1.0, 0.5, 1.0, 1.4, 0.0, 2)

    return RunConfig(model=Multifluid(2), grid=Grid(0.0, 1.0, n, 0.0, 1.0, n),
                     bc=BoundaryCondition(*["periodic"] * 4), ic=ic,
                     scheme=scheme, t_final=0.05)


def _rotating_trsw_2d(n, scheme):
    def ic(x, y):
        h = 1.0 + 0.1 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        b = 1.0 + 0.1 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return np.stack([h, 0.0 * h, 0.0 * h, h * b], axis=-1)

    return RunConfig(model=ThermalShallowWater(2, f0=1.0),
                     grid=Grid(0.0, 1.0, n, 0.0, 1.0, n),
                     bc=BoundaryCondition(*["periodic"] * 4), ic=ic,
                     scheme=scheme, t_final=0.05)


# (config of grid size and scheme, the three sizes, lowest rate); each
# bound was fixed below both schemes' measured rates, not fitted to these
# runs, which read 2.20/2.19, 1.93/1.94 and 1.94/2.01 (pccu/lcd)
ORDER_CASES = {
    "trsw-1d": (_trsw_1d_wave, (100, 200, 400), 2.0),
    "multifluid-2d": (_multifluid_diagonal_wave, (32, 64, 128), 1.8),
    "rotating-trsw-2d": (_rotating_trsw_2d, (32, 64, 128), 1.7)}


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("case", ORDER_CASES)
def test_criterion_06_second_order_beyond_1d_multifluid(case, scheme):
    # L1 self-convergence of the first component on the finest pair: each
    # solution against the cell means of the next finer one
    config_of, sizes, bound = ORDER_CASES[case]
    sols = [run(config_of(n, scheme)).states[-1][..., 0] for n in sizes]
    diffs = []
    for coarse, fine in zip(sols, sols[1:]):
        means = fine.reshape(sum(((k, 2) for k in coarse.shape), ())).mean(
            axis=tuple(range(1, 2 * coarse.ndim, 2)))
        diffs.append(np.abs(means - coarse).mean())
    rate = np.log2(diffs[0] / diffs[1])
    _report(f"criterion 6, {case} (L1 self-convergence rate {scheme}="
            f"{rate:.2f})", rate >= bound)


# ---- 7. sharper resolution of the characteristic variant ----------------------------------

def test_criterion_07_lcd_resolves_no_worse():
    """L1 density error of ex1 at nx=300 against the reference, ex1 at
    nx=3000 under pccu averaged onto the same cells.  The reference is
    stored in tests/golden.json (test_golden.REFERENCE); the ex1/pccu
    golden hash guards it: a scheme change fails that hash, and
    ``python tests/test_golden.py`` refreshes both."""
    t0 = time.perf_counter()
    ref_coarse = np.array(json.loads(GOLDEN.read_text(encoding="utf-8"))
                          [REFERENCE])
    errs = {}
    for scheme in ("pccu", "lcd"):
        rho = run(make_config("ex1", scheme=scheme,
                              snapshots=())).states[-1][:, 0]
        errs[scheme] = np.abs(rho - ref_coarse).sum() / 100.0
    elapsed = time.perf_counter() - t0
    ok = errs["lcd"] <= errs["pccu"] and elapsed < 300.0
    _report(f"criterion 7 (L1 density error pccu={errs['pccu']:.4e} "
            f"lcd={errs['lcd']:.4e}, {elapsed:.0f}s)", ok)


def _mixed_cells(scheme):
    """ex4 cells at 192x48, t=0.5, whose G lies 10-90% of the way from the
    air value to the bubble value."""
    config = make_config("ex4", nx=192, ny=48, t_final=0.5, snapshots=(),
                         scheme=scheme)
    g_coef = run(config).states[-1][..., config.model.ig]
    g_air = material_coeffs(1.4, 0.0)[0]
    g_bubble = material_coeffs(1.249, 0.0)[0]
    frac = (g_coef - g_air) / (g_bubble - g_air)
    return int(np.count_nonzero((frac > 0.1) & (frac < 0.9)))


def test_criterion_07_lcd_mixes_no_more_cells_in_2d():
    t0 = time.perf_counter()
    mixed = {scheme: _mixed_cells(scheme) for scheme in ("pccu", "lcd")}
    elapsed = time.perf_counter() - t0
    ok = mixed["lcd"] <= mixed["pccu"]
    _report(f"criterion 7, 2-D (ex4 mixed cells pccu={mixed['pccu']} "
            f"lcd={mixed['lcd']}, {elapsed:.1f}s)", ok)


# ---- 8. robustness runs ---------------------------------------------------------------------

ROBUSTNESS_LEGS = [
    ("ex2", {}),
    ("ex7", {}),
    ("ex9", dict(nx=50, ny=50, t_final=0.15)),
    ("ex10", dict(nx=225, ny=38, t_final=30.0)),
    # 2-D liquid-gas interface; lcd used to abort here near t = 0.003
    ("ex5", dict(nx=50, ny=30, t_final=0.006)),
]


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("name,overrides",
                         ROBUSTNESS_LEGS, ids=[l[0] for l in ROBUSTNESS_LEGS])
def test_criterion_08_robustness(name, overrides, scheme):
    label = f"criterion 8 ({name}/{scheme}"
    config = make_config(name, scheme=scheme, snapshots=(), **overrides)
    try:
        report = run(config)
    except (AdmissibilityError, NumericalError, ReconstructionError) as exc:
        print(f"{label}): FAIL — aborted: {exc}")
        pytest.fail(f"{name}/{scheme} did not complete: {exc}")
    final = report.states[-1]
    ok = bool(np.all(np.isfinite(final)))
    _report(f"{label}, {report.steps} steps, {report.wall_time:.1f}s)", ok)


# ---- 9. schlieren shading conformance ---------------------------------------------------------

def test_criterion_09_schlieren_conformance():
    nx, ny, dx, dy = 40, 30, 0.025, 0.03
    x = (np.arange(nx) + 0.5) * dx
    y = (np.arange(ny) + 0.5) * dy
    rho = np.exp(-((x[None, :] - 0.5) ** 2 + (y[:, None] - 0.45) ** 2)
                 / 0.03)
    gx = np.empty_like(rho)
    gx[:, 1:-1] = (rho[:, 2:] - rho[:, :-2]) / (2 * dx)
    gx[:, 0] = (rho[:, 1] - rho[:, 0]) / dx
    gx[:, -1] = (rho[:, -1] - rho[:, -2]) / dx
    gy = np.empty_like(rho)
    gy[1:-1, :] = (rho[2:, :] - rho[:-2, :]) / (2 * dy)
    gy[0, :] = (rho[1, :] - rho[0, :]) / dy
    gy[-1, :] = (rho[-1, :] - rho[-2, :]) / dy
    mag = np.hypot(gx, gy)
    expect = np.exp(-80.0 * mag / mag.max())
    gauss_err = np.abs(schlieren_shade(rho, dx, dy) - expect).max()

    # dyadic spacing and slope make the gradient bit-exact, so the shade
    # must be exactly the uniform floor value
    xd = (np.arange(16) + 0.5) * 0.25
    yd = (np.arange(12) + 0.5) * 0.5
    linear = 2.0 + 0.75 * xd[None, :] + 0.0 * yd[:, None]
    shade = schlieren_shade(linear, 0.25, 0.5)
    uniform = bool(np.all(shade == np.exp(-80.0)))
    ok = gauss_err <= 1e-14 and uniform
    _report(f"criterion 9 (gaussian {gauss_err:.2e}, linear exactly "
            f"uniform: {uniform})", ok)


# ---- 10. bit-identical reruns -------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli.main(["run", "ex6", "--nx", "50", "--tfinal", "1.0",
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].iterdir() if p.suffix == ".csv")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in csvs)
    ok = bool(csvs) and identical
    _report(f"criterion 10 ({len(csvs)} csv files bit-identical)", ok)
