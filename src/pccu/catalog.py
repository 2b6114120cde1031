"""Built-in problem setups and config-dict handling.

Each catalog entry is a config dict in the config-file schema, recording
the published setup of a benchmark run: domain, default grid, final time,
boundary conditions, initial data, topography and rotation where present,
and which output products to emit.  Initial data are described by ordered
region lists; the first matching region wins and the last entry is the
fallback, so unions can be expressed by ordering.
"""

import sys

import numpy as np

from .driver import RunConfig
from .errors import ConfigError
from .grid import Grid, BoundaryCondition
from .multifluid import Multifluid, conservative_state
from .output import check_outputs
from .trsw import ThermalShallowWater


# ---- region geometry -------------------------------------------------------

def _region_mask(where, x, y):
    kind = where["kind"]
    if kind in ("disk", "annulus"):
        cx, cy = where["center"]
        rr = (x - cx) ** 2 + ((y - cy) ** 2 if y is not None else 0.0)
        if kind == "disk":
            return rr < where["radius"] ** 2
        return (where["r_min"] ** 2 < rr) & (rr < where["r_max"] ** 2)
    if kind == "halfplane":
        coord = x if where["axis"] == "x" else y
        if where["op"] == "<":
            return coord < where["value"]
        if where["op"] == ">":
            return coord > where["value"]
        raise ConfigError(f"halfplane op must be '<' or '>', got {where['op']!r}")
    if kind == "band":
        coord = x if where["axis"] == "x" else y
        return (coord >= where["min"]) & (coord <= where["max"])
    raise ConfigError(f"unknown region kind {where!r}")


# keys a region's "where" needs, per kind
_WHERE_KEYS = {"disk": ("center", "radius"),
               "annulus": ("center", "r_min", "r_max"),
               "halfplane": ("axis", "op", "value"),
               "band": ("axis", "min", "max")}


def _check_regions(regions, state_keys, dimension):
    """ConfigError for a region list piecewise_*_ic could not evaluate.

    state_keys names the keys each region state needs; a tuple among them
    is a choice of one.  State values and the sizes in "where" must be
    finite numbers, a center a pair of them and an axis one of the grid's.
    """
    if not isinstance(regions, list) or not regions:
        raise ConfigError("'regions' must be a non-empty list")
    for i, region in enumerate(regions):
        state = region.get("state") if isinstance(region, dict) else None
        if not isinstance(state, dict):
            raise ConfigError(f"region {i} needs a 'state' object")
        for key in state_keys:
            choice = key if isinstance(key, tuple) else (key,)
            if not any(k in state for k in choice):
                raise ConfigError(f"region {i} state misses "
                                  f"{' or '.join(map(repr, choice))}")
        for key, value in state.items():
            if not _is_number(value):
                raise ConfigError(f"region {i} state {key!r} is not a "
                                  f"number: {value!r}")
        if "where" not in region:
            continue
        where = region["where"]
        kind = where.get("kind") if isinstance(where, dict) else None
        if not isinstance(kind, str) or kind not in _WHERE_KEYS:
            raise ConfigError(f"unknown region kind {where!r}")
        for key in _WHERE_KEYS[kind]:
            if key not in where:
                raise ConfigError(f"region {i} ({kind}) misses {key!r}")
            value = where[key]
            ok = {"axis": value in ("x", "y")[:dimension],
                  "op": value in ("<", ">"),
                  "center": isinstance(value, (list, tuple))
                  and len(value) == 2 and all(map(_is_number, value)),
                  }.get(key, _is_number(value))
            if not ok:
                raise ConfigError(f"region {i} ({kind}) has a bad {key!r}: "
                                  f"{value!r}")


def _piecewise_ic(regions, region_state):
    """IC callable taking at each point the state of the first region that
    holds it; region_state(state, x, y) gives a region's (..., d) state."""
    if any("where" not in r for r in regions[:-1]):
        raise ConfigError("only the last region may omit 'where'")

    def ic(x, y=None):
        masks = [np.broadcast_to(_region_mask(r["where"], x, y), x.shape)
                 if "where" in r else np.ones(x.shape, dtype=bool)
                 for r in regions]
        states = [region_state(r["state"], x, y) for r in regions]
        out = np.empty(x.shape + states[0].shape[-1:])
        for c in range(out.shape[-1]):
            out[..., c] = np.select(masks, [np.broadcast_to(s[..., c], x.shape)
                                            for s in states])
        return out
    return ic


def piecewise_multifluid_ic(regions, dimension):
    """IC callable from ordered (where, primitive-state) regions."""
    return _piecewise_ic(regions, lambda st, x, y: conservative_state(
        st["rho"], st.get("u", 0.0), st.get("v", 0.0), st["p"], st["gamma"],
        st.get("pi_inf", 0.0), dimension))


def piecewise_trsw_ic(regions, topography=None):
    """IC callable for (h | surface, u, v, b) region states.

    A region given as {"surface": w} sets h = w - Z so initial data can sit
    on a constant water surface over nonflat topography.
    """
    def region_state(st, x, y):
        if "surface" in st:
            z = 0.0 if topography is None else (
                topography(x) if y is None else topography(x, y))
            h = st["surface"] - z
        else:
            h = float(st["h"])
        u, v, b = st.get("u", 0.0), st.get("v", 0.0), st["b"]
        return np.stack(np.broadcast_arrays(h, h * u, h * v, h * b), axis=-1)
    return _piecewise_ic(regions, region_state)


# ---- topography and rotation ------------------------------------------------

def _topo_two_bumps_1d(x):
    left = np.cos(10.0 * np.pi * (x + 0.3)) + 1.0
    right = 0.5 * (np.cos(10.0 * np.pi * (x - 0.3)) + 1.0)
    return np.where((x >= -0.4) & (x <= -0.2), left,
                    np.where((x >= 0.2) & (x <= 0.4), right, 0.0))


def _topo_two_gaussians_2d(x, y):
    left = 0.5 * np.exp(-100.0 * ((x + 0.5) ** 2 + (y + 0.5) ** 2))
    right = 0.6 * np.exp(-100.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    return np.where(x < 0.0, left, right)


TOPOGRAPHIES = {
    "flat": None,
    "two_bumps_1d": _topo_two_bumps_1d,
    "two_gaussians_2d": _topo_two_gaussians_2d,
}


# ---- the catalog ------------------------------------------------------------

_MF_EX1_REGIONS = [
    {"where": {"kind": "band", "axis": "x", "min": -0.25, "max": 0.25},
     "state": {"rho": 13.1538, "u": 0.0, "p": 1.0, "gamma": 5.0 / 3.0,
               "pi_inf": 0.0}},
    {"where": {"kind": "halfplane", "axis": "x", "op": ">", "value": 0.75},
     "state": {"rho": 1.3333, "u": -0.3535, "p": 1.5, "gamma": 1.4,
               "pi_inf": 0.0}},
    {"state": {"rho": 1.0, "u": 0.0, "p": 1.0, "gamma": 1.4, "pi_inf": 0.0}},
]

_MF_EX2_REGIONS = [
    {"where": {"kind": "band", "axis": "x", "min": 3.0, "max": 9.0},
     "state": {"rho": 0.05, "u": 0.0, "p": 1.0, "gamma": 1.4, "pi_inf": 0.0}},
    {"where": {"kind": "halfplane", "axis": "x", "op": ">", "value": 11.4},
     "state": {"rho": 1.325, "u": -68.525, "p": 19153.0, "gamma": 4.4,
               "pi_inf": 6000.0}},
    {"state": {"rho": 1.0, "u": 0.0, "p": 1.0, "gamma": 4.4, "pi_inf": 6000.0}},
]

_MF_SHOCK_BUBBLE_2D = [
    # bubble (region A) is filled in per example
    {"where": {"kind": "halfplane", "axis": "x", "op": ">", "value": 0.75},
     "state": {"rho": 4.0 / 3.0, "u": -0.3535, "v": 0.0, "p": 1.5,
               "gamma": 1.4, "pi_inf": 0.0}},
    {"state": {"rho": 1.0, "u": 0.0, "v": 0.0, "p": 1.0, "gamma": 1.4,
               "pi_inf": 0.0}},
]


def _bubble_regions(rho_a, gamma_a):
    bubble = {"where": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.25},
              "state": {"rho": rho_a, "u": 0.0, "v": 0.0, "p": 1.0,
                        "gamma": gamma_a, "pi_inf": 0.0}}
    return [bubble] + list(_MF_SHOCK_BUBBLE_2D)


_MF_EX5_REGIONS = [
    {"where": {"kind": "disk", "center": [5.0, 2.0], "radius": 1.0},
     "state": {"rho": 1.27, "u": 0.0, "v": 0.0, "p": 8290.0, "gamma": 2.0,
               "pi_inf": 0.0}},
    {"where": {"kind": "halfplane", "axis": "y", "op": ">", "value": 4.0},
     "state": {"rho": 0.02, "u": 0.0, "v": 0.0, "p": 1.0, "gamma": 1.4,
               "pi_inf": 0.0}},
    {"state": {"rho": 1.0, "u": 0.0, "v": 0.0, "p": 1.0, "gamma": 7.15,
               "pi_inf": 3309.0}},
]

_TRSW_EX6_REGIONS = [
    {"where": {"kind": "halfplane", "axis": "x", "op": "<", "value": 0.0},
     "state": {"h": 2.0, "v": 0.0, "b": 1.0}},
    {"state": {"h": 1.0, "v": 0.0, "b": 4.0}},
]

_TRSW_EX7_REGIONS = [
    {"where": {"kind": "halfplane", "axis": "x", "op": "<", "value": 0.0},
     "state": {"surface": 5.0, "v": 0.0, "b": 1.0}},
    {"state": {"surface": 2.0, "v": 0.0, "b": 5.0}},
]

_TRSW_EX8_REGIONS = [
    {"where": {"kind": "annulus", "center": [0.0, 0.0], "r_min": 0.1,
               "r_max": 0.3},
     "state": {"surface": 3.1, "b": 4.0 / 3.0}},
    {"where": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.5},
     "state": {"surface": 3.0, "b": 4.0 / 3.0}},
    {"state": {"surface": 2.0, "b": 3.0}},
]

_TRSW_EX9_REGIONS = [
    {"where": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.5},
     "state": {"h": 1.5, "b": 1.0}},
    {"state": {"h": 1.2, "b": 1.5}},
]


def _ex6p_ic():
    base = piecewise_trsw_ic(_TRSW_EX6_REGIONS)

    def ic(x):
        out = base(x)
        bump = (x >= -1.8) & (x <= -1.7)
        b = out[..., 3] / out[..., 0]
        out[..., 0] = np.where(bump, out[..., 0] + 0.1, out[..., 0])
        out[..., 3] = out[..., 0] * b
        return out
    return ic


def _ex10_ic():
    def ic(x, y):
        h = np.ones_like(x)
        b = 1.0 + 0.5 * np.exp(-(x * x / 50.0 + y * y / 2.0))
        out = np.zeros(x.shape + (4,))
        out[..., 0] = h
        out[..., 3] = h * b
        return out
    return ic


# Entries are config dicts in the config-file schema, plus a "note".
EXAMPLES = {
    "ex1": dict(
        model="multifluid", dimension=1, domain=[-1.0, 2.0], nx=300,
        t_final=3.0, bc="solid_wall", ic={"regions": _MF_EX1_REGIONS},
        outputs=["csv"],
        note="shock hitting a resting bubble, solid walls"),
    "ex2": dict(
        model="multifluid", dimension=1, domain=[0.0, 18.0], nx=180,
        t_final=0.045, bc="free", ic={"regions": _MF_EX2_REGIONS},
        outputs=["csv"],
        note="water-air shock-bubble interaction, stiff liquid EOS"),
    "ex3": dict(
        model="multifluid", dimension=2, domain=[-3.0, 1.0, -0.5, 0.5],
        nx=2000, ny=500, t_final=3.0,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "solid_wall"},
        ic={"regions": _bubble_regions(4.0 / 29.0, 5.0 / 3.0)},
        snapshots=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        outputs=["csv", "schlieren"],
        note="shock hitting a light (helium-like) cylindrical bubble"),
    "ex4": dict(
        model="multifluid", dimension=2, domain=[-3.0, 1.0, -0.5, 0.5],
        nx=2000, ny=500, t_final=3.0,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "solid_wall"},
        ic={"regions": _bubble_regions(3.1538, 1.249)},
        snapshots=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        outputs=["csv", "schlieren"],
        note="shock hitting a heavy (R22-like) cylindrical bubble"),
    "ex5": dict(
        model="multifluid", dimension=2, domain=[0.0, 10.0, 0.0, 6.0],
        nx=800, ny=480, t_final=0.02,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "free"},
        ic={"regions": _MF_EX5_REGIONS},
        outputs=["csv", "schlieren"],
        note="cylindrical explosion under an air-water interface"),
    "ex6": dict(
        model="trsw", dimension=1, domain=[-5.0, 5.0], nx=200,
        t_final=10.0, bc="free", ic={"regions": _TRSW_EX6_REGIONS},
        outputs=["csv"],
        note="constant-pressure equilibrium with a buoyancy jump"),
    "ex6p": dict(
        model="trsw", dimension=1, domain=[-5.0, 5.0], nx=200,
        t_final=1.6, bc="free", ic="ex6p",
        snapshots=[1.2, 1.6], outputs=["csv"],
        note="small thickness bump on the ex6 equilibrium"),
    "ex7": dict(
        model="trsw", dimension=1, domain=[-1.0, 1.0], nx=200,
        t_final=0.2, bc="free", ic={"regions": _TRSW_EX7_REGIONS},
        topography="two_bumps_1d", snapshots=[0.1, 0.2], outputs=["csv"],
        note="dam break over two bottom bumps"),
    "ex8": dict(
        model="trsw", dimension=2, domain=[-1.0, 1.0, -1.0, 1.0],
        nx=100, ny=100, t_final=0.12, bc="free",
        ic={"regions": _TRSW_EX8_REGIONS}, topography="two_gaussians_2d",
        outputs=["csv", "slice_diag"],
        note="ring perturbation of a lake at rest over two bumps"),
    "ex9": dict(
        model="trsw", dimension=2, domain=[-1.0, 1.0, -1.0, 1.0],
        nx=100, ny=100, t_final=0.15, bc="free",
        ic={"regions": _TRSW_EX9_REGIONS}, outputs=["csv", "slice_diag"],
        note="circular dam break with a buoyancy contrast"),
    "ex10": dict(
        model="trsw", dimension=2, domain=[-40.0, 80.0, -10.0, 10.0],
        nx=900, ny=150, t_final=120.0, bc="free", ic="ex10",
        f0=0.0, beta=1.0, snapshots=[30.0, 60.0, 90.0, 120.0],
        outputs=["csv", "slice_y0"],
        note="relaxation of a buoyancy anomaly on the equatorial beta-plane"),
}


def example_names():
    return sorted(EXAMPLES)


# initial data that regions cannot express, by "ic" id
IC_FACTORIES = {"ex6p": _ex6p_ic, "ex10": _ex10_ic}


def make_config(name, scheme="pccu", nx=None, ny=None, theta=None, cfl=None,
                t_final=None, snapshots=None, refine=None):
    """RunConfig for a catalog example, with optional overrides."""
    if name not in EXAMPLES:
        raise ConfigError(f"unknown example {name!r} "
                          f"(available: {', '.join(example_names())})")
    return config_from_dict(
        {**EXAMPLES[name], "label": name}, scheme=scheme, nx=nx, ny=ny,
        theta=theta, cfl=cfl, t_final=t_final, snapshots=snapshots,
        refine=refine)


# ---- config dicts ----------------------------------------------------------

def _is_number(value):
    """An int or float in the finite float range; a bool is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _finite(value):
    if not _is_number(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value):
    if not _finite(value).is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _list_of(item, value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(item(v) for v in value)


def _initial_data(spec, state_keys, dimension, piecewise):
    """IC callable for an "ic" entry: {"regions": [...]}, the id of an
    IC_FACTORIES entry, or a catalog id, which reuses that example's."""
    if isinstance(spec, str) and spec in EXAMPLES:
        spec = EXAMPLES[spec]["ic"]
    if isinstance(spec, str) and spec in IC_FACTORIES:
        return IC_FACTORIES[spec]()
    if not isinstance(spec, dict) or "regions" not in spec:
        raise ConfigError(f"config needs 'ic': an example id or "
                          f"{{'regions': [...]}}, got {spec!r}")
    _check_regions(spec["regions"], state_keys, dimension)
    return piecewise(spec["regions"])


def config_from_dict(raw, **overrides):
    """Checked RunConfig from a config dict: a parsed config file or a
    catalog entry.  Overrides that are not None replace keys of raw."""
    if not isinstance(raw, dict):
        raise ConfigError("a config must be a JSON object")
    raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        model_kind = str(raw["model"])
        dimension = _integer(raw["dimension"])
        domain = _list_of(_finite, raw["domain"])
        nx = _integer(raw["nx"])
        ny = None if raw.get("ny") is None else _integer(raw["ny"])
        refine = _integer(raw.get("refine", 1))
        t_final = _finite(raw["t_final"])
        snapshots = _list_of(_finite, raw.get("snapshots", []))
        theta = _finite(raw.get("theta", 1.3))
        cfl = _finite(raw.get("cfl", 0.45))
        eps0 = _finite(raw.get("eps0", 1e-18))
        f0 = _finite(raw.get("f0", 0.0))
        beta = _finite(raw.get("beta", 0.0))
        topography = str(raw.get("topography", "flat"))
        outputs = _list_of(str, raw.get("outputs", ["csv"]))
        scheme = str(raw.get("scheme", "pccu"))
        label = str(raw.get("label", "custom"))
    except KeyError as exc:
        raise ConfigError(f"config misses required key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc

    if refine < 1:
        raise ConfigError("refine factor must be a positive integer")
    if dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {dimension}")
    if len(domain) != 2 * dimension:
        raise ConfigError(f"a {dimension}-D domain needs {2 * dimension} "
                          f"bounds, got {len(domain)}")
    nx *= refine
    if dimension == 2:
        if ny is None:
            raise ConfigError("2-D setup needs ny")
        ny *= refine
        grid = Grid(domain[0], domain[1], nx, domain[2], domain[3], ny)
    else:
        grid = Grid(domain[0], domain[1], nx)

    if topography not in TOPOGRAPHIES:
        raise ConfigError(f"unknown topography {topography!r} "
                          f"(available: {', '.join(sorted(TOPOGRAPHIES))})")
    topo = TOPOGRAPHIES[topography]
    if model_kind == "multifluid":
        if topo is not None or f0 != 0.0 or beta != 0.0:
            raise ConfigError("topography/rotation apply to the trsw model only")
        model = Multifluid(dimension)
        ic = _initial_data(raw.get("ic"), ("rho", "p", "gamma"), dimension,
                           lambda r: piecewise_multifluid_ic(r, dimension))
    elif model_kind == "trsw":
        model = ThermalShallowWater(dimension, topography=topo, f0=f0,
                                    beta=beta)
        ic = _initial_data(raw.get("ic"), (("h", "surface"), "b"), dimension,
                           lambda r: piecewise_trsw_ic(r, topography=topo))
    else:
        raise ConfigError(f"unknown model {model_kind!r}")

    check_outputs(outputs, grid)
    bc = BoundaryCondition.from_spec(raw.get("bc", "free"), dimension)
    echo = {
        "label": label, "model": model_kind, "dimension": dimension,
        "scheme": scheme, "domain": list(domain), "nx": grid.nx,
        "ny": grid.ny, "dx": grid.dx, "dy": grid.dy, "theta": theta,
        "cfl": cfl, "eps0": eps0, "t_final": t_final,
        "snapshots": list(snapshots), "bc": bc.as_dict(dimension),
        "topography": topography, "f0": f0, "beta": beta,
        "outputs": list(outputs), "refine": refine,
    }
    config = RunConfig(model=model, grid=grid, bc=bc, ic=ic, scheme=scheme,
                       theta=theta, cfl=cfl, eps0=eps0, t_final=t_final,
                       snapshots=snapshots, label=label, outputs=outputs,
                       echo=echo)
    config.validate()
    return config
