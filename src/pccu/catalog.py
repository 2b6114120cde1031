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
    coord = x if where["axis"] == "x" else y
    if kind == "halfplane":
        return (coord < where["value"] if where["op"] == "<"
                else coord > where["value"])
    return (coord >= where["min"]) & (coord <= where["max"])


# keys a region's "where" takes besides "kind", per kind
_WHERE_KEYS = {"disk": ("center", "radius"),
               "annulus": ("center", "r_min", "r_max"),
               "halfplane": ("axis", "op", "value"),
               "band": ("axis", "min", "max")}

# the (required, optional) keys of a region's state, per model (and dimension)
_GAS_KEYS = {1: (("rho", "p", "gamma"), ("u", "pi_inf")),
             2: (("rho", "p", "gamma"), ("u", "v", "pi_inf"))}
_LAYER_KEYS = ((("h", "surface"), "b"), ("u", "v"))


def _check_keys(mapping, required, optional, what):
    """ConfigError for a key of mapping outside required and optional, or a
    required one it misses; a tuple among required is a choice of one."""
    choices = [k if isinstance(k, tuple) else (k,) for k in required]
    allowed = sum(choices, optional)
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: "
                          f"{', '.join(map(repr, unknown))}")
    for keys in choices:
        if not any(k in mapping for k in keys):
            raise ConfigError(f"{what} misses {' or '.join(map(repr, keys))}")


def _check_regions(regions, state_keys, dimension):
    """ConfigError for a region list _piecewise_ic could not evaluate;
    state_keys is (required, optional) as in _LAYER_KEYS.  Only the last
    region may omit "where".  State values and the sizes in "where" must be
    finite numbers, a center a pair of them and an axis one of the grid's.
    """
    if not isinstance(regions, list) or not regions:
        raise ConfigError("'regions' must be a non-empty list")
    for i, region in enumerate(regions):
        state = region.get("state") if isinstance(region, dict) else None
        if not isinstance(state, dict):
            raise ConfigError(f"region {i} needs a 'state' object")
        _check_keys(region, (), ("where", "state"), f"region {i}")
        _check_keys(state, *state_keys, f"region {i} state")
        for key, value in state.items():
            if not _is_number(value):
                raise ConfigError(f"region {i} state {key!r} is not a "
                                  f"number: {value!r}")
        if "where" not in region:
            if i < len(regions) - 1:
                raise ConfigError("only the last region may omit 'where'")
            continue
        where = region["where"]
        kind = where.get("kind") if isinstance(where, dict) else None
        if not isinstance(kind, str) or kind not in _WHERE_KEYS:
            raise ConfigError(f"region {i} has an unknown kind: {where!r}")
        _check_keys(where, ("kind",) + _WHERE_KEYS[kind], (),
                    f"region {i} ({kind})")
        for key in _WHERE_KEYS[kind]:
            value = where[key]
            ok = {"axis": value in ("x", "y")[:dimension],
                  "op": value in ("<", ">"),
                  "center": isinstance(value, (list, tuple))
                  and len(value) == 2 and all(map(_is_number, value)),
                  }.get(key, _is_number(value))
            if not ok:
                raise ConfigError(f"region {i} ({kind}) has a bad {key!r}: "
                                  f"{value!r}")


def _piecewise_ic(regions, state_keys, dimension, region_state):
    """IC callable taking at each point the state of the first region that
    holds it; region_state(state, x, y) gives a region's (..., d) state."""
    _check_regions(regions, state_keys, dimension)

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
    return _piecewise_ic(
        regions, _GAS_KEYS[dimension], dimension,
        lambda st, x, y: conservative_state(
            st["rho"], st.get("u", 0.0), st.get("v", 0.0), st["p"],
            st["gamma"], st.get("pi_inf", 0.0), dimension))


def piecewise_trsw_ic(regions, dimension, topography=None):
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
    return _piecewise_ic(regions, _LAYER_KEYS, dimension, region_state)


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
    base = piecewise_trsw_ic(_TRSW_EX6_REGIONS, 1)

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


def make_config(name, **overrides):
    """config_from_dict of a catalog entry, labelled with its name."""
    if name not in EXAMPLES:
        raise ConfigError(f"unknown example {name!r} "
                          f"(available: {', '.join(example_names())})")
    return config_from_dict({**EXAMPLES[name], "label": name}, **overrides)


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


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _list_of(item, value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(item(v) for v in value)


# RunConfig fields a config sets, with their parsers; defaults are RunConfig's
_RUN_FIELDS = {"t_final": _finite, "scheme": _text, "theta": _finite,
               "cfl": _finite, "eps0": _finite,
               "snapshots": lambda v: _list_of(_finite, v), "label": _text,
               "outputs": lambda v: _list_of(_text, v)}

# the keys a config needs and the others it may have ("note": catalog text)
_REQUIRED = ("model", "dimension", "domain", "nx", "t_final", "ic")
_OPTIONAL = ("ny", "refine", "bc", "topography", "f0", "beta", "note",
             *_RUN_FIELDS)


def _initial_data(spec, piecewise, *args):
    """IC callable for an "ic" entry: piecewise(regions, *args) for
    {"regions": [...]}, an IC_FACTORIES id, or a catalog id (its "ic")."""
    if isinstance(spec, str) and spec in EXAMPLES:
        spec = EXAMPLES[spec]["ic"]
    if isinstance(spec, str) and spec in IC_FACTORIES:
        return IC_FACTORIES[spec]()
    if not isinstance(spec, dict):
        raise ConfigError(f"config needs 'ic': an example id or "
                          f"{{'regions': [...]}}, got {spec!r}")
    _check_keys(spec, ("regions",), (), "'ic'")
    return piecewise(spec["regions"], *args)


def config_from_dict(raw, **overrides):
    """Checked RunConfig from a config dict: a parsed config file or a
    catalog entry.  Overrides that are not None replace keys of raw; an
    unknown key is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("a config must be a JSON object")
    raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    _check_keys(raw, _REQUIRED, _OPTIONAL, "the config")
    try:
        model_kind = _text(raw["model"])
        dimension = _integer(raw["dimension"])
        domain = _list_of(_finite, raw["domain"])
        refine = _integer(raw.get("refine", 1))
        nx = _integer(raw["nx"]) * refine
        ny = None if raw.get("ny") is None else _integer(raw["ny"]) * refine
        f0 = _finite(raw.get("f0", 0.0))
        beta = _finite(raw.get("beta", 0.0))
        topography = _text(raw.get("topography", "flat"))
        _text(raw.get("note", ""))          # catalog text, not kept
        fields = {k: parse(raw[k]) for k, parse in _RUN_FIELDS.items()
                  if k in raw}
    except TypeError as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc

    if refine < 1:
        raise ConfigError("refine factor must be a positive integer")
    if dimension not in (1, 2) or len(domain) != 2 * dimension:
        raise ConfigError(f"dimension must be 1 or 2 with two domain bounds "
                          f"per axis, got {dimension} and {list(domain)}")
    grid = Grid(*domain[:2], nx, *domain[2:], ny=ny)

    if topography not in TOPOGRAPHIES:
        raise ConfigError(f"unknown topography {topography!r} "
                          f"(available: {', '.join(sorted(TOPOGRAPHIES))})")
    topo = TOPOGRAPHIES[topography]
    if model_kind == "multifluid":
        if topo is not None or f0 != 0.0 or beta != 0.0:
            raise ConfigError("topography/rotation apply to the trsw model only")
        model = Multifluid(dimension)
        ic = _initial_data(raw["ic"], piecewise_multifluid_ic, dimension)
    elif model_kind == "trsw":
        try:
            model = ThermalShallowWater(dimension, topography=topo, f0=f0,
                                        beta=beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ic = _initial_data(raw["ic"], piecewise_trsw_ic, dimension, topo)
    else:
        raise ConfigError(f"unknown model {model_kind!r}")

    bc = BoundaryCondition.from_spec(raw.get("bc", "free"), dimension)
    config = RunConfig(model=model, grid=grid, bc=bc, ic=ic, **fields)
    config.echo = {
        "model": model_kind, "dimension": dimension, "domain": list(domain),
        "nx": grid.nx, "ny": grid.ny, "dx": grid.dx, "dy": grid.dy,
        "bc": bc.as_dict(dimension), "topography": topography, "f0": f0,
        "beta": beta, "refine": refine,
        **{k: getattr(config, k) for k in _RUN_FIELDS}}
    config.validate()
    return config
