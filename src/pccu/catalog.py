"""Built-in problem setups and config-dict handling.

Each catalog entry records the published setup of a benchmark run: domain,
default grid, final time, boundary conditions, initial data, topography and
rotation where present, and which output products to emit.  Initial data
are described by ordered region lists; the first matching region wins and
the last entry is the fallback, so unions can be expressed by ordering.
"""

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


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_regions(regions, state_keys, dimension):
    """ConfigError for a region list piecewise_*_ic could not evaluate.

    state_keys names the keys each region state needs; a tuple among them
    is a choice of one.  State values and the sizes in "where" must be
    numbers, a center a pair of them and an axis one of the grid's.
    """
    if not isinstance(regions, list):
        raise ConfigError("'regions' must be a list")
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
        where = region.get("where")
        if where is None:
            continue
        kind = where.get("kind") if isinstance(where, dict) else None
        if kind not in _WHERE_KEYS:
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
    bubble = {"where": {"kind": "disk", "center": (0.0, 0.0), "radius": 0.25},
              "state": {"rho": rho_a, "u": 0.0, "v": 0.0, "p": 1.0,
                        "gamma": gamma_a, "pi_inf": 0.0}}
    return [bubble] + list(_MF_SHOCK_BUBBLE_2D)


_MF_EX5_REGIONS = [
    {"where": {"kind": "disk", "center": (5.0, 2.0), "radius": 1.0},
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
    {"where": {"kind": "annulus", "center": (0.0, 0.0), "r_min": 0.1,
               "r_max": 0.3},
     "state": {"surface": 3.1, "b": 4.0 / 3.0}},
    {"where": {"kind": "disk", "center": (0.0, 0.0), "radius": 0.5},
     "state": {"surface": 3.0, "b": 4.0 / 3.0}},
    {"state": {"surface": 2.0, "b": 3.0}},
]

_TRSW_EX9_REGIONS = [
    {"where": {"kind": "disk", "center": (0.0, 0.0), "radius": 0.5},
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


EXAMPLES = {
    "ex1": dict(
        model="multifluid", dimension=1, domain=(-1.0, 2.0), nx=300,
        t_final=3.0, bc="solid_wall", regions=_MF_EX1_REGIONS,
        outputs=("csv",),
        note="shock hitting a resting bubble, solid walls"),
    "ex2": dict(
        model="multifluid", dimension=1, domain=(0.0, 18.0), nx=180,
        t_final=0.045, bc="free", regions=_MF_EX2_REGIONS,
        outputs=("csv",),
        note="water-air shock-bubble interaction, stiff liquid EOS"),
    "ex3": dict(
        model="multifluid", dimension=2, domain=(-3.0, 1.0, -0.5, 0.5),
        nx=2000, ny=500, t_final=3.0,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "solid_wall"},
        regions=_bubble_regions(4.0 / 29.0, 5.0 / 3.0),
        snapshots=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        outputs=("csv", "schlieren"),
        note="shock hitting a light (helium-like) cylindrical bubble"),
    "ex4": dict(
        model="multifluid", dimension=2, domain=(-3.0, 1.0, -0.5, 0.5),
        nx=2000, ny=500, t_final=3.0,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "solid_wall"},
        regions=_bubble_regions(3.1538, 1.249),
        snapshots=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        outputs=("csv", "schlieren"),
        note="shock hitting a heavy (R22-like) cylindrical bubble"),
    "ex5": dict(
        model="multifluid", dimension=2, domain=(0.0, 10.0, 0.0, 6.0),
        nx=800, ny=480, t_final=0.02,
        bc={"left": "free", "right": "free",
            "bottom": "solid_wall", "top": "free"},
        regions=_MF_EX5_REGIONS,
        outputs=("csv", "schlieren"),
        note="cylindrical explosion under an air-water interface"),
    "ex6": dict(
        model="trsw", dimension=1, domain=(-5.0, 5.0), nx=200,
        t_final=10.0, bc="free", regions=_TRSW_EX6_REGIONS,
        outputs=("csv",),
        note="constant-pressure equilibrium with a buoyancy jump"),
    "ex6p": dict(
        model="trsw", dimension=1, domain=(-5.0, 5.0), nx=200,
        t_final=1.6, bc="free", ic_factory=_ex6p_ic,
        snapshots=(1.2, 1.6), outputs=("csv",),
        note="small thickness bump on the ex6 equilibrium"),
    "ex7": dict(
        model="trsw", dimension=1, domain=(-1.0, 1.0), nx=200,
        t_final=0.2, bc="free", regions=_TRSW_EX7_REGIONS,
        topography="two_bumps_1d", snapshots=(0.1, 0.2), outputs=("csv",),
        note="dam break over two bottom bumps"),
    "ex8": dict(
        model="trsw", dimension=2, domain=(-1.0, 1.0, -1.0, 1.0),
        nx=100, ny=100, t_final=0.12, bc="free",
        regions=_TRSW_EX8_REGIONS, topography="two_gaussians_2d",
        outputs=("csv", "slice_diag"),
        note="ring perturbation of a lake at rest over two bumps"),
    "ex9": dict(
        model="trsw", dimension=2, domain=(-1.0, 1.0, -1.0, 1.0),
        nx=100, ny=100, t_final=0.15, bc="free",
        regions=_TRSW_EX9_REGIONS, outputs=("csv", "slice_diag"),
        note="circular dam break with a buoyancy contrast"),
    "ex10": dict(
        model="trsw", dimension=2, domain=(-40.0, 80.0, -10.0, 10.0),
        nx=900, ny=150, t_final=120.0, bc="free", ic_factory=_ex10_ic,
        f0=0.0, beta=1.0, snapshots=(30.0, 60.0, 90.0, 120.0),
        outputs=("csv", "slice_y0"),
        note="relaxation of a buoyancy anomaly on the equatorial beta-plane"),
}


def example_names():
    return sorted(EXAMPLES)


def make_config(name, scheme="pccu", nx=None, ny=None, theta=1.3, cfl=0.45,
                t_final=None, snapshots=None, refine=1):
    """RunConfig for a catalog example, with optional overrides."""
    if name not in EXAMPLES:
        raise ConfigError(f"unknown example {name!r} "
                          f"(available: {', '.join(example_names())})")
    spec = EXAMPLES[name]
    return _build_config(
        label=name, model_kind=spec["model"], dimension=spec["dimension"],
        domain=spec["domain"], nx=nx or spec["nx"],
        ny=ny or spec.get("ny"), scheme=scheme, theta=theta, cfl=cfl,
        t_final=spec["t_final"] if t_final is None else t_final,
        snapshots=tuple(spec.get("snapshots", ())
                        if snapshots is None else snapshots),
        bc_spec=spec["bc"], regions=spec.get("regions"),
        ic_factory=spec.get("ic_factory"),
        topography=spec.get("topography", "flat"),
        f0=spec.get("f0", 0.0), beta=spec.get("beta", 0.0),
        outputs=tuple(spec["outputs"]), refine=refine)


def config_from_dict(raw, scheme=None, nx=None, ny=None, theta=None, cfl=None,
                     t_final=None, snapshots=None, refine=1):
    """RunConfig from a plain dict (a parsed config file)."""
    try:
        model_kind = raw["model"]
        dimension = int(raw["dimension"])
        domain = tuple(float(v) for v in raw["domain"])
        base_nx = int(raw["nx"])
        base_ny = None if raw.get("ny") is None else int(raw["ny"])
        base_t = float(raw["t_final"])
        base_snapshots = raw.get("snapshots", [])
        if not isinstance(base_snapshots, list):
            raise TypeError("'snapshots' must be a list of times")
        base_snapshots = tuple(float(v) for v in base_snapshots)
        theta = theta if theta is not None else float(raw.get("theta", 1.3))
        cfl = cfl if cfl is not None else float(raw.get("cfl", 0.45))
        f0 = float(raw.get("f0", 0.0))
        beta = float(raw.get("beta", 0.0))
        eps0 = float(raw.get("eps0", 1e-18))
    except KeyError as exc:
        raise ConfigError(f"config file misses required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in config file: {exc}") from exc
    ic_spec = raw.get("ic")
    regions = None
    ic_factory = None
    if isinstance(ic_spec, str):
        if ic_spec not in EXAMPLES:
            raise ConfigError(f"unknown ic id {ic_spec!r}")
        ex = EXAMPLES[ic_spec]
        regions = ex.get("regions")
        ic_factory = ex.get("ic_factory")
    elif isinstance(ic_spec, dict) and "regions" in ic_spec:
        regions = ic_spec["regions"]
    else:
        raise ConfigError("config needs 'ic': example id or {'regions': [...]}")
    return _build_config(
        label=str(raw.get("label", "custom")), model_kind=model_kind,
        dimension=dimension, domain=domain,
        nx=nx or base_nx, ny=ny or base_ny,
        scheme=scheme or raw.get("scheme", "pccu"),
        theta=theta, cfl=cfl, t_final=base_t if t_final is None else t_final,
        snapshots=base_snapshots if snapshots is None else tuple(snapshots),
        bc_spec=raw.get("bc", "free"), regions=regions, ic_factory=ic_factory,
        topography=raw.get("topography", "flat"),
        f0=f0, beta=beta, outputs=tuple(raw.get("outputs", ("csv",))),
        refine=refine, eps0=eps0)


def _build_config(label, model_kind, dimension, domain, nx, ny, scheme, theta,
                  cfl, t_final, snapshots, bc_spec, regions, ic_factory,
                  topography, f0, beta, outputs, refine, eps0=1e-18):
    refine = int(refine)
    if refine < 1:
        raise ConfigError("refine factor must be a positive integer")
    if dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {dimension}")
    if len(domain) != 2 * dimension:
        raise ConfigError(f"a {dimension}-D domain needs {2 * dimension} "
                          f"bounds, got {len(domain)}")
    nx = int(nx) * refine
    if dimension == 2:
        if ny is None:
            raise ConfigError("2-D setup needs ny")
        ny = int(ny) * refine
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
        if ic_factory is not None:
            ic = ic_factory()
        elif regions:
            _check_regions(regions, ("rho", "p", "gamma"), dimension)
            ic = piecewise_multifluid_ic(regions, dimension)
        else:
            raise ConfigError("no initial data given")
    elif model_kind == "trsw":
        model = ThermalShallowWater(dimension, topography=topo, f0=f0,
                                    beta=beta)
        if ic_factory is not None:
            ic = ic_factory()
        elif regions:
            _check_regions(regions, (("h", "surface"), "b"), dimension)
            ic = piecewise_trsw_ic(regions, topography=topo)
        else:
            raise ConfigError("no initial data given")
    else:
        raise ConfigError(f"unknown model {model_kind!r}")

    check_outputs(outputs, grid)
    bc = BoundaryCondition.from_spec(bc_spec, dimension)
    echo = {
        "label": label, "model": model_kind, "dimension": dimension,
        "scheme": scheme, "domain": list(domain), "nx": nx,
        "ny": ny if dimension == 2 else None, "dx": grid.dx,
        "dy": grid.dy if dimension == 2 else None, "theta": theta,
        "cfl": cfl, "eps0": eps0, "t_final": t_final,
        "snapshots": list(snapshots), "bc": bc.as_dict(dimension),
        "topography": topography, "f0": f0, "beta": beta,
        "outputs": list(outputs), "refine": refine,
    }
    return RunConfig(model=model, grid=grid, bc=bc, ic=ic, scheme=scheme,
                     theta=theta, cfl=cfl, eps0=eps0, t_final=t_final,
                     snapshots=snapshots, label=label, outputs=outputs,
                     echo=echo)
