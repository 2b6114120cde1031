"""Well-balanced path-conservative central-upwind schemes.

Finite-volume solvers for nonconservative hyperbolic balance laws built on
flux globalization, with a classical central-upwind flux ("pccu") and a
local-characteristic-decomposition variant ("lcd").  Ships a gamma-based
compressible multifluid model and a thermal rotating shallow water model,
plus a catalog of ready-to-run benchmark setups.
"""

from .errors import (ConfigError, AdmissibilityError, ReconstructionError,
                     NumericalError)
from .grid import GHOST, Grid, Field, BoundaryCondition, fill_ghosts, \
    init_from_function
from .reconstruct import limited_slopes, interface_values
from .fluxes import (local_speeds, split_weights, extremal_weights,
                     characteristic_flux, central_upwind_flux)
from .globalflux import interleave_cell_halves, interleave_jumps_cells
from .multifluid import Multifluid, conservative_state, material_coeffs
from .trsw import ThermalShallowWater, invert_momentum_flux
from .timestepping import cfl_dt, ssprk3_step
from .driver import RunConfig, RunReport, LineGeometry, spatial_rhs, run
from .catalog import (EXAMPLES, example_names, make_config, config_from_dict,
                      piecewise_multifluid_ic, piecewise_trsw_ic)
from .output import (write_outputs, write_field_csv, schlieren_shade,
                     write_pgm, difference_norms)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "AdmissibilityError", "ReconstructionError",
    "NumericalError", "GHOST", "Grid", "Field", "BoundaryCondition",
    "fill_ghosts", "init_from_function", "limited_slopes",
    "interface_values", "local_speeds", "split_weights", "extremal_weights",
    "characteristic_flux", "central_upwind_flux", "interleave_cell_halves",
    "interleave_jumps_cells", "Multifluid", "conservative_state",
    "material_coeffs", "ThermalShallowWater", "invert_momentum_flux",
    "cfl_dt", "ssprk3_step", "RunConfig", "RunReport", "LineGeometry",
    "spatial_rhs", "run", "EXAMPLES", "example_names", "make_config",
    "config_from_dict", "piecewise_multifluid_ic", "piecewise_trsw_ic",
    "write_outputs", "write_field_csv", "schlieren_shade", "write_pgm",
    "difference_norms", "__version__",
]
