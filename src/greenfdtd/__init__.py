"""1D FDTD solver for Lorentz-dispersive media.

Two interchangeable polarization updaters drive the same leapfrog:
"tgm", a one-step complex recurrence built from the closed-form Green
response of the sampled field's rectangle decomposition, and "adem",
the conventional auxiliary-differential-equation scheme.  Analytic
oracles (Fresnel reflection, direct convolution, RK4) back every fast
path, and the CLI reproduces the vacuum / Lorentz half-space reflection
benchmark.
"""

from .ade import AdePoleState, ade_advance, ade_current_half_step
from .analysis import Spectrum, reflection_experiment, reflection_magnitude, spectrum
from .config import SimConfig, load_config, load_table1, parse_config, table1_path
from .constants import C0, EPS0, MU0
from .dispersion import (
    LorentzPole,
    Medium,
    permittivity,
    pole_roots,
    reflection_coefficient,
)
from .fdtd import (
    GaussianSource,
    Grid1D,
    ProbeSeries,
    Simulation,
    build_simulation,
    interface_node,
    mur_coefficient,
    mur_update,
    probe_nodes_from_fractions,
    source_value,
)
from .greens import (
    PoleCoefficients,
    PoleState,
    advance_state,
    green_function,
    make_coefficients,
    polarization,
    polarization_current_half_step,
)
from .oracle import OdeTrace, direct_convolution_sum, green_rk4, polarization_rk4, smooth_drive_rk4

__version__ = "0.1.0"
