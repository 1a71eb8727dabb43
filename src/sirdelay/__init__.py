"""Delayed SIR-type epidemic models with vaccination and treatment.

Library layout:

* :mod:`sirdelay.model` - model definition, right-hand side, linearization
* :mod:`sirdelay.responses` - incidence, vaccination and recovery responses
* :mod:`sirdelay.equilibria` - every steady state from the two balance polynomials
* :mod:`sirdelay.stability` - closed-form stability criteria
* :mod:`sirdelay.charroots` - characteristic-root scan (the numerical oracle)
* :mod:`sirdelay.integrator` - method-of-steps RK4 with dense output
* :mod:`sirdelay.analytics` - trajectory classification and delay sweeps
* :mod:`sirdelay.report` - combined stability reports
* :mod:`sirdelay.presets` - bundled example systems ex5_1 ... ex5_7
"""

from .analytics import Classification, SweepRow, classify, sweep
from .charroots import char_roots_scan, max_real_part
from .config import ScenarioConfig, load_scenario, scenario_from_dict
from .cubic import solve_cubic_real
from .equilibria import Equilibrium, all_equilibria
from .errors import ConfigError, DomainError, IntegrationError
from .integrator import (
    ConstantHistory,
    SampledHistory,
    Trajectory,
    dense_eval,
    integrate,
)
from .model import (
    JacCoeffs,
    ModelSpec,
    Params,
    State,
    eval_rhs,
    jacobian_coeffs,
)
from .presets import PRESET_NAMES, load_preset
from .report import StabilityReport, build_stability_report, render_report, report_to_json
from .responses import (
    Bilinear,
    FractionalMix,
    Linear,
    PowerSum,
    ResponseFn,
    SaturatingIncidence,
    SaturatingUnary,
    Zero,
)
from .stability import (
    CharCoeffs,
    char_coeffs,
    delay_free_stable,
    delta_analysis,
    general_delay_analysis,
    global_verdict,
    is_bilinear_special_case,
    pseudo_delay_cubic,
    tau_critical,
    tau_crossing,
    tau_from_pseudo_delay,
    tau_persistence,
)

__version__ = "0.1.0"
