"""smclab: a simulation lab for sliding mode controller comparisons."""

from .controllers import (
    AdaptiveParams,
    ClassicalParams,
    ControlOutput,
    ObserverFreeParams,
    SuperTwistingParams,
    adaptive_smc_control,
    classical_smc_control,
    make_controller,
    observer_free_control,
    super_twisting_control,
    tanh_fast,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    ScenarioValidationError,
    SingularGainError,
    SmcLabError,
)
from .metrics import (
    MetricsReport,
    Thresholds,
    chattering_index,
    comparison_matrix,
    compute_report,
    lyapunov_stats,
    overshoot,
    settling_time,
    sync_error,
)
from .plants import (
    DuffingParams,
    NetworkParams,
    PendulumParams,
    PlantModel,
    VanDerPolParams,
    make_plant,
)
from .scenarios import Scenario, builtin_suite, load_scenario, run_suite, validate
from .sim import (
    DelaySpec,
    DisturbanceSpec,
    NoiseConfig,
    SimConfig,
    TimeSeries,
    apply_noise,
    eval_disturbance,
    rk4_step,
    simulate_run,
)

__version__ = "0.1.0"
