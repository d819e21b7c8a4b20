"""LQR-weighted multi-objective tuning of fractional-order PID controllers
for delayed fractional-order (NIOPTD) processes.

The toolkit covers the full design pipeline: fractional differintegration
numerics, Riccati-based gain computation with two delay-handling
formulations, fixed-step closed-loop simulation with ITSE/ISDCO indices,
NSGA-II trade-off search over the LQR weights and controller orders,
robustness sweeps, and polynomial tuning rules.
"""
from .design import (
    DelayMethod,
    FopidController,
    GainTriple,
    LqrDesignVars,
    NioptdPlant,
    build_state_space,
    design_from_vars,
    gains_cai,
    gains_delay_free,
    gains_from_row,
    gains_he,
)
from .fracnum import (
    RationalFilter,
    analytic_power_differintegral,
    differintegrator_ss,
    gl_coefficients,
    gl_differintegral,
    oustaloup_approximation,
)
from .matops import (
    CareFailure,
    CareProblem,
    CareSolution,
    expm,
    is_stabilizable,
    solve_care,
    spectral_abscissa,
)
from .nsga2 import (
    FrontVerdict,
    MooConfig,
    ParetoEntry,
    ParetoFront,
    compare_fronts,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    make_offspring,
    median_solution,
    nsga2_minimize,
    run_nsga2,
    weakly_dominates,
    write_front_csv,
)
from .rules import (
    DEFAULT_TUNING_RULES,
    FitDiagnostics,
    TuningRuleCoefficients,
    TuningRuleSet,
    detect_outliers,
    eval_tuning_rule,
    fit_polynomial_surface,
    load_median_solutions,
)
from .sim import (
    PENALTY_OBJECTIVE,
    Scenario,
    SimResult,
    SweepResult,
    evaluate_design_objectives,
    frequency_response,
    performance_indices,
    robustness_sweep,
    simulate_closed_loop,
    simulate_open_loop_step,
    write_sweep_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"
