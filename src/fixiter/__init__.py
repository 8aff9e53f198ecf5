"""Fixed-point iteration processes over finite-dimensional l_p spaces.

The package bundles six iteration schemes, a catalog of example self-maps
with sampled mapping-class certification, a modulus-of-convexity estimator,
and numerical checkers for the convergence guarantees the schemes come with.
See the README for the scenario-driven command line.
"""

from .analysis import (
    TAU_FP,
    TAU_LEM22,
    TAU_LIM,
    TAU_REG,
    TAU_SUM,
    CheckResult,
    ConditionIWitness,
    Lemma21Report,
    Lemma22Report,
    LimitVerdict,
    PhiSpec,
    RateReport,
    RateRow,
    TheoremReport,
    certify_condition_I,
    check_lemma21,
    check_lemma22_witness,
    compare_schemes,
    limit_verdict,
    tail_window_start,
    verify_theorem31,
    verify_theorem32,
    verify_theorem33,
)
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    FixiterError,
    InfeasibleError,
    ParameterError,
    ScenarioError,
    ScheduleError,
    ScopeError,
)
from .mappings import (
    CATALOG_IDS,
    MAPPING_CLASSES,
    TAU_CERT,
    Certificate,
    Mapping,
    MappingMeta,
    Witness,
    apply_power,
    build_mapping,
    certify_asymptotically_nonexpansive,
    certify_nearly_nonexpansive,
    certify_nonexpansive,
    certify_uniform_lipschitz,
    distance_to_fixed_set,
    fixed_point_residual,
    get_mapping,
    make_asymptotically_nonexpansive_example,
    make_example21,
    make_identity,
    make_linear_contraction,
    near_schedule_for,
    near_sequence_from_asymptotic,
)
from .schedules import Schedule
from .schemes import (
    POWER_SCHEMES,
    SCHEMES,
    ConstraintCheck,
    RunConfig,
    ScheduleVerdict,
    StepRecord,
    Trajectory,
    linear_rate_oracle,
    run_scheme,
    trajectory_csv_rows,
    trajectory_header,
    validate_schedule,
    write_trajectory_csv,
)
from .space import (
    TAU_DOM,
    Ball,
    Box,
    Domain,
    ModulusEstimate,
    NormedSpace,
    Vector,
    combine,
    modulus_of_convexity_estimate,
)

__version__ = "0.1.0"
