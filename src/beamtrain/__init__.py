"""Wideband near-field beam training: pilot design, beam-split geometry,
and link-level training simulation for extremely large antenna arrays."""

from .config import SPEED_OF_LIGHT, PolarLocation, SystemConfig
from .arrays import (
    Channel,
    PolarCodebook,
    approx_steering,
    los_channel,
)
from .beamsplit import (
    BeamFocus,
    InfeasibleFocusError,
    TdPsParams,
    angle_beamwidth,
    combined_beamformer,
    dirichlet_sinc,
    distance_beamwidth,
    ellipse_coefficients,
    fresnel_envelope,
    fresnel_integrals,
    gain_kernel,
    predicted_focus,
    ps_vector,
    td_vector,
    tdps_gain,
)
from .design import (
    DesignInputs,
    FixedTdNetwork,
    PilotPlan,
    design,
    design_angle_params,
    design_distance_params,
    first_intercept,
    fixed_td_network,
    intercepts_for_pilots,
    pilot_count,
    starting_period_integer,
)
from .training import (
    ALL_SCHEMES,
    MatchFilterBank,
    ObservationGrid,
    TrainingEstimate,
    aux_pair_train,
    build_match_filter_bank,
    exhaustive_polar_train,
    farfield_rainbow_train,
    match_filter_train,
    nearfield_rainbow_train,
    observe_plan,
    ongrid_train,
    rainbow_sweep_params,
)
from .harness import (
    ExperimentSpec,
    SweepResult,
    desk_config,
    desk_experiment_spec,
    dump_beam_pattern,
    fullscale_config,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
