"""Quantize-and-forward cooperative MIMO simulator.

A single m-antenna source at the center of the unit square serves n randomly
placed single-antenna destinations without transmitter-side channel state.
Destinations cooperate in cell-sized groups: each group member quantizes its
observation of the source's transmission and forwards it over in-group relay
links, and every destination decodes from the collected quantized outputs.
The package estimates the resulting per-destination and sum rates by Monte
Carlo, computes the cooperative-receiver (cut-set) upper bound, and sweeps
the antenna count to measure scaling behavior.
"""

from .bounds import (
    UpperBoundReport,
    cutset_upper_bound,
    lozano_regime_value,
    mimo_ergodic_capacity_mc,
)
from .harness import (
    CSV_HEADER,
    ConfigError,
    NumericalError,
    PointResult,
    PowerLawFit,
    RatioFit,
    SweepFailure,
    SweepRow,
    check_sweep,
    fit_scaling,
    point_params,
    run_point,
    run_sweep,
    write_csv,
)
from .linkrate import (
    exact_sinr_capacity,
    hier_capacity,
    link_capacity,
    riemann_zeta,
    tdma_worst_case_capacity,
)
from .netgeom import (
    NetworkParams,
    NetworkRealization,
    cell_occupancy_stats,
    min_source_distance,
    partition_cells,
    place_nodes,
    realization_from_positions,
)
from .qmimo import (
    NO_RELAY,
    DestinationRate,
    RateReport,
    achievable_rate,
    check_rate_constraints,
    noise_profile,
    phase_matrix,
    quantization_noise,
    quantized_mimo_rate,
    received_power,
    sum_rate,
)
from .seeding import derive_rng, derive_seed

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "DestinationRate",
    "NO_RELAY",
    "NetworkParams",
    "NetworkRealization",
    "NumericalError",
    "PointResult",
    "PowerLawFit",
    "RateReport",
    "RatioFit",
    "SweepFailure",
    "SweepRow",
    "UpperBoundReport",
    "achievable_rate",
    "cell_occupancy_stats",
    "check_rate_constraints",
    "check_sweep",
    "cutset_upper_bound",
    "derive_rng",
    "derive_seed",
    "exact_sinr_capacity",
    "fit_scaling",
    "hier_capacity",
    "link_capacity",
    "lozano_regime_value",
    "mimo_ergodic_capacity_mc",
    "min_source_distance",
    "noise_profile",
    "partition_cells",
    "phase_matrix",
    "place_nodes",
    "point_params",
    "quantization_noise",
    "quantized_mimo_rate",
    "realization_from_positions",
    "received_power",
    "riemann_zeta",
    "run_point",
    "run_sweep",
    "sum_rate",
    "tdma_worst_case_capacity",
    "write_csv",
]

__version__ = "0.1.0"
