"""Constellation design for AWGN channels with residual phase jitter.

The package evaluates achievable rates of arbitrary two-dimensional signal
sets under a Tikhonov-distributed carrier phase error and optimizes both
point positions and binary labels by simulated annealing.
"""

from .analysis import (
    CapacityCurve,
    MismatchReport,
    campaign_cell_seed,
    campaign_cells,
    mismatch_matrix,
    pnsd_sweep,
    pragmatic_gap,
    snr_at_rate,
    snr_sweep,
)
from .annealer import AnnealTrace, SAConfig, sa_optimize
from .capacity import (
    AMI,
    MIN_MC_SAMPLES,
    OBJECTIVES,
    PAMI,
    CapacityResult,
    QuadratureGrid,
    ami_monte_carlo,
    ami_quadrature,
    pami_monte_carlo,
    pami_quadrature,
)
from .likelihood import exact_log_likelihood, log_bessel_i0
from .model import (
    ChannelParams,
    Constellation,
    ConstellationError,
    FormatError,
    constellation_from_json,
    constellation_to_json,
    gray_code,
    load_constellation,
    make_constellation,
    normalize_average_power,
    reference_constellation,
    save_constellation,
)

__version__ = "0.1.0"

__all__ = [
    "AMI",
    "MIN_MC_SAMPLES",
    "AnnealTrace",
    "CapacityCurve",
    "CapacityResult",
    "ChannelParams",
    "Constellation",
    "ConstellationError",
    "FormatError",
    "MismatchReport",
    "OBJECTIVES",
    "PAMI",
    "QuadratureGrid",
    "SAConfig",
    "ami_monte_carlo",
    "ami_quadrature",
    "campaign_cell_seed",
    "campaign_cells",
    "constellation_from_json",
    "constellation_to_json",
    "exact_log_likelihood",
    "gray_code",
    "load_constellation",
    "log_bessel_i0",
    "make_constellation",
    "mismatch_matrix",
    "normalize_average_power",
    "pami_monte_carlo",
    "pami_quadrature",
    "pnsd_sweep",
    "pragmatic_gap",
    "reference_constellation",
    "sa_optimize",
    "save_constellation",
    "snr_at_rate",
    "snr_sweep",
]
