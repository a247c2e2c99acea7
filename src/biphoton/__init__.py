"""Twin-photon toolkit for type I parametric down-conversion: crystal
dispersion, plane-wave phase matching, spatio-temporal correlation maps and
Monte Carlo Schmidt-number estimates."""

__version__ = "0.1.0"

from .correlation import (
    CorrelationMap,
    PumpConfig,
    RidgeFit,
    SpectralGrid,
    biphoton_fourier,
    correlation_map,
    default_q_extent,
    factorized_correlation,
    ridge_fit,
)
from .dispersion import (
    CrystalConfig,
    DispersionSample,
    WalkoffMetrics,
    WindowError,
    group_quantities,
    index_extraordinary,
    index_ordinary,
    pump_wavenumber,
    signal_wavenumber,
    walkoff_metrics,
)
from .phasematch import (
    ClassicalSeparation,
    EvanescentError,
    FourierCoord,
    OffCurveError,
    PhaseMatchCurve,
    TaylorCoefficients,
    classical_separation,
    delta_full,
    delta_pw,
    pm_slope,
    pm_slope_implicit,
    solve_pm_curve,
    solve_q_pm,
    taylor_coefficients,
    tune_collinear,
)
from .schmidt import (
    BandwidthFilter,
    McEstimate,
    SchmidtEstimate,
    SweepResult,
    SvdOracle,
    bandwidth_sweep,
    mc_norm,
    mc_purity,
    schmidt_from_matrix,
    schmidt_number,
    svd_oracle,
)
