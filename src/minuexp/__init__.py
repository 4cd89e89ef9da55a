"""Min-U-Exp distribution family and the mixed Poisson process it drives.

The structure law min(U(0, a), Exp(lambda)) acts as the random rate of a
time-changed Poisson process.  This package evaluates the closed forms of
the family (structure, inter-arrival, arrival-epoch, and count laws),
samples them exactly, estimates parameters from data, and validates every
closed form against an independent quadrature / Monte Carlo oracle.

The oracle itself lives in minuexp.oracle and backs the test suite and the
`validate` CLI subcommand; it is deliberately not re-exported here.
"""

from .counting import (
    conditional_binomial_pmf,
    count_mean_var,
    count_pmf,
    factorial_moment,
    increments_pmf,
    increments_to_ordered,
    mean_xi_given_count,
    ordered_pmf,
    ordered_to_increments,
    pgf,
    scaled_count_params,
    xi_given_count_pdf,
)
from .estimation import (
    EmpiricalCdf,
    FitResult,
    ecdf,
    empirical_moments,
    fit_lsq,
    fit_mom,
    fit_mom_from_moments,
    ratio_G,
)
from .gamma_kernel import log_lower_incomplete_gamma
from .interarrival import (
    bivariate_pdf,
    erlang_moment,
    erlang_pdf,
    interarrival_vector_sample,
    mean_xi_given_tau,
    multivariate_pdf_II,
    tau_cdf,
    tau_moment,
    tau_pdf,
    tau_sample,
    xi_given_tau_pdf,
)
from .process import (
    LinearMu,
    MuTransform,
    PowerMu,
    TableMu,
    ThinningResult,
    Trajectory,
    counts_on_grid,
    increments_on_grid,
    interarrivals,
    sample_arrival_times,
    sample_grid_counts,
    simulate,
    simulate_first_arrivals,
    simulate_paths,
    thinning_check,
)
from .rng import make_stream, split_seed, substream
from .structure import MinUExpParams, cdf, hazard, lst, pdf, raw_moment, sample, scale, variance

__version__ = "0.1.0"
