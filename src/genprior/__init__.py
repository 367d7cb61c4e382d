"""Signal recovery under a generative-network prior.

A numpy library for reconstructing signals from linear, nonlinear and
phaseless measurements when the target is (close to) the range of a
fixed-weight generator network.  The solvers alternate gradient steps on a
data-fit loss with approximate projections onto the generator's range;
diagnostics estimate the restricted-curvature constants that govern their
convergence rates.  A small CLI (``genprior``) drives reproducible
experiments and sweeps.
"""

from .numerics import RngStream, gaussian_matrix
from .generator import (
    GeneratorNet,
    Layer,
    estimate_diameter,
    forward,
    latent_gradient,
    load_weights,
    random_generator,
    save_weights,
)
from .measurement import MeasurementModel, observe, observe_noisy
from .objectives import GRADIENT_SCALE, Objective
from .projection import ProjectionConfig
from .solvers import (
    SolveTrace,
    SolverConfig,
    csgm_baseline,
    dpr_baseline,
    eps_pgd,
    myopic_eps_pgd,
    pgd_linear,
    phase_init,
    phase_pgd,
)
from .diagnostics import (
    RscRssEstimate,
    SrecEstimate,
    WindowReport,
    contraction_bound_general,
    contraction_bound_mismatch,
    convergence_rate,
    empirical_srec,
    incoherence_estimate,
    rsc_rss_estimate,
    step_size_window_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
