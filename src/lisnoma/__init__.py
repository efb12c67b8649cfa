"""Error-rate analysis of a reflecting-surface-assisted NOMA downlink.

The package derives the end-to-end cascaded fading statistics, fits a
closed-form density to them, and builds pairwise error probabilities,
diversity orders, and bit-error-rate union bounds on top, each validated
against independent quadrature and Monte Carlo referees.
"""

__version__ = "0.1.0"

from .config import SnrGrid, SystemConfig, default_config, load_scenario
from .moments import Moments, analytic_moments, empirical_moments
from .pdf_approx import (CltParams, FittingError, GParams, clt_params,
                         fit_gparams, pdf_clt, pdf_double_rayleigh, pdf_g)
from .specfun import ConvergenceError, meijer_g_1443, meijer_g_2012
from .pep import (ErrorEvent, PepValue, build_event, pep_clt,
                  pep_conditional, pep_general, pep_m1, pep_quadrature)
from .channel import (BerCurve, CascadeBatch, PepEstimate, sample_cascade,
                      simulate_ber, simulate_pep)
from .asymptotics import (AsymptoticPep, DiversityReport, analytic_diversity,
                          diversity_order, pep_asymptotic)
from .union_bound import (BoundCurve, EventEnumeration, enumerate_events,
                          union_bound_curve)

__all__ = [
    "__version__",
    "SnrGrid", "SystemConfig", "default_config", "load_scenario",
    "Moments", "analytic_moments", "empirical_moments",
    "CltParams", "FittingError", "GParams", "clt_params", "fit_gparams",
    "pdf_clt", "pdf_double_rayleigh", "pdf_g",
    "ConvergenceError", "meijer_g_1443", "meijer_g_2012",
    "ErrorEvent", "PepValue", "build_event", "pep_clt", "pep_conditional",
    "pep_general", "pep_m1", "pep_quadrature",
    "BerCurve", "CascadeBatch", "PepEstimate",
    "sample_cascade", "simulate_ber", "simulate_pep",
    "AsymptoticPep", "DiversityReport", "analytic_diversity",
    "diversity_order", "pep_asymptotic",
    "BoundCurve", "EventEnumeration", "enumerate_events", "union_bound_curve",
]
