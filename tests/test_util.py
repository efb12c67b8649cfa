"""Graded-mesh quadrature: accuracy at a log-periodic onset, the M = 1
deep-tail referee points, and the loud failure at the panel cap."""

import numpy as np
import pytest

from lisnoma import ConvergenceError, build_event, default_config
from lisnoma import specfun
from lisnoma._util import gauss_legendre_panels
from lisnoma.pep import pep_general, pep_quadrature


def test_one_error_class_across_modules():
    assert specfun.ConvergenceError is ConvergenceError


def test_log_periodic_onset():
    # Re x^c with complex c is the onset of the M <= 3 fitted density
    c = 0.79 + 0.5j
    got = gauss_legendre_panels(lambda x: np.real(x ** c), 0.0, 1.0,
                                abs_tol=1e-14)
    assert got == pytest.approx((1.0 / (1.0 + c)).real, abs=1e-13)


def test_cap_raises_with_last_values():
    with pytest.raises(ConvergenceError, match=r"last two values .*1e-14"):
        gauss_legendre_panels(lambda x: np.sin(1e7 * x), 0.0, 1.0,
                              abs_tol=1e-14)


@pytest.mark.parametrize("user", [1, 2])
@pytest.mark.parametrize("snr_db", [30.0, 40.0])
def test_fitted_density_referee_deep_tail_at_one_element(user, snr_db):
    cfg = default_config(M=1)
    ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                     sic_errors=(0.0,) if user == 2 else None)
    closed = pep_general(cfg, user, ev, snr_db=snr_db)
    ref = pep_quadrature(cfg, user, ev, snr_db=snr_db, pdf_model="g",
                         abs_tol=closed.raw * 1e-9)
    assert ref == pytest.approx(closed.raw, rel=1e-9)

