"""Compare the three density models against sampled channel gains.

One surface size per regime: M=1 where the exact single-element density
is available, M=3 where only the fitted kernel applies, and M=12 where
the Gaussian limit starts to be usable. All models are evaluated at the
bin centers of a 500k-draw histogram so every column shares one grid.
The Gaussian column is kept at every size on purpose: its failure at
small M is the point of the comparison.
"""

import csv
from pathlib import Path

import numpy as np

from lisnoma.channel import sample_cascade
from lisnoma.config import default_config
from lisnoma.moments import analytic_moments
from lisnoma.pdf_approx import (density_cdf_table, fit_gparams, ks_statistic,
                                pdf_clt, pdf_double_rayleigh, pdf_g,
                                quadrature_domain)

OUT = Path(__file__).resolve().parent / "output"

SIZES = (1, 3, 12)
DRAWS = 500_000
BINS = 120


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for M in SIZES:
        cfg = default_config(M=M)
        # the unscaled element sum; distances only stretch the axis
        q = sample_cascade(cfg, 1, DRAWS, seed=1).s
        hi = quadrature_domain(M, cfg.sigma2)
        dens, edges = np.histogram(q, bins=BINS, range=(0.0, hi),
                                   density=True)
        centers = (edges[1:] + edges[:-1]) / 2.0

        params = fit_gparams(M, cfg.sigma2)
        moments = analytic_moments(M, cfg.sigma2)
        fitted = pdf_g(centers, params)
        gauss = pdf_clt(centers, moments)
        exact = (pdf_double_rayleigh(centers, cfg.sigma2) if M == 1
                 else np.full_like(centers, np.nan))

        path = OUT / f"density_model_comparison_m{M}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "sampled", "fitted", "gaussian", "exact"])
            for i, x in enumerate(centers):
                w.writerow([f"{x:.8g}", f"{dens[i]:.8g}", f"{fitted[i]:.8g}",
                            f"{gauss[i]:.8g}",
                            "" if M != 1 else f"{exact[i]:.8g}"])

        xs, cdf = density_cdf_table(lambda x: pdf_g(x, params), hi)
        ks_fit = ks_statistic(q, xs, cdf)
        xs, cdf = density_cdf_table(lambda x: pdf_clt(x, moments), hi)
        ks_clt = ks_statistic(q, xs, cdf)
        sup = float(np.max(np.abs(fitted - dens)))
        print(f"wrote {path}")
        print(f"M={M:>2}: KS fitted {ks_fit:.4f}, KS gaussian {ks_clt:.4f}, "
              f"sup|fit-hist| {sup:.4f}")


if __name__ == "__main__":
    main()
