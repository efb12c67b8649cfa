"""Stack every pairwise-error evaluator on one event and one SNR grid.

The event is the far user's dominant error hypothesis in the default
scenario. Closed-form averaged Chernoff, its quadrature referee, the
exact-kernel quadrature, an importance-sampled Monte Carlo run, and the
pole expansion all land in one CSV, which makes the bound looseness and
the expansion's approach visible side by side.

``exact_quadrature`` integrates the exact Q kernel against the *fitted*
density, not the true one, so it carries the fit's deep-tail gap: at
M = 3, 40 dB it reads 6.114e-7, where exact-weight Monte Carlo gives
6.055e-7, about 1% lower.
"""

import csv
import math
from pathlib import Path

from lisnoma.asymptotics import pep_asymptotic
from lisnoma.channel import simulate_pep
from lisnoma.config import default_config
from lisnoma.pep import build_event, pep_general, pep_quadrature

OUT = Path(__file__).resolve().parent / "output"

GRID = list(range(0, 41, 5))
TRIALS = 300_000


def main() -> None:
    OUT.mkdir(exist_ok=True)
    cfg = default_config()
    event = build_event(cfg, 1, (1.0, 1.0), -1.0)

    path = OUT / "pep_bounds_vs_snr.csv"
    rows = []
    for sdb in GRID:
        closed = pep_general(cfg, 1, event, snr_db=sdb)
        quad_ch = pep_quadrature(cfg, 1, event, snr_db=sdb,
                                 kernel="chernoff")
        quad_ex = pep_quadrature(cfg, 1, event, snr_db=sdb, kernel="exact")
        mc = simulate_pep(cfg, 1, interference=event, snr_db=sdb,
                          trials=TRIALS, seed=3, importance=True)
        asym = pep_asymptotic(cfg, 1, event, snr_db=sdb)
        rows.append((sdb, closed.raw, quad_ch, quad_ex,
                     mc.value, mc.se, asym.raw))
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["snr_db", "chernoff_closed", "chernoff_quadrature",
                    "exact_quadrature", "mc_estimate", "mc_se",
                    "pole_expansion"])
        for r in rows:
            w.writerow([r[0]] + [f"{v:.10g}" for v in r[1:]])

    worst = max(abs(r[1] - r[2]) / r[2] for r in rows)
    mid = next(r for r in rows if r[0] == 20)
    close = [r[0] for r in rows if abs(r[6] - r[1]) / r[1] < 0.05]
    print(f"wrote {path}")
    print(f"closed form vs quadrature referee: max rel gap {worst:.2e}")
    print(f"Chernoff/exact ratio at 20 dB: {mid[1] / mid[3]:.3f}")
    if close:
        print(f"pole expansion inside 5% from {min(close)} dB up")
    else:
        slope = (math.log10(rows[-2][6] / rows[-1][6])
                 / ((GRID[-1] - GRID[-2]) / 10.0))
        print("pole expansion still above 5% off on this grid "
              f"(decade slope {slope:.2f}); it closes further out")


if __name__ == "__main__":
    main()
