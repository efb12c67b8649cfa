"""Sweep the power split and watch both users' union bounds react.

The two bounds feel the split through different channels: the far user
trades its own share against residual interference from the near share,
and the near user pays first for cancellation quality and then decides
with whatever share is left. The sweep exposes that tension at a fixed
mid-range SNR for two surface sizes.
"""

import csv
from pathlib import Path

from lisnoma.config import default_config
from lisnoma.union_bound import union_bound_curve

OUT = Path(__file__).resolve().parent / "output"

SPLITS = [0.55 + 0.05 * i for i in range(9)]
SNR_DB = 15.0
SIZES = (3, 6)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / "power_allocation_sensitivity.csv"
    rows = []
    for M in SIZES:
        for p1 in SPLITS:
            cfg = default_config(M=M, P=(p1, round(1.0 - p1, 10)))
            u1 = union_bound_curve(cfg, 1, (SNR_DB,))
            u2 = union_bound_curve(cfg, 2, (SNR_DB,))
            rows.append((M, p1, u1.value[0], u2.value[0]))
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["M", "p1", "user1_bound", "user2_bound"])
        for M, p1, v1, v2 in rows:
            w.writerow([M, f"{p1:.2f}", f"{v1:.8g}", f"{v2:.8g}"])

    print(f"wrote {path}")
    for M in SIZES:
        sub = [r for r in rows if r[0] == M]
        span1 = max(r[2] for r in sub) / min(r[2] for r in sub)
        span2 = max(r[3] for r in sub) / min(r[3] for r in sub)
        best = min(sub, key=lambda r: max(r[2], r[3]))
        print(f"M={M}: user1 moves {span1:.1f}x, user2 moves {span2:.1f}x "
              f"across the sweep; worst-user optimum near p1={best[1]:.2f}")


if __name__ == "__main__":
    main()
