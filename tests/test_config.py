import json
import math

import pytest

from lisnoma import SnrGrid, SystemConfig, default_config, load_scenario
from lisnoma.config import BPSK


def test_default_scenario_values():
    cfg = default_config()
    assert cfg.M == 3 and cfg.L == 2
    assert cfg.P == (0.8, 0.2)
    assert cfg.d_R == (5.0, 2.0) and cfg.d_B == 1.0
    assert cfg.alpha == 3.0 and cfg.sigma2 == 0.5
    assert cfg.constellation == (BPSK, BPSK)


def test_distance_factor_is_path_loss_product():
    cfg = default_config()
    assert cfg.distance_factor(1) == pytest.approx(125.0, rel=1e-12)
    assert cfg.distance_factor(2) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        cfg.distance_factor(3)


def test_overrides_and_replace():
    cfg = default_config(M=6, sigma2=1.25)
    assert cfg.M == 6 and cfg.sigma2 == 1.25
    cfg2 = cfg.replace(M=9)
    assert cfg2.M == 9 and cfg2.sigma2 == 1.25 and cfg2.P == (0.8, 0.2)


@pytest.mark.parametrize("kw", [
    dict(M=0),
    dict(M=2.5),
    dict(sigma2=0.0),
    dict(P=(0.5, 0.5)),         # split must be strictly decreasing
    dict(P=(0.9, 0.2)),         # split must sum to one
    dict(d_R=(2.0, 5.0)),       # far user listed first
    dict(d_R=(5.0,)),           # length must match P
    dict(alpha=0.0),
    dict(sigma2=math.inf),      # NaN and infinity pass every comparison
    dict(constellation=((-1.0, 1.0),)),
    dict(constellation=((-2.0, 2.0), BPSK)),   # unit average energy
    dict(sigma2=math.nan),
    dict(alpha=math.nan),
    dict(alpha=math.inf),
    dict(d_B=math.inf),
    dict(d_R=(math.nan, 2.0)),
    dict(d_R=(math.inf, 2.0)),
    dict(P=(math.nan, 0.2)),
    dict(constellation=((-1.0, math.nan), BPSK)),
    dict(M=math.inf),
    dict(P=(1.5, -0.5)),        # every power share positive
    dict(P=(1.0, 0.0)),
    dict(d_R=(5.0, -2.0)),      # every distance positive
])
def test_invalid_configurations_rejected(kw):
    with pytest.raises(ValueError):
        default_config(**kw)


def test_one_symbol_constellation_rejected():
    # (1.0,) has unit energy, so only the two-symbol rule refuses it; that
    # rule is why enumerate_events needs no check of its own
    with pytest.raises(ValueError, match="at least two symbols"):
        default_config(constellation=((1.0,), BPSK))


def test_json_round_trip(tmp_path):
    cfg = default_config(M=5, sigma2=0.7)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "M": 5, "sigma2": 0.7, "alpha": 3.0, "d_B": 1.0, "d_R": [5.0, 2.0],
        "P": [0.8, 0.2], "constellation": [[-1.0, 1.0], [-1.0, 1.0]]}))
    assert load_scenario(path) == cfg


def test_single_user_scenario_is_allowed():
    cfg = SystemConfig(M=3, d_R=(2.0,), P=(1.0,), constellation=(BPSK,))
    assert cfg.L == 1
    assert cfg.distance_factor(1) == pytest.approx(8.0)


def test_user_count_is_the_length_of_the_power_split():
    cfg = SystemConfig(M=3, d_R=(6.0, 4.0, 2.0), P=(0.6, 0.3, 0.1),
                       constellation=(BPSK,) * 3)
    assert cfg.L == 3
    assert cfg.replace(d_R=(5.0, 2.0), P=(0.8, 0.2),
                       constellation=(BPSK,) * 2).L == 2


def test_snr_grid_parse_and_db():
    grid = SnrGrid.parse("0:30:5")
    assert len(grid.db) == 7
    assert grid.db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def test_snr_grid_points_are_exact_in_db():
    # each point is start + k * step, with no linear round trip or running sum
    assert SnrGrid.parse("0:40:2").db == tuple(float(v) for v in range(0, 41, 2))
    fine = SnrGrid.parse("0:3:0.3").db
    assert fine == tuple(k * 0.3 for k in range(11))


def test_snr_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        SnrGrid(())
    with pytest.raises(ValueError):
        SnrGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        SnrGrid((0.0, math.nan))
    with pytest.raises(ValueError):
        SnrGrid((0.0, math.inf))
    with pytest.raises(ValueError, match="got 3000.5"):
        SnrGrid((0.0, 3000.5))
    assert SnrGrid((-3000.0, 3000.0)).db == (-3000.0, 3000.0)
    with pytest.raises(ValueError):
        SnrGrid.from_range_db(0.0, 10.0, math.nan)
    with pytest.raises(ValueError):
        SnrGrid.parse("0:30")
    with pytest.raises(ValueError):
        SnrGrid.from_range_db(0.0, 10.0, -2.0)


def test_default_grid_spans_the_plotting_range():
    grid = SnrGrid.from_range_db(0.0, 40.0, 2.0)
    assert grid.db[0] == pytest.approx(0.0, abs=1e-12)
    assert grid.db[-1] == pytest.approx(40.0, abs=1e-9)
    assert math.isclose(grid.db[1] - grid.db[0], 2.0, abs_tol=1e-9)
