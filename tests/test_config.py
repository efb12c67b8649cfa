import math

import pytest

from lisnoma import SnrGrid, SystemConfig, default_config, load_scenario
from lisnoma.config import BPSK, DEFAULT_GRID


def test_default_scenario_values():
    cfg = default_config()
    assert cfg.M == 3 and cfg.L == 2
    assert cfg.P == (0.8, 0.2)
    assert cfg.d_R == (5.0, 2.0) and cfg.d_B == 1.0
    assert cfg.alpha == 3.0 and cfg.sigma2 == 0.5 and cfg.N0 == 1.0
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


def test_snr_helpers_round_trip():
    cfg = default_config().with_snr_db(17.0)
    assert cfg.N0 == pytest.approx(10.0 ** -1.7, rel=1e-14)
    assert cfg.snr_db() == pytest.approx(17.0, abs=1e-12)


@pytest.mark.parametrize("kw", [
    dict(M=0),
    dict(M=2.5),
    dict(sigma2=0.0),
    dict(P=(0.5, 0.5)),         # split must be strictly decreasing
    dict(P=(0.9, 0.2)),         # split must sum to one
    dict(d_R=(2.0, 5.0)),       # far user listed first
    dict(d_R=(5.0,)),           # length must match L
    dict(alpha=0.0),
    dict(N0=-1.0),
    dict(constellation=((-1.0, 1.0),)),
    dict(constellation=((-2.0, 2.0), BPSK)),   # unit average energy
])
def test_invalid_configurations_rejected(kw):
    with pytest.raises(ValueError):
        default_config(**kw)


def test_json_round_trip(tmp_path):
    cfg = default_config(M=5, sigma2=0.7)
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json())
    assert load_scenario(path) == cfg
    assert SystemConfig.from_json(cfg.to_json()) == cfg


def test_single_user_scenario_is_allowed():
    cfg = SystemConfig(M=3, L=1, d_R=(2.0,), P=(1.0,),
                       constellation=(BPSK,))
    assert cfg.distance_factor(1) == pytest.approx(8.0)


def test_snr_grid_parse_and_db():
    grid = SnrGrid.parse("0:30:5")
    assert len(grid) == 7
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
    with pytest.raises(ValueError):
        SnrGrid.from_range_db(0.0, 10.0, math.nan)
    with pytest.raises(ValueError):
        SnrGrid.parse("0:30")
    with pytest.raises(ValueError):
        SnrGrid.from_range_db(0.0, 10.0, -2.0)


def test_default_grid_spans_the_plotting_range():
    assert DEFAULT_GRID.db[0] == pytest.approx(0.0, abs=1e-12)
    assert DEFAULT_GRID.db[-1] == pytest.approx(40.0, abs=1e-9)
    assert math.isclose(DEFAULT_GRID.db[1] - DEFAULT_GRID.db[0], 2.0,
                        abs_tol=1e-9)
