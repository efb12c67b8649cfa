"""Command-line contract: manifests, determinism, exit codes, file layout."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lisnoma import checks, cli, default_config, pep


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    return lines[0], [l.split(",") for l in lines[1:]]


def manifest_of(text):
    for line in text.splitlines():
        if line.startswith("# manifest:"):
            return json.loads(line[len("# manifest:"):])
    raise AssertionError("no manifest comment found")


def test_version_exits_cleanly(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert "lisnoma" in out + err


def test_unknown_subcommand_is_an_argument_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_moments_json_payload(capsys):
    code, out, _ = run(capsys, "moments", "--M", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 3
    assert doc["analytic"]["mu1"] == pytest.approx(3 * math.pi / 4, rel=1e-12)
    assert doc["empirical"] is None
    assert doc["manifest"]["subcommand"] == "moments"
    assert len(doc["manifest_sha256"]) == 64


def test_moments_with_sampling_reports_error_bars(capsys):
    code, out, _ = run(capsys, "moments", "--M", "2", "--samples", "50000",
                       "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    emp = doc["empirical"]
    assert emp["samples"] == 50000 and emp["seed"] == 3
    for mu, se, want in zip(emp["mu"], emp["se"],
                            (math.pi / 2, None, None, None)):
        assert np.isfinite(se) and se > 0
        if want is not None:
            assert abs(mu - want) < 5 * se


def test_fit_json_and_sweep(capsys):
    code, out, _ = run(capsys, "fit", "--M", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["complex_pair"] is True
    assert doc["a4"]["re"] == pytest.approx(4.608907128, rel=1e-8)
    assert doc["a4"]["im"] == pytest.approx(0.2395698838, rel=1e-6)

    code, out, _ = run(capsys, "fit", "--sweep", "1:16")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "M,a2,a3,a4_re,a4_im,a5_re,a5_im,log_a1,complex_pair"
    assert len(rows) == 16
    assert [int(r[0]) for r in rows] == list(range(1, 17))
    assert all(r[8] == ("1" if int(r[0]) <= 3 else "0") for r in rows)


def test_fit_sweep_validation(capsys):
    assert run(capsys, "fit", "--sweep", "0:4")[0] == 2
    assert run(capsys, "fit", "--sweep", "8:2")[0] == 2
    assert run(capsys, "fit", "--sweep", "1-4")[0] == 2


def test_pdf_table_is_normalized(capsys):
    code, out, _ = run(capsys, "pdf", "--M", "3", "--model", "g",
                       "--grid", "0:10:400")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "q,density"
    assert len(rows) == 400
    xs = np.array([float(r[0]) for r in rows])
    fs = np.array([float(r[1]) for r in rows])
    assert fs.min() >= 0.0
    riemann = float(np.trapezoid(fs, xs))
    assert abs(riemann - 1.0) < 1e-3


def test_pdf_exact_model_needs_one_element(capsys):
    code, _, err = run(capsys, "pdf", "--M", "3", "--model", "dr",
                       "--grid", "0:10:50")
    assert code == 2
    assert "needs M = 1" in err
    # the exact density has a logarithmic spike at the origin, so the
    # trapezoid check needs a denser grid than the fitted-kernel one
    code, out, _ = run(capsys, "pdf", "--M", "1", "--model", "dr",
                       "--grid", "0:12:1500")
    assert code == 0
    _, rows = csv_rows(out)
    xs = np.array([float(r[0]) for r in rows])
    fs = np.array([float(r[1]) for r in rows])
    assert abs(float(np.trapezoid(fs, xs)) - 1.0) < 1e-3


def test_pdf_grid_validation(capsys):
    assert run(capsys, "pdf", "--M", "3", "--model", "g",
               "--grid", "10:0:50")[0] == 2
    assert run(capsys, "pdf", "--M", "3", "--model", "g",
               "--grid", "0:10")[0] == 2
    assert run(capsys, "pdf", "--M", "3", "--model", "g", "--grid",
               "0:10:50", "--user", "5")[0] == 2
    # every model refuses a non-finite end before it tabulates anything
    for model in ("g", "dr", "clt", "mc"):
        for grid in ("0:inf:4", "inf:inf:4", "nan:1:4"):
            code, out, err = run(capsys, "pdf", "--M", "1", "--model", model,
                                 "--grid", grid, "--samples", "1000")
            assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("user", [None, 2])
@pytest.mark.parametrize("model,M", [("g", 3), ("dr", 1), ("clt", 15)])
def test_pdf_rows_are_the_referees_densities(capsys, model, M, user):
    # `lisnoma pdf` prints the densities the quadrature referee averages
    # over, from the same name table; only the fitted one needs its clamp
    argv = ("pdf", "--M", str(M), "--model", model, "--grid", "0:12:25")
    code, out, _ = run(capsys, *argv, *(("--user", str(user)) if user else ()))
    assert code == 0
    cfg = default_config(M=M)
    D = cfg.distance_factor(user) if user else 1.0
    xs = np.linspace(0.0, 12.0, 25)
    want = np.maximum(pep._density(model, cfg, D)(xs), 0.0)
    assert csv_rows(out)[1] == [["%.12g" % x, "%.12g" % v]
                                for x, v in zip(xs, want)]
    assert f"# D: {'%.12g' % D}" in out


def test_pdf_counts_the_rows_it_clips(capsys):
    # the fitted M = 1 density is negative at the ten points past 0 of
    # this grid; each row prints 0, and one comment counts them
    code, out, _ = run(capsys, "pdf", "--M", "1", "--model", "g",
                       "--grid", "0:0.00002:11")
    assert code == 0
    xs = np.linspace(0.0, 2e-5, 11)
    raw = pep._density("g", default_config(M=1), 1.0)(xs)
    assert np.count_nonzero(raw < 0) == 10
    assert "# clipped: 10" in out.splitlines()
    assert [r[1] for r in csv_rows(out)[1]] == ["0"] * 11
    # no comment where nothing is clipped
    code, out, _ = run(capsys, "pdf", "--M", "8", "--model", "g",
                       "--grid", "0:4:9")
    assert code == 0 and "clipped" not in out


def test_pdf_refuses_a_density_that_is_not_finite(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "pdf", "--M", "128", "--model", "g",
                             "--grid", "0:400:5")
    assert code == 2 and out == ""
    assert "fitted density is not finite at 2 of 5 points" in err


def test_pdf_sampled_model_scales_with_user_distance(capsys):
    code, out, _ = run(capsys, "pdf", "--M", "3", "--model", "mc",
                       "--grid", "0:2:40", "--user", "1",
                       "--samples", "200000", "--seed", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 40
    xs = np.array([float(r[0]) for r in rows])
    fs = np.array([float(r[1]) for r in rows])
    # q = s / sqrt(125), so the histogram mean sits near mu1 / sqrt(125)
    mean = float(np.trapezoid(fs * xs, xs))
    assert mean == pytest.approx(3 * math.pi / 4 / math.sqrt(125.0),
                                 rel=0.05)


def test_pep_closed_form_curve(capsys):
    code, out, _ = run(capsys, "pep", "--M", "3", "--method", "general",
                       "--snr", "0:10:5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "snr_db,value,ci_low,ci_high,method"
    assert [r[4] for r in rows] == ["general"] * 3
    vals = [float(r[1]) for r in rows]
    assert vals[0] > vals[1] > vals[2]
    assert "# event:" in out and "vartheta=5.366563146" in out


def test_pep_method_restrictions(capsys):
    assert run(capsys, "pep", "--M", "3", "--method", "m1",
               "--snr", "0:10:5")[0] == 2
    assert run(capsys, "pep", "--M", "3", "--method", "quad",
               "--pdf-model", "dr", "--snr", "0:10:5")[0] == 2
    assert run(capsys, "pep", "--M", "3", "--method", "general",
               "--snr", "10:0:5")[0] == 2
    assert run(capsys, "pep", "--M", "3", "--method", "general",
               "--snr", "0:10:5", "--user", "7")[0] == 2


@pytest.mark.parametrize("argv", [
    ("moments", "--samples", "5000"),
    ("pdf", "--model", "mc", "--grid", "0:5:10", "--samples", "0"),
    ("ber", "--method", "mc", "--snr", "0:10:5", "--frames", "0"),
    ("pep", "--method", "mc", "--snr", "0:10:5", "--trials", "0"),
])
def test_out_of_range_counts_are_argument_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "usage:" in err


def test_pep_simulation_reports_an_interval(capsys):
    code, out, _ = run(capsys, "pep", "--M", "3", "--method", "mc",
                       "--snr", "0:6:3", "--trials", "20000", "--seed", "2")
    assert code == 0
    _, rows = csv_rows(out)
    for r in rows:
        lo, v, hi = float(r[2]), float(r[1]), float(r[3])
        assert 0.0 <= lo <= v <= hi <= 1.0
        assert r[4] == "mc"


def test_pep_simulation_counts_underflowed_standard_errors(capsys):
    # the 40 dB row's se underflows to 0 (see test_channel); one comment
    # counts such rows, and a run without one carries no comment
    argv = ("pep", "--M", "64", "--method", "mc", "--trials", "20000",
            "--seed", "7")
    code, out, _ = run(capsys, *argv, "--snr", "30:40:10")
    assert code == 0
    assert "# se underflowed: 1" in out.splitlines()
    _, rows = csv_rows(out)
    assert rows[1][1] == rows[1][2] == rows[1][3]
    code, out, _ = run(capsys, *argv, "--snr", "30:30:10")
    assert code == 0 and "underflowed" not in out


def test_diversity_report(capsys):
    code, out, _ = run(capsys, "diversity", "--M", "6", "--user", "2",
                       "--numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic"] == pytest.approx(5.339331778, rel=1e-8)
    assert doc["numeric"]["rel_err"] < 0.05
    assert doc["numeric"]["user"] == 2


def test_diversity_names_an_underflowed_grid_point(capsys):
    code, out, err = run(capsys, "diversity", "--M", "64", "--numeric")
    assert code == 1 and out == ""
    assert err == ("error: the bound underflows float64 at the grid point "
                   "45 dB (its log is -754.197), so the secant slope has no "
                   "value there; use a lower grid\n")


def test_ber_writes_one_file_per_user(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, _, err = run(capsys, "ber", "--M", "3", "--method", "both",
                       "--snr", "0:10:5", "--frames", "20000",
                       "--seed", "5", "--out", str(out_path))
    assert code == 0
    assert "tau: 4 (user 1)" in err and "tau: 8 (user 2)" in err
    for user, tau in ((1, 4), (2, 8)):
        text = (tmp_path / f"curves.u{user}.csv").read_text()
        assert f"# user: {user}" in text and f"# tau: {tau}" in text
        header, rows = csv_rows(text)
        assert header == "snr_db,value,ci_low,ci_high,method"
        bound = {r[0]: float(r[1]) for r in rows if r[4] == "bound"}
        mc = {r[0]: (float(r[1]), float(r[2])) for r in rows if r[4] == "mc"}
        assert set(bound) == set(mc) and len(bound) == 3
        for s in bound:
            assert bound[s] >= mc[s][1]   # bound above the interval floor
        man = manifest_of(text)
        assert man["overrides"]["user"] == user


def test_ber_bound_dominates_simulation_rows(capsys):
    code, out, _ = run(capsys, "ber", "--M", "6", "--method", "both",
                       "--snr", "0:12:4", "--frames", "40000", "--seed", "11")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        _, rows = csv_rows(block)
        bound = {r[0]: float(r[1]) for r in rows if r[4] == "bound"}
        mc = {r[0]: float(r[1]) for r in rows if r[4] == "mc"}
        for s in bound:
            assert bound[s] >= mc[s]


def test_identical_manifests_give_byte_identical_output(capsys):
    args = ("pep", "--M", "2", "--method", "general", "--snr", "0:20:10",
            "--seed", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, third, _ = run(capsys, "pep", "--M", "2", "--method", "general",
                      "--snr", "0:20:10", "--seed", "5")
    assert third != first
    assert manifest_of(first)["seed"] == 4
    assert manifest_of(third)["seed"] == 5


def test_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "7")
    _, out, _ = run(capsys, "fit", "--M", "2")
    assert json.loads(out)["manifest"]["seed"] == 7
    _, out, _ = run(capsys, "fit", "--M", "2", "--seed", "9")
    assert json.loads(out)["manifest"]["seed"] == 9
    monkeypatch.delenv(cli.SEED_ENV)
    _, out, _ = run(capsys, "fit", "--M", "2")
    assert json.loads(out)["manifest"]["seed"] == 0


def test_scenario_file_round_trip(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"M": 4, "sigma2": 0.8}))
    code, out, _ = run(capsys, "moments", "--scenario", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 4 and doc["sigma2"] == 0.8
    assert doc["manifest"]["scenario"] == str(path)
    assert run(capsys, "moments", "--scenario",
               str(tmp_path / "missing.json"))[0] == 2


def test_readme_scenario_example_loads(tmp_path, capsys):
    # the documented format must stay the one SystemConfig reads
    from lisnoma import default_config, load_scenario
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scenario.json"
    path.write_text(block)
    assert load_scenario(path) == default_config()
    code, out, _ = run(capsys, "moments", "--scenario", str(path))
    assert code == 0
    assert json.loads(out)["M"] == 3


@pytest.mark.parametrize("key", ["N0", "L"])
def test_scenario_file_with_a_removed_key_is_an_argument_error(
        tmp_path, capsys, key):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"M": 3, key: 2}))
    code, out, err = run(capsys, "pep", "--scenario", str(path),
                         "--method", "general", "--snr", "0:10:5")
    assert code == 2 and out == ""
    assert repr(key) in err


@pytest.mark.parametrize("argv", [
    ("fit", "--sigma2", "inf"),
    ("pep", "--sigma2", "nan", "--method", "general", "--snr", "0:10:5"),
])
def test_non_finite_scenario_values_are_argument_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("p1", ["1.5", "1.0"])
def test_power_split_without_a_positive_share_is_an_argument_error(capsys,
                                                                   p1):
    code, out, err = run(capsys, "ber", "--method", "bound", "--snr",
                         "0:10:5", "--p1", p1)
    assert code == 2 and out == ""
    assert "positive" in err


def test_scenario_with_a_negative_distance_is_an_argument_error(tmp_path,
                                                                capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"M": 3, "d_R": [5.0, -2.0]}))
    code, out, err = run(capsys, "pep", "--scenario", str(path), "--user",
                         "2", "--method", "general", "--snr", "0:10:5")
    assert code == 2 and out == ""
    assert "positive" in err


def test_validate_honest_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "validate", "--only", "2")
    assert code == 0
    assert "[PASS]" in out and "branch consistency" in out
    # a criterion that fails by construction must turn the exit code red

    def failing(quick=False):
        yield "99", False, "by construction"

    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS + (("99", failing),))
    monkeypatch.setitem(checks.CRITERIA, "99", ("always fails", None))
    code, out, _ = run(capsys, "validate", "--only", "99", "--quick")
    assert code == 1
    assert "[FAIL]" in out and "always fails" in out


def _import_leaves_unloaded(fresh_python, module: str, name: str) -> bool:
    """Whether a fresh `import module` leaves `name` out of sys.modules."""
    code = f"import sys, {module}; sys.exit({name!r} in sys.modules)"
    return fresh_python(code).returncode == 0


@pytest.mark.parametrize("module", ["lisnoma", "lisnoma.cli"])
def test_import_leaves_scipy_optimize_unloaded(fresh_python, module):
    # scipy.optimize costs every command about 0.3 s of start-up; only the
    # union-bound crossing search of the validation suite needs it
    assert _import_leaves_unloaded(fresh_python, module, "scipy.optimize")


@pytest.mark.parametrize("module", ["lisnoma", "lisnoma.cli"])
def test_import_leaves_scipy_special_unloaded(fresh_python, module):
    # the package import costs about 0.2 s and 23 MB resident in its
    # array-API layer; lisnoma._special loads the ufuncs' extension alone,
    # found without importing the scipy package either
    assert _import_leaves_unloaded(fresh_python, module, "scipy.special")
    assert _import_leaves_unloaded(fresh_python, module, "scipy")


@pytest.mark.parametrize("module", ["lisnoma", "lisnoma.cli"])
def test_import_leaves_the_thread_pool_unloaded(fresh_python, module):
    # the Monte Carlo substream pool imports its executor on first use
    assert _import_leaves_unloaded(fresh_python, module, "concurrent.futures")


def test_deterministic_calls_load_no_module(fresh_python):
    # a module a closed form or referee loads on first use would be timed
    # inside the first command or benchmark round that calls it
    code = """if True:
        import sys
        import numpy as np
        import lisnoma
        cfg = lisnoma.default_config(M=3)
        event = lisnoma.build_event(cfg, 1, (1.0, 1.0), -1.0)
        before = set(sys.modules)
        lisnoma.pep_quadrature(cfg, 1, event, snr_db=10.0)
        lisnoma.pep_general(cfg, 1, event, snr_db=10.0)
        lisnoma.pdf_g(np.linspace(0.0, 10.0, 41),
                      lisnoma.fit_gparams(3, cfg.sigma2))
        lisnoma.union_bound_curve(cfg, 2, (0.0, 10.0, 20.0))
        sys.exit(" ".join(sorted(set(sys.modules) - before)) or None)
    """
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr


def test_pep_quadrature_rows_carry_a_relative_tolerance(capsys,
                                                       monkeypatch):
    # at M = 64, 40 dB the PEP is about 8e-185, far below any absolute
    # tolerance; the referee must be asked for a share of the value
    from lisnoma import default_config, pep_general
    asked = []

    def spy(*args, **kwargs):
        asked.append(kwargs["abs_tol"])
        return quadrature(*args, **kwargs)
    quadrature = cli.pep_quadrature
    monkeypatch.setattr(cli, "pep_quadrature", spy)
    code, out, _ = run(capsys, "pep", "--M", "64", "--user", "1",
                       "--method", "quad", "--snr", "40:40:1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][4] == "quad-g"
    cfg = default_config(M=64)
    want = pep_general(cfg, 1, cli._canonical_cli_event(cfg, 1),
                       snr_db=40.0).raw
    assert asked == [pytest.approx(want * 1e-9, rel=1e-12)]
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-8)
