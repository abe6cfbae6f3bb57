import json
from importlib import resources

import numpy as np
import pytest

from relbohm import modes
from relbohm.cli import main
from relbohm.numerics import Grid2D


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(args):
    return main(args)


def test_modes_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["modes", "--config", "two_mode.json", "--out", str(out),
                "--quick"]) == 0
    for name in ("f_grid.csv", "trajectories.csv", "summary.json"):
        assert (out / name).is_file()
    head = (out / "f_grid.csv").read_text().splitlines()
    assert head[0].startswith("#")          # metadata comment block
    assert any(ln.startswith("# config:") for ln in head)
    assert any(ln.startswith("# units:") for ln in head)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pair_events"] == 0
    # equal-weight modes k = 0 and 0.1: mean group velocity is
    # (0 + 0.1/omega(0.1)) / 2
    expect = 0.5 * 0.1 / (1.0 + 0.01) ** 0.5
    assert summary["mean_group_velocity"] == pytest.approx(expect, abs=1e-12)


def test_modes_duplicate_k_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {
        "k": [0.0, 0.0], "phi": [[1, 0], [1, 0]],
        "grid": {"x_min": -1, "x_max": 1, "n_x": 11,
                 "t_min": 0, "t_max": 1, "n_t": 11}})
    assert run(["modes", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_modes_cli_matches_library(tmp_path):
    cfg = json.loads(resources.files("relbohm").joinpath(
        "configs", "two_mode.json").read_text())
    state = modes.ModeSet(k=cfg["k"],
                          phi=[complex(re, im) for re, im in cfg["phi"]])
    _, traj = modes.trajectories(state, Grid2D(**cfg["grid"]),
                                 cfg["n_levels"])
    out = tmp_path / "out"
    assert run(["modes", "--config", "two_mode.json", "--out", str(out)]) == 0
    written = np.loadtxt(out / "trajectories.csv", delimiter=",",
                         comments="#", skiprows=4, ndmin=2)
    expect = np.column_stack(traj.columns()).astype(float)
    assert expect.shape[0] > 0
    np.testing.assert_array_equal(written, expect)


_GRID = {"x_min": -1, "x_max": 1, "n_x": 11, "t_min": 0, "t_max": 1,
         "n_t": 11}
_DIRAC = {"kind": "dirac", "n_modes": 2, "seed": 1, "n_points": 2}
_FW = {"kind": "fw", "field": "gaussian", "n_points": 2, "box_n": 9}
_K40 = {"shape": "cos2", "k_cut": 40.0, "gl_order": 8, "x_scale": 4.0}


@pytest.mark.parametrize("command, payload, code", [
    ("modes", {"k": [0.0, 0.1], "phi": [[1, 0], [1, 0]], "grid": _GRID,
               "n_levels": "many"}, 2),
    ("modes", {"k": ["nan", 0.1], "phi": [[1, 0], [1, 0]], "grid": _GRID},
     2),
    ("explode", {"packet": {"shape": "cos2", "k_cut": 40.0},
                 "density_x": {"min": -3.0, "n": 51}, "grid": _GRID}, 2),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"max": 4.0, "n": 33}}, 2),
    ("spin", {"kind": "dirac", "n_modes": 2, "seed": 1, "n_points": 0}, 2),
    ("spin", {**_DIRAC, "h": "x"}, 2),
    ("spin", {**_DIRAC, "h": 0}, 2),
    ("spin", {**_DIRAC, "point_range": "x"}, 2),
    ("spin", {**_DIRAC, "point_seed": "x"}, 2),
    ("spin", {**_FW, "box_n": 0}, 2),
    ("spin", {**_FW, "box_n": 1}, 2),
    ("spin", {**_FW, "box_half": "x"}, 2),
    ("spin", {**_FW, "box_half": 0}, 2),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"min": "nan", "max": 4.0, "n": 33}}, 2),
    ("explode", {"packet": {"shape": "cos2", "k_cut": 40.0, "gl_order": 8,
                            "x_scale": 4.0},
                 "t_values": ["nan"], "grid": _GRID}, 2),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"min": -4.0, "max": 4.0, "n": 0}}, 2),
    ("modes", {"k": [0.0, 0.1], "phi": [[1, 0], [1, 0]],
               "grid": {**_GRID, "x_max": "inf"}}, 2),
    ("spin", {**_FW, "field": []}, 2),
    ("explode", {"packet": {"shape": "cos2", "a": "nan", "k_cut": 40.0},
                 "grid": _GRID}, 2),
    ("explode", {"packet": {"shape": "cos2", "k_cut": 40.0, "gl_order": 8,
                            "x_scale": 4.0},
                 "density_x": {"min": -3.0, "max": 3.0, "n": 0},
                 "grid": _GRID}, 2),
    ("spin", {**_DIRAC, "k_max": "nan"}, 2),
    # an FFT row past 2^22 points: a huge t would allocate gigabytes
    ("explode", {"packet": _K40, "t_values": [1e6], "grid": _GRID}, 2),
    ("explode", {"packet": _K40, "p_times": [1e6], "grid": _GRID}, 2),
    # well formed, but the k quadrature aliases rho within the decay window
    ("explode", {"packet": {"shape": "cos2", "gl_order": 8, "x_scale": 0.5},
                 "grid": _GRID}, 3),
    # well formed, but the dense W kernel cannot take 40 970 k-nodes
    ("nearnr", {"packet": {"shape": "cos2", "a": 1.0}}, 2),
    # well formed, but a sample point is too near a node of psibar psi
    ("spin", {"kind": "dirac", "n_modes": 2, "seed": 13, "n_points": 20,
              "point_seed": 0}, 3),
    ("explode", {"packet": "cos2", "grid": _GRID}, 2),
    ("nearnr", {"packet": None}, 2),
    ("nearnr", {"packet": [1, 2]}, 2),
    ("explode", {"packet": _K40, "grid": {**_GRID, "t_max": 1e6}}, 2),
    # a balance grid past 2^21 points: box_n^3 floats with no bound
    ("spin", {**_FW, "box_n": 129}, 2),
    ("spin", {**_FW, "box_n": 10 ** 6}, 2),
    # the moments' FFT row at this t would need 2^30 points
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "t": 1e9}, 2),
], ids=["modes-n_levels-string", "modes-nan-k", "explode-density_x-no-max",
        "nearnr-x-no-min", "spin-dirac-zero-points", "spin-dirac-h-string",
        "spin-dirac-h-zero", "spin-dirac-point_range-string",
        "spin-dirac-point_seed-string",
        "spin-fw-box_n-zero", "spin-fw-box_n-one", "spin-fw-box_half-string",
        "spin-fw-box_half-zero", "nearnr-x-min-nan", "explode-t_values-nan",
        "nearnr-x-n-zero", "modes-grid-x_max-inf", "spin-fw-field-list",
        "explode-packet-a-nan", "explode-density_x-n-zero",
        "spin-dirac-k_max-nan", "explode-t_values-fft-row-too-large",
        "explode-p_times-fft-row-too-large", "explode-coarse-k-quadrature",
        "nearnr-packet-too-many-k-nodes", "spin-dirac-point-near-node",
        "explode-packet-string", "nearnr-packet-null", "nearnr-packet-list",
        "explode-grid-t-fft-row-too-large", "spin-fw-box_n-over-limit",
        "spin-fw-box_n-huge", "nearnr-t-fft-row-too-large"])
def test_malformed_or_unconverged_config_exit_code(tmp_path, command,
                                                   payload, code):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == code
    if code == 2:
        assert not out.exists()


def test_explode_fft_row_limit_is_named(tmp_path, capsys):
    for far in ({"p_times": [1e6], "grid": _GRID},
                {"grid": {**_GRID, "t_min": -1e6}}):
        cfg = write_cfg(tmp_path, "far.json", {"packet": _K40, **far})
        assert run(["explode", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "limit of 2^22" in capsys.readouterr().err


def test_spin_fw_box_limit_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "big.json", {**_FW, "box_n": 129})
    assert run(["spin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "limit of 2^21" in capsys.readouterr().err
    # --quick caps box_n at 41 first, so the same config runs
    assert run(["spin", "--config", cfg, "--out", str(tmp_path / "q"),
                "--quick"]) == 0


def test_missing_config_is_config_error(tmp_path):
    assert run(["modes", "--config", "no_such_file.json",
                "--out", str(tmp_path / "o")]) == 2


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert run(["modes", "--config", str(p),
                "--out", str(tmp_path / "o")]) == 2


def test_missing_out_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["modes", "--config", "two_mode.json"])
    assert exc.value.code == 2


def test_threads_must_be_positive(tmp_path):
    assert run(["modes", "--config", "two_mode.json",
                "--out", str(tmp_path / "o"), "--threads", "0"]) == 2


def test_explode_negative_time_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "neg.json", {
        "packet": {"shape": "cos2", "a": 1.0},
        "t_values": [-0.5],
        "grid": {"x_min": 0, "x_max": 1, "n_x": 11,
                 "t_min": 0, "t_max": 1, "n_t": 11}})
    assert run(["explode", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 2


def test_explode_requires_cos2(tmp_path):
    cfg = write_cfg(tmp_path, "g.json", {
        "packet": {"shape": "gaussian", "sigma_k": 0.05},
        "grid": {"x_min": 0, "x_max": 1, "n_x": 11,
                 "t_min": 0, "t_max": 1, "n_t": 11}})
    assert run(["explode", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 2


def test_explode_small_run(tmp_path):
    cfg = write_cfg(tmp_path, "small.json", {
        "packet": {"shape": "cos2", "a": 1.0, "k_cut": 40.0,
                   "gl_order": 8, "x_scale": 4.0},
        "t_values": [0.0], "p_times": [0.0, 1.0], "n_levels": 20,
        "density_x": {"min": -3.0, "max": 3.0, "n": 51},
        "grid": {"x_min": 0.0, "x_max": 1.5, "n_x": 81,
                 "t_min": 0.0, "t_max": 1.0, "n_t": 61}})
    out = tmp_path / "out"
    assert run(["explode", "--config", cfg, "--out", str(out)]) == 0
    th = json.loads((out / "thresholds.json").read_text())
    assert th["x_th"] == pytest.approx(0.5565, abs=5e-3)
    assert th["x_0"] == pytest.approx(0.7249, abs=5e-3)
    assert th["charge_inside"] == pytest.approx(1.0, abs=1e-4)
    assert th["acausal"]["0"] < 1e-6
    assert (out / "density_t0.csv").is_file()
    assert (out / "acausal.csv").is_file()
    assert (out / "fronts.csv").is_file()


def test_nearnr_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["nearnr", "--config", "gauss.json", "--out", str(out),
                "--quick"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eq22_max_residual"] < 1e-9
    assert abs(summary["moment0"]) < 1e-8
    assert summary["w_approx_rel"] < 0.05
    assert summary["narrow_k_regime"] is True
    assert summary["pushforward"]["improvement"] > 5.0


def test_nearnr_moments_on_wide_cos2(tmp_path):
    # 1 280 k-nodes, within the W kernel's limit; rho - rho_nw is too
    # sharp for fixed x panels over the decay window
    cfg = write_cfg(tmp_path, "wide.json", {
        "packet": {"shape": "cos2", "k_cut": 100.0, "x_scale": 1.0},
        "x": {"min": -3.0, "max": 3.0, "n": 31}})
    out = tmp_path / "out"
    assert run(["nearnr", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["moment0"]) <= 1e-12
    assert abs(summary["moment1"]) <= 1e-12


def test_nearnr_wide_sigma_warns(tmp_path):
    cfg = write_cfg(tmp_path, "wide.json", {
        "packet": {"shape": "gaussian", "sigma_k": 0.5,
                   "total_charge": 1.0},
        "x": {"min": -4.0, "max": 4.0, "n": 33}, "t": 0.0})
    with pytest.warns(RuntimeWarning, match="narrow-k regime"):
        assert run(["nearnr", "--config", cfg,
                    "--out", str(tmp_path / "o"), "--quick"]) == 0


def test_spin_dirac_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["spin", "--config", "dirac3.json", "--out", str(out),
                "--quick"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["sign_dictionary_suspect"] is False
    assert report["mass_identity"]["residual_h"] < 1e-5
    assert report["eom"]["residual_h"] < 1e-5


def test_spin_fw_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["spin", "--config", "fw_hedgehog.json", "--out", str(out),
                "--quick"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spin_tensor_residual"] < 1e-10
    assert report["curl"]["residual_h2"] < report["curl"]["residual_h"]
    assert report["ensemble_balance"] < 1e-6


def test_spin_unknown_kind(tmp_path):
    cfg = write_cfg(tmp_path, "k.json", {"kind": "pauli"})
    assert run(["spin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_modes_thread_determinism(tmp_path):
    outs = []
    for n in ("1", "8"):
        out = tmp_path / f"out{n}"
        assert run(["modes", "--config", "two_mode.json", "--out", str(out),
                    "--quick", "--threads", n]) == 0
        outs.append(out)
    for name in ("f_grid.csv", "trajectories.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_nearnr_thread_determinism(tmp_path):
    outs = []
    for n in ("1", "4"):
        out = tmp_path / f"out{n}"
        assert run(["nearnr", "--config", "gauss.json", "--out", str(out),
                    "--quick", "--threads", n]) == 0
        outs.append(out)
    for name in ("correction.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
