import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbohm import dirac, modes, nearnr, packets
from relbohm.cli import _lambert_fit, main
from relbohm.numerics import Grid2D, SizeError


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
    _, traj, _ = modes.analyse(state, Grid2D(**cfg["grid"]),
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
_K40 = {"shape": "cos2", "k_cut": 40.0}
_GAUSS = {"shape": "gaussian", "k0": 0.1, "sigma_k": 0.05}


@pytest.mark.parametrize("command, payload, code, message", [
    ("modes", {"k": [0.0, 0.1], "phi": [[1, 0], [1, 0]], "grid": _GRID,
               "n_levels": "many"}, 2, None),
    ("modes", {"k": ["nan", 0.1], "phi": [[1, 0], [1, 0]], "grid": _GRID},
     2, None),
    ("explode", {"packet": {"shape": "cos2", "k_cut": 40.0},
                 "density_x": {"min": -3.0, "n": 51}, "grid": _GRID}, 2, None),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"max": 4.0, "n": 33}}, 2, None),
    ("spin", {"kind": "dirac", "n_modes": 2, "seed": 1, "n_points": 0}, 2,
     None),
    ("spin", {**_DIRAC, "point_range": "x"}, 2, None),
    ("spin", {**_DIRAC, "point_seed": "x"}, 2, None),
    ("spin", {**_FW, "box_n": 0}, 2, None),
    ("spin", {**_FW, "box_n": 1}, 2, None),
    ("spin", {**_FW, "box_half": "x"}, 2, None),
    ("spin", {**_FW, "box_half": 0}, 2, None),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"min": "nan", "max": 4.0, "n": 33}}, 2, None),
    ("explode", {"packet": _K40, "t_values": ["nan"], "grid": _GRID}, 2, None),
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "x": {"min": -4.0, "max": 4.0, "n": 0}}, 2, None),
    ("modes", {"k": [0.0, 0.1], "phi": [[1, 0], [1, 0]],
               "grid": {**_GRID, "x_max": "inf"}}, 2, None),
    ("spin", {**_FW, "field": []}, 2, None),
    ("explode", {"packet": {"shape": "cos2", "a": "nan", "k_cut": 40.0},
                 "grid": _GRID}, 2, None),
    ("explode", {"packet": _K40,
                 "density_x": {"min": -3.0, "max": 3.0, "n": 0},
                 "grid": _GRID}, 2, None),
    ("spin", {**_DIRAC, "k_max": "nan"}, 2, None),
    ("spin", {**_DIRAC, "k_max": -3}, 2, None),
    ("spin", {**_DIRAC, "k_max": 0}, 2, None),
    # an FFT row past 2^22 points: a huge t would allocate gigabytes
    ("explode", {"packet": _K40, "t_values": [1e6], "grid": _GRID}, 2, None),
    ("explode", {"packet": _K40, "p_times": [1e6], "grid": _GRID}, 2, None),
    # well formed, but the t = 0 FFT row's end correction at k_cut = 5
    # falls short of the k rule of the x_0 scan
    ("explode", {"packet": {"shape": "cos2", "k_cut": 5.0}, "grid": _GRID},
     3, None),
    # well formed, but psibar psi < 0 at all four sample points
    ("spin", {"kind": "dirac", "n_modes": 2, "seed": 13, "n_points": 4,
              "point_seed": 151}, 3, None),
    ("explode", {"packet": "cos2", "grid": _GRID}, 2, None),
    ("nearnr", {"packet": None}, 2, None),
    ("nearnr", {"packet": [1, 2]}, 2, None),
    ("explode", {"packet": _K40, "grid": {**_GRID, "t_max": 1e6}}, 2, None),
    # past 128 Gauss-Legendre nodes per face axis: no bound on the rule
    ("spin", {**_FW, "box_n": 129}, 2, None),
    ("spin", {**_FW, "box_n": 10 ** 6}, 2, None),
    # the moments' FFT row at this t would need 2^30 points
    ("nearnr", {"packet": {"shape": "gaussian", "sigma_k": 0.05},
                "t": 1e9}, 2, None),
    # well formed, but k_cut is too small to resolve the zero of rho(x, 0)
    ("explode", {"packet": {"shape": "cos2", "a": 0.05, "k_cut": 20},
                 "grid": _GRID}, 3, None),
    # a reach whose k rule would pass 2^22 nodes
    ("explode", {"packet": _K40, "grid": _GRID,
                 "density_x": {"min": -1e7, "max": 1e7, "n": 5}}, 2, None),
    ("explode", {"packet": _K40, "grid": {**_GRID, "x_max": 1e7}}, 2, None),
    ("nearnr", {"packet": _GAUSS, "x": {"min": -1e7, "max": 1e7, "n": 5}},
     2, None),
    ("explode", {"packet": {"shape": "cos2", "a": 1e7, "k_cut": 40.0},
                 "grid": _GRID}, 2, None),
    # a row or rule whose size passes the float range
    ("explode", {"packet": _K40, "t_values": [1e308], "grid": _GRID}, 2, None),
    ("explode", {"packet": _K40, "p_times": [1e308], "grid": _GRID}, 2, None),
    ("nearnr", {"packet": _GAUSS, "t": 1e308}, 2, None),
    # a window whose width max - min overflows
    ("explode", {"packet": _K40, "grid": _GRID,
                 "density_x": {"min": -1e308, "max": 1e308, "n": 5}}, 2,
     "density_x window"),
    ("modes", {"k": [0.0, 0.1], "phi": [[1, 0], [1, 0]],
               "grid": {**_GRID, "x_min": -1e308, "x_max": 1e308}}, 2,
     "grid: x window"),
    ("explode", {"packet": _K40,
                 "grid": {**_GRID, "t_min": -1e308, "t_max": 1e308}}, 2,
     "grid: t window"),
    ("nearnr", {"packet": _GAUSS, "x": {"min": -1e308, "max": 1e308,
                                        "n": 5}}, 2, "x window"),
], ids=["modes-n_levels-string", "modes-nan-k", "explode-density_x-no-max",
        "nearnr-x-no-min", "spin-dirac-zero-points",
        "spin-dirac-point_range-string",
        "spin-dirac-point_seed-string",
        "spin-fw-box_n-zero", "spin-fw-box_n-one", "spin-fw-box_half-string",
        "spin-fw-box_half-zero", "nearnr-x-min-nan", "explode-t_values-nan",
        "nearnr-x-n-zero", "modes-grid-x_max-inf", "spin-fw-field-list",
        "explode-packet-a-nan", "explode-density_x-n-zero",
        "spin-dirac-k_max-nan", "spin-dirac-k_max-negative",
        "spin-dirac-k_max-zero", "explode-t_values-fft-row-too-large",
        "explode-p_times-fft-row-too-large", "explode-short-end-correction",
        "spin-dirac-empty-domain",
        "explode-packet-string", "nearnr-packet-null", "nearnr-packet-list",
        "explode-grid-t-fft-row-too-large", "spin-fw-box_n-over-limit",
        "spin-fw-box_n-huge", "nearnr-t-fft-row-too-large",
        "explode-unresolved-narrow-packet", "explode-density_x-rule-too-large",
        "explode-grid-x-rule-too-large", "nearnr-x-rule-too-large",
        "explode-huge-a-rule-too-large", "explode-t_values-past-float-range",
        "explode-p_times-past-float-range", "nearnr-t-past-float-range",
        "explode-density_x-step-past-float-range",
        "modes-grid-width-past-float-range",
        "explode-grid-width-past-float-range",
        "nearnr-x-width-past-float-range"])
def test_malformed_or_unconverged_config_exit_code(tmp_path, capsys, command,
                                                   payload, code, message):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == code
    if code == 2:
        assert not out.exists()
    if message is not None:
        assert message in capsys.readouterr().err


def test_nearnr_default_cos2_runs(tmp_path):
    # the default cos2 packet's window takes a rule of 8 592 k-nodes; W
    # comes from the FFT row, so no node limit applies.  The packet is
    # far from the narrow-k regime, and eq. 22 still closes
    cfg = write_cfg(tmp_path, "cos2.json", {"packet": {"shape": "cos2",
                                                       "a": 1.0}})
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning, match="narrow-k regime"):
        assert run(["nearnr", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["narrow_k_regime"] is False
    assert summary["eq22_max_residual"] < 1e-9


def test_explode_unresolved_packet_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "narrow.json", {
        "packet": {"shape": "cos2", "a": 0.05, "k_cut": 20}, "grid": _GRID})
    assert run(["explode", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 3
    assert "a = 0.05, k_cut = 20" in capsys.readouterr().err


def test_explode_root_that_does_not_converge_exits_3(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(packets, "NEWTON_STEPS", 1)
    cfg = write_cfg(tmp_path, "k40.json", {"packet": _K40, "grid": _GRID})
    out = tmp_path / "o"
    assert run(["explode", "--config", cfg, "--out", str(out)]) == 3
    assert "rho(x, 0): no root to" in capsys.readouterr().err
    assert not out.exists()


def test_explode_fft_row_limit_is_named(tmp_path, capsys):
    for far in ({"p_times": [1e6], "grid": _GRID},
                {"grid": {**_GRID, "t_min": -1e6}}):
        cfg = write_cfg(tmp_path, "far.json", {"packet": _K40, **far})
        assert run(["explode", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "limit of 2^22" in capsys.readouterr().err


@pytest.mark.parametrize("refine", [1, 2])
def test_fft_row_check_counts_the_row_built(monkeypatch, refine):
    # the library's guard holds the n of the row _fft_row makes against
    # the limit, error-bar rows (refine = 2) included
    packet = packets.Packet(packets.PacketSpec(shape="cos2"), k_cut=40.0)
    times = (0.0, 0.75, 2.0, 40.0)
    sizes = [packets._fft_row(packet, t, refine, nw=True).f.size
             for t in times]
    for t, n in zip(times, sizes):
        monkeypatch.setattr(packets, "FFT_MAX_POINTS", n)
        assert packets._fft_row(packet, t, refine, nw=True).f.size == n
        monkeypatch.setattr(packets, "FFT_MAX_POINTS", n - 1)
        with pytest.raises(SizeError, match=f"needs {n} points"):
            packets._fft_row(packet, t, refine, nw=True)
    monkeypatch.undo()
    # a t whose box passes the float range is a size error too
    with pytest.raises(SizeError, match="FFT row"):
        packets._fft_row(packet, 1e308, refine, nw=True)


def test_size_limit_met_after_other_stages(tmp_path, monkeypatch, capsys):
    # the bundled cos2 run builds every refine = 1 row and every rule it
    # needs, and computes x_th, the densities and P, before P's error bar
    # asks for the refine = 2 row at t = 0, one point past the limit
    packet = packets.Packet(packets.PacketSpec(shape="cos2", a=1.0))
    n = packets.fft_row_size(packet, 0.0, refine=2)[1]
    assert packets.fft_row_size(packet, 2.0)[1] < n - 1
    monkeypatch.setattr(packets, "FFT_MAX_POINTS", n - 1)
    out = tmp_path / "o"
    assert run(["explode", "--config", "cos2.json", "--out", str(out),
                "--quick"]) == 2
    assert f"FFT row at |t| = 0 needs {n} points" in capsys.readouterr().err
    assert not out.exists()


def test_spin_fw_box_limit_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "big.json", {**_FW, "box_n": 129})
    assert run(["spin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("over the limit of 128 Gauss-Legendre nodes per face axis"
            in capsys.readouterr().err)
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
        "packet": {"shape": "cos2", "a": 1.0, "k_cut": 40.0},
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


@pytest.mark.parametrize("a", [12.0, 20.0])
def test_explode_wide_cos2(tmp_path, a):
    # the spectrum's phases e^{+-ika} widen every reach rule to 2a: a
    # rule sized by the density window alone (192 and 144 k-nodes) parts
    # from the FFT row by 6e-7 and 4e-5 in rho, past ENGINE_GAP_TOL
    cfg = write_cfg(tmp_path, "wide.json", {
        "packet": {"shape": "cos2", "a": a},
        "t_values": [0.0], "p_times": [0.0], "n_levels": 10,
        "density_x": {"min": -5.0, "max": 5.0, "n": 51},
        "grid": {"x_min": 0.0, "x_max": 15.0, "n_x": 31,
                 "t_min": 0.0, "t_max": 1.0, "n_t": 11}})
    out = tmp_path / "out"
    assert run(["explode", "--config", cfg, "--out", str(out)]) == 0
    th = json.loads((out / "thresholds.json").read_text())
    assert abs(th["charge_tail"]) < 1e-4 * abs(th["charge_inside"])
    assert th["charge_inside"] == pytest.approx(1.0, abs=1e-3)
    assert th["charge_nw_inside"] == pytest.approx(1.0, abs=1e-3)
    assert 0.0 < th["x_th"] < th["x_0"] < a


def _table(path):
    """(header, rows) of an output CSV."""
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return lines[0].split(","), np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_lambert_fit_working_set_is_bounded():
    # the explode-cos2 benchmark grid: a running minimum per family
    # member over (vertices x samples), 5.0 MB when the (members x
    # vertices x samples) distance cube was built
    p = packets.Packet(packets.PacketSpec(shape="cos2", a=1.0))
    grid = Grid2D(0.0, 3.0, 121, 0.0, 1.5, 81)
    _, traj = packets.annihilation_fronts(p, grid, 20)
    tracemalloc.start()
    try:
        summary, _ = _lambert_fit(p, traj, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["within_one_cell"]
    assert peak <= 3 * 2 ** 20


def test_explode_densities_past_the_decay_window(tmp_path):
    # the benchmark's packet keys once set a 6 576-node rule that capped
    # every view: at x = +-60 it gave rho = 0.117, 4 % of max rho, where
    # the field is 2.8e-17
    cfg = write_cfg(tmp_path, "far.json", {
        "packet": {"shape": "cos2", "a": 1.0, "gl_order": 24,
                   "x_scale": 0.5},
        "t_values": [0.0], "p_times": [0.0], "n_levels": 5,
        "density_x": {"min": -60.0, "max": 60.0, "n": 5},
        "grid": {**_GRID, "x_min": 0.0, "x_max": 3.0}})
    out = tmp_path / "out"
    assert run(["explode", "--config", cfg, "--out", str(out)]) == 0
    names, rows = _table(out / "density_t0.csv")
    col = dict(zip(names, rows.T))
    np.testing.assert_array_equal(col["x"], [-60.0, -30.0, 0.0, 30.0, 60.0])
    far = np.abs(col["x"]) > 0.0
    for name in ("rho", "rho_nw", "j"):
        assert np.max(np.abs(col[name][far])) <= 1e-12 * col["rho"][2]


def test_explode_rows_past_a_block(tmp_path):
    # F-grid times near t = 2 000 take rows of over 2^19 points on a box
    # of 4 096, more than a FrontKernel block holds: each is made alone
    # (split into more parts than rows, they once met an empty time array
    # and exited 1 with a traceback)
    cfg = write_cfg(tmp_path, "late.json", {
        "packet": {"shape": "cos2", "a": 1.0},
        "t_values": [0.0], "p_times": [0.0], "n_levels": 2,
        "density_x": {"min": -5.0, "max": 5.0, "n": 11},
        "grid": {"x_min": 0.0, "x_max": 3.0, "n_x": 5,
                 "t_min": 1999.0, "t_max": 2000.0, "n_t": 2}})
    p = packets.Packet(packets.PacketSpec(shape="cos2", a=1.0))
    assert packets.fft_row_size(p, 1999.0)[1] > 2 ** 19
    out = tmp_path / "out"
    assert run(["explode", "--config", cfg, "--out", str(out)]) == 0
    names, rows = _table(out / "fronts.csv")
    assert rows.size and np.all(np.isfinite(rows[:, names.index("x")]))


def _outputs(out):
    """Each output file's lines, the config-hash line dropped."""
    return {path.name: [ln for ln in path.read_text().splitlines()
                        if not ln.startswith("# config:")
                        and '"config_hash"' not in ln]
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command, payload", [
    ("explode", {"packet": {"shape": "cos2", "a": 1.0}, "t_values": [0.5],
                 "p_times": [0.5], "n_levels": 5,
                 "density_x": {"min": -3.0, "max": 3.0, "n": 7},
                 "grid": {**_GRID, "x_min": 0.0, "x_max": 3.0}}),
    ("nearnr", {"packet": _GAUSS, "x": {"min": -20.0, "max": 20.0, "n": 41},
                "t": 0.3}),
])
def test_rule_keys_are_ignored(tmp_path, command, payload):
    # the benchmark's explode configs still carry gl_order and x_scale;
    # like any unknown key they change nothing but the config hash
    outs = []
    for keys in ({}, {"gl_order": 24, "x_scale": 0.5}):
        cfg = write_cfg(tmp_path, "cfg.json", {
            **payload, "packet": {**payload["packet"], **keys}})
        out = tmp_path / f"out{len(outs)}"
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append(_outputs(out))
    assert outs[0] == outs[1]


def test_engine_check_names_both_engines(tmp_path, capsys):
    # at k_cut = 5 the packet's own rule (336 nodes), which zero_crossings
    # checks first, is right and the FFT row's end correction is off; the
    # message must not blame the k rule alone
    nodes = packets.Packet(packets.PacketSpec(shape="cos2", a=1.0),
                           k_cut=5.0).k.size
    cfg = write_cfg(tmp_path, "k5.json", {
        "packet": {"shape": "cos2", "a": 1.0, "k_cut": 5.0},
        "density_x": {"min": -3.0, "max": 3.0, "n": 31}, "grid": _GRID})
    assert run(["explode", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"Packet.fields on {nodes} k-nodes and the t = 0 FFT row" in err
    assert "end correction at k_cut = 5" in err


def test_non_finite_csv_value_exits_3(tmp_path, capsys, monkeypatch):
    real = nearnr.correction_field

    def nan_density(*args):
        field = real(*args)
        field.rho[3] = np.nan
        return field

    monkeypatch.setattr(nearnr, "correction_field", nan_density)
    out = tmp_path / "out"
    assert run(["nearnr", "--config", "gauss.json", "--out", str(out),
                "--quick"]) == 3
    err = capsys.readouterr().err
    assert "column rho of" in err and "correction.csv" in err
    assert not (out / "correction.csv").exists()


def test_nearnr_density_floor_nan_is_written(tmp_path):
    # sigma_k 0.28 over the default x window: at the window's edges
    # rho / max rho ~ exp(-sigma_k^2 x^2) < 1e-12, so f and x_mapped =
    # x + f are NaN there, and only those flagged columns
    cfg = write_cfg(tmp_path, "floor.json", {
        "packet": {"shape": "gaussian", "sigma_k": 0.28}})
    out = tmp_path / "out"
    assert run(["nearnr", "--config", cfg, "--out", str(out),
                "--quick"]) == 0
    lines = [ln for ln in (out / "correction.csv").read_text().splitlines()
             if not ln.startswith("#")]
    names = lines[0].split(",")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    nan_cols = {n for n, col in zip(names, table.T) if np.isnan(col).any()}
    assert nan_cols == {"f", "x_mapped"}


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


def test_nearnr_pushforward_null_where_rho_vanishes(tmp_path):
    # by t = 30 rho has a zero in the pushforward window, where the map is
    # undefined: pushforward is null, as outside the narrow-k regime
    cfg = json.loads(resources.files("relbohm").joinpath(
        "configs", "gauss.json").read_text())
    path = write_cfg(tmp_path, "late.json", {**cfg, "t": 30.0})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="pushforward is null"):
        assert run(["nearnr", "--config", path, "--out", str(out)]) == 0
    assert (out / "correction.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["narrow_k_regime"] is True
    assert summary["pushforward"] is None


def test_nearnr_moments_on_wide_cos2(tmp_path):
    # rho - rho_nw is too sharp for fixed x panels over the decay window
    cfg = write_cfg(tmp_path, "wide.json", {
        "packet": {"shape": "cos2", "k_cut": 100.0},
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


@pytest.mark.parametrize("payload", [
    {"packet": {"shape": "gaussian", "sigma_k": 0.29, "k0": 0.5}, "t": 10.0},
    {"packet": {"shape": "cos2", "a": 1.0, "k_cut": 40.0}},
], ids=["gaussian-k0-late", "cos2-narrow-box"])
def test_nearnr_narrow_k_regime_follows_the_measured_errors(tmp_path,
                                                            payload):
    # sigma_k < 0.3, yet the expansion misses by O(1): the flag, the
    # warning and the pushforward gate follow the measured errors
    cfg = write_cfg(tmp_path, "far.json", payload)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="narrow-k regime"):
        assert run(["nearnr", "--config", cfg, "--out", str(out),
                    "--quick"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert max(summary["w_approx_rel"], summary["timeform_rel_27b"]) > 0.25
    assert summary["narrow_k_regime"] is False
    assert summary.get("pushforward") is None


def _dirac_report(out):
    return json.loads((out / "report.json").read_text())


def _within_bound(report):
    return all(report[name]["max_residual_over_bound"] <= 1.0
               for name in ("mass_identity", "eom"))


def test_spin_dirac_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["spin", "--config", "dirac3.json", "--out", str(out),
                "--quick"]) == 0
    report = _dirac_report(out)
    assert report["converged"] is True
    assert report["n_points"] == 6
    assert report["excluded_points"] == 0
    assert report["min_density_ratio"] > 0.0
    assert _within_bound(report)
    # exact jets: both identities close to rounding level
    assert report["mass_identity"]["max_residual"] < 1e-13
    assert report["eom"]["max_residual"] < 1e-13


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spin_dirac_single_plane_wave(tmp_path, seed):
    cfg = write_cfg(tmp_path, "one.json", {"kind": "dirac", "n_modes": 1,
                                           "seed": seed, "n_points": 4})
    out = tmp_path / "out"
    assert run(["spin", "--config", cfg, "--out", str(out)]) == 0
    report = _dirac_report(out)
    assert report["converged"] is True and report["excluded_points"] == 0
    assert report["mass_identity"]["max_residual"] < 1e-14
    assert report["eom"]["max_residual"] < 1e-14


def test_spin_dirac_negative_density_points_are_excluded(tmp_path):
    # psibar psi / |psi|^2 is -0.25, -0.23 and -0.17 at three of the 20
    # points: outside the convective theory's domain, not near a node
    cfg = write_cfg(tmp_path, "s13.json", {"kind": "dirac", "n_modes": 2,
                                           "seed": 13, "n_points": 20,
                                           "point_seed": 0})
    out = tmp_path / "out"
    assert run(["spin", "--config", cfg, "--out", str(out)]) == 0
    report = _dirac_report(out)
    assert report["excluded_points"] == 3
    assert report["min_density_ratio"] == pytest.approx(-0.2457, abs=1e-4)
    assert _within_bound(report)


def test_spin_dirac_empty_domain_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "empty.json", {"kind": "dirac", "n_modes": 2,
                                             "seed": 13, "n_points": 4,
                                             "point_seed": 151})
    out = tmp_path / "out"
    assert run(["spin", "--config", cfg, "--out", str(out)]) == 3
    assert "empty domain" in capsys.readouterr().err
    report = _dirac_report(out)
    assert report["excluded_points"] == 4 and report["converged"] is False
    assert report["eom"]["max_residual"] is None


def test_spin_dirac_random_draws(tmp_path, capsys):
    # every draw answers: exit 0, or exit 3 that names a residual above
    # its bound or an empty domain; an exception would escape main
    rng = np.random.default_rng(2024)
    for i in range(30):
        cfg = write_cfg(tmp_path, f"d{i}.json", {
            "kind": "dirac", "n_modes": int(rng.integers(2, 5)),
            "seed": int(rng.integers(1, 2 ** 31)), "k_max": 1.0,
            "n_points": 20, "point_seed": int(rng.integers(1, 2 ** 31)),
            "point_range": 1.0})
        code = run(["spin", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 3)
        if code == 3:
            assert ("above its rounding bound" in err
                    or "empty domain" in err)
        else:
            assert _within_bound(_dirac_report(tmp_path / "o"))


def test_non_finite_json_value_exits_3(tmp_path, capsys, monkeypatch):
    # json.dumps would write NaN; the run must exit 3 and name the key
    monkeypatch.setattr(dirac, "verify_ensemble_balance",
                        lambda *args, **kwargs: float("nan"))
    out = tmp_path / "out"
    assert run(["spin", "--config", "fw_hedgehog.json", "--out", str(out),
                "--quick"]) == 3
    assert "ensemble_balance" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_spin_fw_bundled_quick(tmp_path):
    out = tmp_path / "out"
    assert run(["spin", "--config", "fw_hedgehog.json", "--out", str(out),
                "--quick"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spin_tensor_residual"] < 1e-10
    # both sides of the circulation identity in closed form
    assert report["curl_residual"] < 1e-15
    assert report["ensemble_balance"] < 1e-6
    assert "h" not in report and "curl" not in report


@pytest.mark.parametrize("payload", [_DIRAC, _FW])
def test_spin_ignores_h(tmp_path, payload):
    # spin reads no step size; an h key, as older configs carry, is ignored
    for h in ("x", 0, None):
        cfg = write_cfg(tmp_path, "h.json", {**payload, "h": h})
        assert run(["spin", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0


def test_spin_unknown_kind(tmp_path):
    cfg = write_cfg(tmp_path, "k.json", {"kind": "pauli"})
    assert run(["spin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_modes_thread_determinism(tmp_path):
    outs = []
    for n in ("1", "2", "8"):
        out = tmp_path / f"out{n}"
        assert run(["modes", "--config", "two_mode.json", "--out", str(out),
                    "--quick", "--threads", n]) == 0
        outs.append(out)
    for name in ("f_grid.csv", "trajectories.csv", "summary.json"):
        for other in outs[1:]:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes()


@pytest.mark.parametrize("config", ["two_mode.json", "fig1.json"])
def test_modes_census_is_the_full_grid_rho(tmp_path, config):
    out = tmp_path / "out"
    assert run(["modes", "--config", config, "--out", str(out),
                "--quick"]) == 0
    cfg = json.loads(resources.files("relbohm").joinpath(
        "configs", config).read_text())
    state = modes.ModeSet(k=cfg["k"],
                          phi=[complex(re, im) for re, im in cfg["phi"]])
    g = {**cfg["grid"], "n_x": (cfg["grid"]["n_x"] + 1) // 2,
         "n_t": (cfg["grid"]["n_t"] + 1) // 2}
    grid = Grid2D(**g)
    rho, _ = modes._rho_j(state, grid.x[:, None], grid.t[None, :])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rho_sign_census"] == {"positive": int(np.sum(rho > 0)),
                                          "negative": int(np.sum(rho < 0))}


@pytest.mark.parametrize("n_x, workers", [(16, None), (40, 3)])
def test_modes_thread_pool_at_most_one_worker_per_block(
        tmp_path, monkeypatch, n_x, workers):
    # one block of io_utils.ROW_CHUNK rows starts no pool; three blocks
    # start three workers of the eight asked for
    from relbohm import io_utils
    started = []

    class Pool(io_utils.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(io_utils, "ThreadPoolExecutor", Pool)
    cfg = write_cfg(tmp_path, "c.json", {
        "k": [0.0, 0.7], "phi": [[1, 0], [0.5, 0.2]],
        "grid": {**_GRID, "n_x": n_x}, "n_levels": 5})
    assert run(["modes", "--config", cfg, "--out", str(tmp_path / "o"),
                "--threads", "8"]) == 0
    assert started == ([] if workers is None else [workers])


def test_nearnr_thread_determinism(tmp_path):
    outs = []
    for n in ("1", "4"):
        out = tmp_path / f"out{n}"
        assert run(["nearnr", "--config", "gauss.json", "--out", str(out),
                    "--quick", "--threads", n]) == 0
        outs.append(out)
    for name in ("correction.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


#: malformed values (a few, such as a negative k_max, are valid for some
#: keys); _ABSENT drops the key
_ABSENT = object()
_MALFORMED = st.sampled_from(["x", "", None, math.nan, math.inf, -math.inf,
                              -3, -0.5, [1, 2], [], _ABSENT])


_COMMON = {"n_points": st.integers(1, 40),
           "point_seed": st.integers(0, 2 ** 31),
           "h": st.floats(1e-4, 1e-2)}
#: small valid values of each kind's keys: n_points <= 40, n_modes <= 4
#: and box_n <= 21, so every case runs in milliseconds
_VALID = {
    "dirac": {**_COMMON, "n_modes": st.integers(1, 4),
              "seed": st.integers(0, 2 ** 31), "k_max": st.floats(0.1, 2.0),
              "point_range": st.floats(0.1, 2.0)},
    "fw": {**_COMMON,
           "field": st.sampled_from(["gaussian", "rotating", "hedgehog"]),
           "box_n": st.integers(2, 21), "box_half": st.floats(1.0, 8.0)},
}


@st.composite
def _spin_configs(draw):
    """A valid dirac or fw config, or one of an unknown kind, with up to
    two keys malformed or missing."""
    kind = draw(st.sampled_from(["dirac", "fw", "pauli"]))
    valid = _VALID.get(kind, _VALID["dirac"])
    cfg = {"kind": kind, **draw(st.fixed_dictionaries(valid))}
    bad = draw(st.dictionaries(st.sampled_from(["kind", *valid]),
                               _MALFORMED, max_size=2))
    for key, value in bad.items():
        if value is _ABSENT:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


def _floats(obj):
    if isinstance(obj, dict):
        return [v for value in obj.values() for v in _floats(value)]
    if isinstance(obj, list):
        return [v for value in obj for v in _floats(value)]
    return [obj] if isinstance(obj, float) else []


def _answers_with_a_code(command, cfg, quick, report):
    """Run cfg: the exit code is 0, 2 or 3, exit 2 leaves no --out, and an
    exit-0 report file holds only finite floats."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), "cfg.json", cfg)
        out = Path(tmp) / "o"
        code = run([command, "--config", path, "--out", str(out)]
                   + ["--quick"] * quick)
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
        if code == 0:
            summary = json.loads((out / report).read_text(),
                                 parse_constant=lambda c: pytest.fail(c))
            assert all(math.isfinite(v) for v in _floats(summary))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_spin_configs(), quick=st.booleans())
# a negative point_range once escaped main from numpy's uniform draw
@example(cfg={**_DIRAC, "point_range": -0.5}, quick=False)
def test_spin_configs_never_escape(cfg, quick):
    _answers_with_a_code("spin", cfg, quick, "report.json")


@st.composite
def _nearnr_configs(draw):
    """A small gaussian or cos2 nearnr config, with up to two keys
    malformed or missing."""
    if draw(st.booleans()):
        packet = {"shape": "gaussian", "sigma_k": draw(st.floats(0.02, 0.5)),
                  "k0": draw(st.floats(-1.0, 1.0))}
    else:
        packet = {"shape": "cos2", "k_cut": draw(st.floats(1.0, 40.0))}
    half = draw(st.floats(1.0, 20.0))
    cfg = {"packet": packet,
           "x": {"min": -half, "max": half, "n": draw(st.integers(1, 41))},
           "t": draw(st.floats(0.0, 50.0))}
    paths = [("packet",), ("x",), ("t",), *(("packet", k) for k in packet),
             *(("x", k) for k in cfg["x"])]
    bad = draw(st.dictionaries(st.sampled_from(paths), _MALFORMED,
                               max_size=2))
    for path, value in bad.items():
        node = cfg.get(path[0]) if len(path) == 2 else cfg
        if not isinstance(node, dict):
            continue            # its parent is malformed already
        if value is _ABSENT:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cfg=_nearnr_configs(), quick=st.booleans())
# rho has a zero in the pushforward window: this once escaped main
@example(cfg={"packet": {"shape": "gaussian", "k0": 0.1, "sigma_k": 0.05},
              "x": {"min": -20.0, "max": 20.0, "n": 161}, "t": 30.0},
         quick=False)
# past the size limits, as far as the float range: a late t whose rule and
# rows are large but within the limits, a row or rule whose size passes
# the float range, a reach of inf, and a window whose x step overflows
# (NaN points)
@example(cfg={"packet": _GAUSS, "x": {"min": -20.0, "max": 20.0, "n": 5},
              "t": 1e4}, quick=False)
@example(cfg={"packet": _GAUSS, "x": {"min": -4.0, "max": 4.0, "n": 5},
              "t": 1e308}, quick=True)
@example(cfg={"packet": _K40, "x": {"min": 0.0, "max": 1e308, "n": 5},
              "t": 1e308}, quick=False)
@example(cfg={"packet": _GAUSS, "x": {"min": -1e308, "max": 1e308, "n": 5},
              "t": 0.0}, quick=False)
def test_nearnr_configs_never_escape(cfg, quick):
    _answers_with_a_code("nearnr", cfg, quick, "summary.json")


@st.composite
def _explode_configs(draw):
    """A small cos2 explode config (packet, grid and density_x window),
    with up to two keys malformed or missing."""
    packet = {"shape": "cos2", "a": draw(st.floats(0.2, 3.0)),
              "k_cut": draw(st.floats(5.0, 40.0))}
    x_min, t_min = draw(st.floats(-4.0, 2.0)), draw(st.floats(-1.0, 1.0))
    grid = {"x_min": x_min, "x_max": x_min + draw(st.floats(0.5, 6.0)),
            "n_x": draw(st.integers(2, 21)), "t_min": t_min,
            "t_max": t_min + draw(st.floats(0.2, 2.0)),
            "n_t": draw(st.integers(2, 21))}
    lo = draw(st.floats(-40.0, 5.0))
    cfg = {"packet": packet, "grid": grid,
           "density_x": {"min": lo, "max": lo + draw(st.floats(0.0, 45.0)),
                         "n": draw(st.integers(1, 41))},
           "t_values": [draw(st.floats(0.0, 3.0))],
           "p_times": [draw(st.floats(0.0, 3.0))],
           "n_levels": draw(st.integers(1, 10))}
    paths = [("packet",), ("grid",), ("density_x",), ("n_levels",),
             *(("packet", k) for k in packet),
             *(("grid", k) for k in grid),
             *(("density_x", k) for k in cfg["density_x"])]
    bad = draw(st.dictionaries(st.sampled_from(paths), _MALFORMED,
                               max_size=2))
    for path, value in bad.items():
        node = cfg.get(path[0]) if len(path) == 2 else cfg
        if not isinstance(node, dict):
            continue            # its parent is malformed already
        if value is _ABSENT:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_explode_configs(), quick=st.booleans())
def test_explode_configs_never_escape(cfg, quick):
    _answers_with_a_code("explode", cfg, quick, "thresholds.json")


def _bundled(name):
    return json.loads(resources.files("relbohm").joinpath(
        "configs", name).read_text())


_TWO_MODE, _COS2 = _bundled("two_mode.json"), _bundled("cos2.json")
_BIG = 10 ** 12
#: a count past each size limit, and the text its refusal names: a grid
#: (Grid2D), a block of mode pairs (modes.grid_fields), a contour family
#: (modes.contour_family) and a sample window or point set (cli._count)
_OVERSIZED = {
    "modes-grid": ("modes", {**_TWO_MODE, "grid": {
        **_TWO_MODE["grid"], "n_x": 10 ** 6, "n_t": 10 ** 6}},
        "1000000 x 1000000 nodes"),
    "modes-pairs": ("modes", {**_TWO_MODE,
                              "k": [0.01 * i for i in range(10 ** 4)],
                              "phi": [[1.0, 0.0]] * 10 ** 4}, "10000 modes"),
    "modes-levels": ("modes", {**_TWO_MODE, "n_levels": _BIG},
                     f"n_levels = {_BIG}"),
    "explode-levels": ("explode", {**_COS2, "n_levels": _BIG},
                       f"n_levels = {_BIG}"),
    "explode-grid": ("explode", {**_COS2, "grid": {
        **_COS2["grid"], "n_x": 10 ** 6, "n_t": 10 ** 6}},
        "1000000 x 1000000 nodes"),
    "explode-density-x": ("explode", {**_COS2, "density_x": {
        "min": -5.0, "max": 5.0, "n": _BIG}}, f"density_x.n = {_BIG}"),
    "nearnr-x": ("nearnr", {**_bundled("gauss.json"), "x": {
        "min": -20.0, "max": 20.0, "n": _BIG}}, f"x.n = {_BIG}"),
    "spin-dirac-points": ("spin", {**_DIRAC, "n_points": _BIG},
                          f"n_points = {_BIG}"),
    "spin-fw-points": ("spin", {**_FW, "n_points": _BIG},
                       f"n_points = {_BIG}"),
    "spin-dirac-modes": ("spin", {**_DIRAC, "n_modes": _BIG},
                         f"n_modes = {_BIG}"),
}

#: address space of the child that runs an oversized config: a limit
#: that fails to refuse then fails fast instead of filling the host
_CHILD_AS = 2 << 30


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_oversized_count_exits_2_before_any_array(tmp_path, case):
    command, cfg, named = _OVERSIZED[case]
    path = write_cfg(tmp_path, "big.json", cfg)
    out = tmp_path / "o"
    argv = [command, "--config", path, "--out", str(out)]
    code = ("import resource, sys\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            f"limit = {_CHILD_AS} if hard == resource.RLIM_INFINITY "
            f"else min(hard, {_CHILD_AS})\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "from relbohm.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr and "over the limit" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["explode", "modes"])
def test_levels_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                        command):
    # explode's first FFT row and modes' grid pass would come before
    # contour_family; the cell-level limit is checked as the config is read
    def no_work(*args, **kwargs):
        raise AssertionError("work began before n_levels was checked")

    monkeypatch.setattr(packets, "_fft_row", no_work)
    monkeypatch.setattr(modes, "grid_fields", no_work)
    cfg = {"explode": _COS2, "modes": _TWO_MODE}[command]
    path = write_cfg(tmp_path, "levels.json", {**cfg, "n_levels": _BIG})
    out = tmp_path / "o"
    assert run([command, "--config", path, "--out", str(out)]) == 2
    assert f"n_levels = {_BIG}" in capsys.readouterr().err
    assert not out.exists()


@st.composite
def _modes_configs(draw):
    """A small modes config (1-4 distinct k, complex phi, a grid and
    n_levels), with up to two keys malformed or missing."""
    k = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4,
                      unique=True))
    phi = [[draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]
           for _ in k]
    x_min, t_min = draw(st.floats(-4.0, 2.0)), draw(st.floats(-1.0, 1.0))
    grid = {"x_min": x_min, "x_max": x_min + draw(st.floats(0.5, 6.0)),
            "n_x": draw(st.integers(2, 21)), "t_min": t_min,
            "t_max": t_min + draw(st.floats(0.2, 2.0)),
            "n_t": draw(st.integers(2, 21))}
    cfg = {"k": k, "phi": phi, "grid": grid,
           "n_levels": draw(st.integers(1, 10))}
    paths = [("k",), ("phi",), ("grid",), ("n_levels",),
             *(("grid", key) for key in grid)]
    bad = draw(st.dictionaries(st.sampled_from(paths), _MALFORMED,
                               max_size=2))
    for path, value in bad.items():
        node = cfg.get(path[0]) if len(path) == 2 else cfg
        if not isinstance(node, dict):
            continue            # its parent is malformed already
        if value is _ABSENT:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_modes_configs(), quick=st.booleans())
# past the size limits: each once exited 1 with a traceback and left
# --out.  These run in this process, so each count is one whose array
# cannot be allocated at all: without its limit the run fails at once
@example(cfg={**_TWO_MODE, "grid": {**_GRID, "n_x": _BIG, "n_t": _BIG}},
         quick=False)
@example(cfg=_OVERSIZED["modes-pairs"][1], quick=False)
@example(cfg=_OVERSIZED["modes-levels"][1], quick=True)
def test_modes_configs_never_escape(cfg, quick):
    _answers_with_a_code("modes", cfg, quick, "summary.json")
