"""Command-line front end.

Subcommands: modes, explode, nearnr, spin.  Each takes --config (JSON),
--out (output directory), --quick (coarse presets) and --threads (speed
only; results are byte-identical for any thread count).  modes, nearnr
and spin parse the config, make one library call and write its result.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence.
An array past its size limit (numerics.SizeError) or a sample count
over SAMPLE_MAX_POINTS is a config error, wherever it is met.  A k rule
that parts from its FFT row (a k_cut too low) is a non-convergence.
Every command analyses before it makes --out, so a run that exits 2
leaves no --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import dirac, modes, nearnr, packets
from .io_utils import write_csv, write_json
from .numerics import Grid2D, SizeError

__all__ = ["main"]

#: most points of a sample set sized by one config count (explode's
#: density_x.n, nearnr's x.n, spin's n_points): 160 times the bundled 401;
#: spin's jets take 64 MB per array there, and every command runs within
#: 2 GB of address space.  Past it the count is a config error
SAMPLE_MAX_POINTS = 2 ** 16
#: most plane-wave modes of a spin dirac field (n_modes): 21 times the
#: bundled 3; its terms take 64 bytes a point and mode, and SAMPLE_MAX_POINTS
#: points on this many modes run within 2 GB of address space.  Past it
#: the count is a config error, before any mode is drawn
SPIN_MAX_MODES = 64


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        bundled = resources.files("relbohm").joinpath("configs", path)
        if bundled.is_file():
            p = bundled
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


@contextmanager
def _parsing(where: str):
    """Turn a malformed value met while reading a config into ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{where}: missing required field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _grid(cfg: dict, quick: bool) -> Grid2D:
    with _parsing("grid"):
        g = cfg["grid"]
        n_x, n_t = int(g["n_x"]), int(g["n_t"])
        if quick:
            n_x = max(2, (n_x + 1) // 2)
            n_t = max(2, (n_t + 1) // 2)
        ext = {key: _real(g[key], f"grid.{key}")
               for key in ("x_min", "x_max", "t_min", "t_max")}
        return Grid2D(n_x=n_x, n_t=n_t, **ext)


def _count(value, name: str, least: int = 1, most: float = np.inf) -> int:
    """An integer config value from `least` to `most`."""
    with _parsing(name):
        n = int(value)
    if n < least:
        raise ConfigError(f"{name} must be >= {least}")
    if n > most:
        raise ConfigError(f"{name} = {n} is over the limit of {most}")
    return n


def _real(value, name: str, positive: bool = False) -> float:
    """A finite float config value; positive=True also rejects <= 0."""
    with _parsing(name):
        v = float(value)
    if not np.isfinite(v) or (positive and v <= 0.0):
        raise ConfigError(f"{name} must be finite"
                          + (" and > 0" if positive else ""))
    return v


def _levels(cfg: dict, default: int, grid: Grid2D) -> int:
    """n_levels, refused before any work when its contour family on grid
    is past its size limit (modes.check_levels)."""
    n_levels = _count(cfg.get("n_levels", default), "n_levels")
    modes.check_levels(grid, n_levels)
    return n_levels


def _window(w: dict, name: str, n: int) -> np.ndarray:
    """n points from w["min"] to w["max"]: both finite, and their
    difference too, or a ConfigError that names the window."""
    lo, hi = (_real(w[key], f"{name}.{key}") for key in ("min", "max"))
    if not np.isfinite(hi - lo):
        raise ConfigError(f"{name} window [{lo:g}, {hi:g}] is wider than "
                          "the float range")
    return np.linspace(lo, hi, n)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- modes ----------------------------------------------------------------


def cmd_modes(cfg: dict, args) -> int:
    with _parsing("mode set"):
        state = modes.ModeSet(
            k=np.asarray(cfg["k"], dtype=float),
            phi=np.array([complex(re, im) for re, im in cfg["phi"]]))
    grid = _grid(cfg, args.quick)
    n_levels = _levels(cfg, 30, grid)

    F, traj, summary = modes.analyse(state, grid, n_levels, args.threads)

    out = _out_dir(args)
    write_csv(out / "f_grid.csv", ["x", "t", "F"],
              [np.repeat(grid.x, grid.n_t), np.tile(grid.t, grid.n_x),
               F.ravel()], cfg)
    write_csv(out / "trajectories.csv",
              ["level_id", "vertex_id", "x", "t", "rho_sign", "v"],
              traj.columns(), cfg)
    write_json(out / "summary.json", summary, cfg)
    return 0


# -- explode --------------------------------------------------------------


def _packet_from(cfg: dict) -> packets.Packet:
    """The packet of cfg["packet"]: the one place a shape name is read."""
    with _parsing("packet"):
        p = cfg["packet"]
        if not isinstance(p, dict):
            raise ConfigError("packet must be a JSON object")
        a, k0, sigma_k, total_charge = (
            _real(p.get(key, default), f"packet.{key}")
            for key, default in (("a", 1.0), ("k0", 0.0), ("sigma_k", 0.05),
                                 ("total_charge", 2.0)))
        k_cut = (_real(p["k_cut"], "packet.k_cut", positive=True)
                 if "k_cut" in p else None)
        shape = p.get("shape", "cos2")
        if shape == "cos2":
            return packets.Packet.cos2(a, k_cut, total_charge)
        if shape == "gaussian":
            return packets.Packet.gaussian(k0, sigma_k, k_cut, total_charge)
        raise ConfigError(f"unknown packet shape {shape!r}")


def _lambert_fit(packet, traj_set, grid):
    """Fit the local closed-form model at the first annihilation vertex.

    Returns (summary dict, columns for lambert.csv) or (None, None) when
    no contour meets the density-zero locus.
    """
    # annihilation vertex: an interior density sign flip at which t is a
    # local max along the polyline (the two arms fold back in time there)
    hit = None
    for tr in traj_set.trajectories:
        flips = np.nonzero(np.diff(np.sign(tr.rho)) != 0)[0]
        for i in flips:
            x_c, t_c = tr.points[i]
            if (abs(x_c - grid.x_min) < 2 * grid.dx
                    or abs(x_c - grid.x_max) < 2 * grid.dx
                    or abs(t_c - grid.t_min) < 2 * grid.dt
                    or abs(t_c - grid.t_max) < 2 * grid.dt):
                continue
            lo, hi = max(0, i - 5), min(len(tr.points), i + 6)
            if t_c >= tr.points[lo:hi, 1].max() - 1e-12:
                hit = (tr, int(i))
                break
        if hit is not None:
            break
    if hit is None:
        return None, None
    tr, i = hit
    x_c, t_c = tr.points[i]
    mask = np.abs(tr.points[:, 1] - t_c) <= 0.05
    # linearize rho and J over the x-extent the compared contour arc
    # actually spans (a chord fit): an osculating fit at the vertex
    # alone degrades at the far ends of the +-0.05 window
    half = max(0.01, float(np.max(np.abs(tr.points[mask, 0] - x_c))))
    xs = np.linspace(x_c - half, x_c + half, 21)
    rho, j = packet.rho_j(xs, np.full(xs.shape, t_c))
    ar, br = np.polyfit(xs, rho, 1)
    aj, bj = np.polyfit(xs, j, 1)
    t_samples = t_c + np.linspace(-0.07, 0.02, 451)
    # the local family has one integration constant; the contour vertex
    # fixes it only to grid accuracy, so pick the family member closest
    # to the extracted contour (same fold side as the vertex)
    x_refs = x_c + np.linspace(-2.0 * grid.dx, 2.0 * grid.dx, 41)
    x_refs = x_refs[(x_refs + bj / aj) * (x_c + bj / aj) > 0]
    fam = packets.lambert_local_trajectories(
        rho_slope=ar, rho_zero=-br / ar, j_slope=aj, j_zero=-bj / aj,
        t_samples=t_samples, t_ref=t_c, x_ref=x_refs[:, None])
    xp, tp = tr.points[mask].T
    dt = fam.t - tp[:, None]
    # dists[m, v]: distance from contour vertex v to member m's curve
    # (both branches, NaN beyond the fold skipped; inf for an empty curve),
    # a running minimum over one member's (vertices x samples) at a time
    dists = np.full((x_refs.size, xp.size), np.inf)
    for branch in (fam.x_branch0, fam.x_branch_minus1):
        for member, row in zip(branch, dists):
            d = np.hypot(member - xp[:, None], dt)
            np.fmin(row, np.fmin.reduce(d, axis=1), out=row)
    worst = dists.max(axis=1)
    best = int(np.argmin(worst))    # the first of equal members wins
    cell = float(np.hypot(grid.dx, grid.dt))
    summary = {
        "vertex": [float(x_c), float(t_c)],
        "rho_slope": float(ar), "rho_zero": float(-br / ar),
        "j_slope": float(aj), "j_zero": float(-bj / aj),
        "max_contour_distance": float(worst[best]),
        "grid_cell_diagonal": cell,
        "within_one_cell": bool(worst[best] <= cell),
    }
    return summary, [fam.t, fam.x_branch0[best], fam.x_branch_minus1[best]]


def cmd_explode(cfg: dict, args) -> int:
    packet = _packet_from(cfg)
    if not packet.compact:
        raise ConfigError("explode requires a compactly supported packet")
    with _parsing("t_values/p_times/density_x"):
        t_values = [float(t) for t in cfg.get("t_values", [0.0])]
        p_times = [float(t) for t in cfg.get("p_times", [0.0])]
        dx_cfg = cfg.get("density_x", {"min": -5.0, "max": 5.0, "n": 401})
        n = _count(dx_cfg["n"], "density_x.n", most=SAMPLE_MAX_POINTS)
        xd = _window(dx_cfg, "density_x",
                     n if not args.quick else max(2, n // 2))
    if not all(0.0 <= t < np.inf for t in t_values + p_times):
        raise ConfigError("t values must be finite and >= 0")
    if args.quick:
        t_values = t_values[:2]
        p_times = [t for i, t in enumerate(p_times) if i % 2 == 0 or t == 0.0]
    grid = _grid(cfg, args.quick)
    n_levels = _levels(cfg, 40, grid)

    x_th, x0 = packets.zero_crossings(packet)
    q_in, q_out, q_nw = packets.threshold_charges(packet, x_th)
    profiles = [packets.densities(packet, xd, t) for t in t_values]
    p_vals = [packets.acausal_probability(packet, t) for t in p_times]
    # err: shift of P when the FFT row's box and k_cut double
    p_errs = [abs(packets.acausal_probability(packet, t, refine=2) - p)
              for t, p in zip(p_times, p_vals)]
    _, traj = packets.annihilation_fronts(packet, grid, n_levels)
    lam, lam_cols = _lambert_fit(packet, traj, grid)

    out = _out_dir(args)
    for t, prof in zip(t_values, profiles):
        write_csv(out / f"density_t{t:g}.csv",
                  ["x", "rho", "rho_nw", "rho_nw0", "j"],
                  [prof.x, prof.rho, prof.rho_nw, prof.rho_nw0, prof.j],
                  cfg)
    write_csv(out / "acausal.csv", ["t", "P", "err"],
              [p_times, p_vals, p_errs], cfg)
    write_csv(out / "fronts.csv",
              ["level_id", "vertex_id", "x", "t", "rho_sign", "v"],
              traj.columns(), cfg)
    if lam_cols is not None:
        write_csv(out / "lambert.csv", ["t", "x_branch0", "x_branch_minus1"],
                  lam_cols, cfg)

    write_json(out / "thresholds.json", {
        "a": packet.width, "x_th": x_th, "x_0": x0,
        "charge_inside": q_in, "charge_tail": q_out,
        "charge_nw_inside": q_nw,
        "pair_events": traj.n_pair_events,
        "acausal": {f"{t:g}": p for t, p in zip(p_times, p_vals)},
        "acausal_err": {f"{t:g}": e for t, e in zip(p_times, p_errs)},
        "lambert": lam,
    }, cfg)
    return 0


# -- nearnr ---------------------------------------------------------------


def cmd_nearnr(cfg: dict, args) -> int:
    packet = _packet_from(cfg)
    xcfg = cfg.get("x", {"min": -20.0, "max": 20.0, "n": 161})
    with _parsing("x"):
        n = _count(xcfg["n"], "x.n", most=SAMPLE_MAX_POINTS)
        if args.quick:
            n = max(9, n // 2)
        x = _window(xcfg, "x", n)
    t = _real(cfg.get("t", 0.0), "t")

    field, summary = nearnr.analyse(packet, x, t)

    out = _out_dir(args)
    write_csv(out / "correction.csv",
              ["x", "rho", "rho_nw", "W", "d2W_dx2", "f", "x_mapped"],
              [field.x, field.rho, field.rho_nw, field.W,
               field.d2W_dx2, field.f, field.x_mapped], cfg)
    write_json(out / "summary.json", summary, cfg)
    return 0


# -- spin -----------------------------------------------------------------


def cmd_spin(cfg: dict, args) -> int:
    kind = cfg.get("kind", "dirac")
    with _parsing("point_seed"):
        rng = np.random.default_rng(int(cfg.get("point_seed", 0)))
    if kind == "dirac":
        with _parsing("dirac field"):
            field = dirac.DiracField.random(
                n_modes=_count(cfg["n_modes"], "n_modes",
                               most=SPIN_MAX_MODES),
                seed=int(cfg["seed"]),
                k_max=_real(cfg.get("k_max", 1.0), "k_max", positive=True))
        n_pts = _count(cfg.get("n_points", 20), "n_points",
                       most=SAMPLE_MAX_POINTS)
        if args.quick:
            n_pts = min(n_pts, 6)
        r = _real(cfg.get("point_range", 1.0), "point_range", positive=True)
        pts = rng.uniform(-r, r, (n_pts, 4))
        report, failure = dirac.identity_report(field, pts)
        write_json(_out_dir(args) / "report.json", report, cfg)
        if failure:
            raise ArithmeticError(failure)
        return 0
    if kind == "fw":
        name = cfg.get("field", "hedgehog")
        if not isinstance(name, str) or name not in dirac.FW_FIELDS:
            raise ConfigError(f"unknown FW field {name!r}")
        n_pts = _count(cfg.get("n_points", 25), "n_points",
                       most=SAMPLE_MAX_POINTS)
        box_n = _count(cfg.get("box_n", 61), "box_n", least=2)
        if args.quick:
            box_n = min(box_n, 41)
        box_half = _real(cfg.get("box_half", 7.0), "box_half", positive=True)
        report = dirac.fw_report(name, rng.uniform(-1.5, 1.5, (n_pts, 3)),
                                 box_half, box_n)
        write_json(_out_dir(args) / "report.json", report, cfg)
        return 0
    raise ConfigError(f"unknown spin kind {cfg.get('kind')!r}")


# -- entry ----------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relbohm",
        description="Single-particle relativistic Bohmian mechanics: "
                    "trajectories, localization analysis, spinor checks.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("modes", "discrete plane-wave trajectory families"),
            ("explode", "exploding-packet localization analysis"),
            ("nearnr", "near-non-relativistic position-map corrections"),
            ("spin", "Dirac / Foldy-Wouthuysen verification suite")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True,
                        help="JSON config path or bundled config name")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--quick", action="store_true",
                        help="coarse presets for CI")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads (speed only; results are "
                             "independent of this)")
    return p


_COMMANDS = {"modes": cmd_modes, "explode": cmd_explode,
             "nearnr": cmd_nearnr, "spin": cmd_spin}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, SizeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
