"""Command-line front end.

Subcommands: modes, explode, nearnr, spin.  Each takes --config (JSON),
--out (output directory), --quick (coarse presets) and --threads (speed
only; results are byte-identical for any thread count).

Exit codes: 0 success, 2 config error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import dirac, modes, nearnr, packets
from .io_utils import write_csv, write_json
from .numerics import Grid2D

__all__ = ["main"]


class ConfigError(Exception):
    pass


class ConvergenceError(Exception):
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
    except (TypeError, ValueError) as exc:
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


def _count(value, name: str, least: int = 1) -> int:
    """An integer config value of at least `least`."""
    with _parsing(name):
        n = int(value)
    if n < least:
        raise ConfigError(f"{name} must be >= {least}")
    return n


def _real(value, name: str, positive: bool = False) -> float:
    """A finite float config value; positive=True also rejects <= 0."""
    with _parsing(name):
        v = float(value)
    if not np.isfinite(v) or (positive and v <= 0.0):
        raise ConfigError(f"{name} must be finite"
                          + (" and > 0" if positive else ""))
    return v


def _check_fft_rows(packet, name: str, times, refine: int = 1) -> None:
    """ConfigError when a time in times needs an FFT row (of refine times
    fft_row_size points) past FFT_MAX_POINTS: rows grow with |t|, and a
    huge t would allocate gigabytes."""
    for t in times:
        points = refine * packets.fft_row_size(packet, t)[1]
        if points > packets.FFT_MAX_POINTS:
            raise ConfigError(
                f"{name} entry {t:g} needs an FFT row of {points} points, "
                f"more than the limit of 2^22 = {packets.FFT_MAX_POINTS}")


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
    n_levels = _count(cfg.get("n_levels", 30), "n_levels")
    out = _out_dir(args)

    F, traj = modes.trajectories(state, grid, n_levels, args.threads)
    xs, ts = grid.x, grid.t
    write_csv(out / "f_grid.csv", ["x", "t", "F"],
              [np.repeat(xs, grid.n_t), np.tile(ts, grid.n_x), F.ravel()],
              cfg)
    write_csv(out / "trajectories.csv",
              ["level_id", "vertex_id", "x", "t", "rho_sign", "v"],
              traj.columns(), cfg)
    rho, _ = modes._rho_j(state, xs[:, None], ts[None, :])
    write_json(out / "summary.json", {
        "mean_group_velocity": modes.mean_rest_frame_check(state),
        "pair_events": traj.n_pair_events,
        "n_contours": len(traj.trajectories),
        "rho_sign_census": {"positive": int(np.sum(rho > 0)),
                            "negative": int(np.sum(rho < 0))},
        "f_range": [float(F.min()), float(F.max())],
    }, cfg)
    return 0


# -- explode --------------------------------------------------------------


def _packet_from(cfg: dict) -> packets.Packet:
    with _parsing("packet"):
        p = cfg["packet"]
        if not isinstance(p, dict):
            raise ConfigError("packet must be a JSON object")
        spec = packets.PacketSpec(
            shape=p.get("shape", "cos2"),
            **{key: _real(p.get(key, default), f"packet.{key}")
               for key, default in (("a", 1.0), ("k0", 0.0),
                                    ("sigma_k", 0.05),
                                    ("total_charge", 2.0))})
        kwargs = {}
        if "k_cut" in p:
            kwargs["k_cut"] = _real(p["k_cut"], "packet.k_cut", positive=True)
        if "x_scale" in p:
            kwargs["x_scale"] = _real(p["x_scale"], "packet.x_scale")
        if "gl_order" in p:
            kwargs["gl_order"] = int(p["gl_order"])
        return packets.Packet(spec, **kwargs)


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
    rho, j = packet.at_reach(np.max(np.abs(xs)) + abs(t_c)).rho_j(
        xs, np.full(xs.shape, t_c))
    ar, br = np.polyfit(xs, rho, 1)
    aj, bj = np.polyfit(xs, j, 1)
    t_samples = t_c + np.linspace(-0.07, 0.02, 451)

    def family_distance(x_ref):
        fam = packets.lambert_local_trajectories(
            rho_slope=ar, rho_zero=-br / ar, j_slope=aj, j_zero=-bj / aj,
            t_samples=t_samples, t_ref=t_c, x_ref=x_ref)
        curve = np.concatenate([
            np.stack([b[np.isfinite(b)], fam.t[np.isfinite(b)]], axis=1)
            for b in (fam.x_branch0, fam.x_branch_minus1)])
        if curve.size == 0:
            return fam, [np.inf]
        d = [float(np.min(np.hypot(curve[:, 0] - xp, curve[:, 1] - tp)))
             for xp, tp in tr.points[mask]]
        return fam, d

    # the local family has one integration constant; the contour vertex
    # fixes it only to grid accuracy, so pick the family member closest
    # to the extracted contour (same fold side as the vertex)
    best = None
    for x_ref in x_c + np.linspace(-2.0 * grid.dx, 2.0 * grid.dx, 41):
        if (x_ref + bj / aj) * (x_c + bj / aj) <= 0:
            continue
        fam, dists = family_distance(x_ref)
        if best is None or max(dists) < max(best[1]):
            best = (fam, dists, x_ref)
    fam, dists, _ = best
    cell = float(np.hypot(grid.dx, grid.dt))
    summary = {
        "vertex": [float(x_c), float(t_c)],
        "rho_slope": float(ar), "rho_zero": float(-br / ar),
        "j_slope": float(aj), "j_zero": float(-bj / aj),
        "max_contour_distance": float(max(dists)) if dists else None,
        "grid_cell_diagonal": cell,
        "within_one_cell": bool(dists and max(dists) <= cell),
    }
    return summary, [fam.t, fam.x_branch0, fam.x_branch_minus1]


def cmd_explode(cfg: dict, args) -> int:
    packet = _packet_from(cfg)
    if packet.spec.shape != "cos2":
        raise ConfigError("explode requires a cos2 packet")
    with _parsing("t_values/p_times/density_x"):
        t_values = [float(t) for t in cfg.get("t_values", [0.0])]
        p_times = [float(t) for t in cfg.get("p_times", [0.0])]
        dx_cfg = cfg.get("density_x", {"min": -5.0, "max": 5.0, "n": 401})
        n = _count(dx_cfg["n"], "density_x.n")
        xd = np.linspace(_real(dx_cfg["min"], "density_x.min"),
                         _real(dx_cfg["max"], "density_x.max"),
                         n if not args.quick else max(2, n // 2))
    if not all(0.0 <= t < np.inf for t in t_values + p_times):
        raise ConfigError("t values must be finite and >= 0")
    if args.quick:
        t_values = t_values[:2]
        p_times = [t for i, t in enumerate(p_times) if i % 2 == 0 or t == 0.0]
    grid = _grid(cfg, args.quick)
    # x-integrals and F run on FFT rows; P(t) also builds one row of
    # twice the points for its error bar
    _check_fft_rows(packet, "t_values", t_values)
    _check_fft_rows(packet, "p_times", p_times, refine=2)
    _check_fft_rows(packet, "grid t", (grid.t_min, grid.t_max))
    n_levels = _count(cfg.get("n_levels", 40), "n_levels")
    out = _out_dir(args)

    x_th, x0 = packets.zero_crossings(packet)
    q_in, q_out, q_nw = packets.threshold_charges(packet, x_th)

    for t in t_values:
        prof = packets.densities(packet, xd, t)
        write_csv(out / f"density_t{t:g}.csv",
                  ["x", "rho", "rho_nw", "rho_nw0", "j"],
                  [prof.x, prof.rho, prof.rho_nw, prof.rho_nw0, prof.j],
                  cfg)

    # err: shift of P when the FFT row's box, points and k_cut double
    p_vals, p_errs = [], []
    for t in p_times:
        p = packets.acausal_probability(packet, t)
        p_vals.append(p)
        p_errs.append(abs(packets.acausal_probability(packet, t, refine=2)
                          - p))
    write_csv(out / "acausal.csv", ["t", "P", "err"],
              [p_times, p_vals, p_errs], cfg)

    _, traj = packets.annihilation_fronts(packet, grid, n_levels)
    write_csv(out / "fronts.csv",
              ["level_id", "vertex_id", "x", "t", "rho_sign", "v"],
              traj.columns(), cfg)

    lam, lam_cols = _lambert_fit(packet, traj, grid)
    if lam_cols is not None:
        write_csv(out / "lambert.csv", ["t", "x_branch0", "x_branch_minus1"],
                  lam_cols, cfg)

    write_json(out / "thresholds.json", {
        "a": packet.spec.a, "x_th": x_th, "x_0": x0,
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
    if packet.spec.shape == "gaussian" and packet.spec.sigma_k >= 0.3:
        warnings.warn("sigma_k >= 0.3 is outside the documented narrow-k "
                      "regime; the approximate identities are not expected "
                      "to hold (the exact one still is)", RuntimeWarning)
    xcfg = cfg.get("x", {"min": -20.0, "max": 20.0, "n": 161})
    with _parsing("x"):
        n = _count(xcfg["n"], "x.n")
        if args.quick:
            n = max(9, n // 2)
        x = np.linspace(_real(xcfg["min"], "x.min"),
                        _real(xcfg["max"], "x.max"), n)
    t = _real(cfg.get("t", 0.0), "t")
    if packet.k.size > nearnr.WKernel.MAX_NODES:
        raise ConfigError(
            f"packet has {packet.k.size} k-nodes; nearnr's dense W kernel "
            f"accepts at most {nearnr.WKernel.MAX_NODES} (set a smaller "
            "packet.k_cut or packet.x_scale)")
    # the moments are sums over the FFT row at t
    _check_fft_rows(packet, "t", [t])
    out = _out_dir(args)

    field = nearnr.correction_field(packet, x, t)
    write_csv(out / "correction.csv",
              ["x", "rho", "rho_nw", "W", "d2W_dx2", "f", "x_mapped"],
              [field.x, field.rho, field.rho_nw, field.W,
               field.d2W_dx2, field.f, field.x_mapped], cfg)

    lhs = field.rho - field.rho_nw
    eq22_res = float(np.max(np.abs(lhs - field.d2W_dx2)))
    w_gap = field.W - nearnr.w_approx(packet, x, t)
    m0, m1 = nearnr.moments(packet, t)
    lhs_t, r27a, r27b = nearnr.density_difference_timeform(packet, x, t)
    mask = np.abs(lhs_t) > 0.1 * np.max(np.abs(lhs_t))
    rel27b = float(np.max(np.abs((lhs_t - r27b)[mask] / lhs_t[mask])))
    rel27ab = float(np.max(np.abs((r27a - r27b)[mask] / lhs_t[mask])))
    summary = {
        "eq22_max_residual": eq22_res,
        "w_approx_rel": float(np.sqrt(np.mean(w_gap ** 2)
                                      / np.mean(field.W ** 2))),
        "moment0": m0, "moment1": m1,
        "timeform_rel_27b": rel27b,
        "timeform_rel_27a_vs_27b": rel27ab,
        "narrow_k_regime": bool(packet.spec.shape != "gaussian"
                                or packet.spec.sigma_k < 0.3),
    }
    if packet.spec.shape == "gaussian" and summary["narrow_k_regime"]:
        raw, mapped = nearnr.pushforward_l1(packet, t)
        summary["pushforward"] = {"l1_raw": raw, "l1_mapped": mapped,
                                  "improvement": raw / mapped}
    elif packet.spec.shape == "gaussian":
        # outside the narrow-k regime the map need not be monotone
        summary["pushforward"] = None
    write_json(out / "summary.json", summary, cfg)
    return 0


# -- spin -----------------------------------------------------------------


def cmd_spin(cfg: dict, args) -> int:
    kind = cfg.get("kind", "dirac")
    h = _real(cfg.get("h", 1e-3), "h", positive=True)
    with _parsing("point_seed"):
        rng = np.random.default_rng(int(cfg.get("point_seed", 0)))
    if kind == "dirac":
        with _parsing("dirac field"):
            field = dirac.DiracField.random(
                n_modes=int(cfg["n_modes"]), seed=int(cfg["seed"]),
                k_max=_real(cfg.get("k_max", 1.0), "k_max"))
        n_pts = _count(cfg.get("n_points", 20), "n_points")
        if args.quick:
            n_pts = min(n_pts, 6)
        r = _real(cfg.get("point_range", 1.0), "point_range")
        pts = rng.uniform(-r, r, (n_pts, 4))
        out = _out_dir(args)
        try:
            mass_h, _ = dirac.verify_mass_identity(field, pts, h=h)
            mass_h2, _ = dirac.verify_mass_identity(field, pts, h=h / 2)
            eom_h, _ = dirac.verify_eom(field, pts, h=h)
            eom_h2, _ = dirac.verify_eom(field, pts, h=h / 2)
        except ValueError as exc:
            # a sample point where psibar psi <= 0 lies outside the
            # convective theory's domain
            raise ConvergenceError(f"identity not evaluable: {exc}") from exc
        report = {
            "kind": "dirac",
            "h": h,
            "mass_identity": {"residual_h": mass_h, "residual_h2": mass_h2,
                              "ratio": mass_h / mass_h2},
            "eom": {"residual_h": eom_h, "residual_h2": eom_h2,
                    "ratio": eom_h / eom_h2},
        }
        ratios = [report["mass_identity"]["ratio"], report["eom"]["ratio"]]
        # trivially small residuals (single mode) need no convergence test
        trivial = max(mass_h, eom_h) < 1e-10
        report["converged"] = bool(trivial
                                   or all(2.0 <= r <= 8.0 for r in ratios))
        report["sign_dictionary_suspect"] = not report["converged"]
        write_json(out / "report.json", report, cfg)
        if not report["converged"]:
            raise ConvergenceError(
                "identity residuals do not converge as O(h^2); the metric "
                "sign dictionary is the first suspect")
        return 0
    if kind == "fw":
        name = cfg.get("field", "hedgehog")
        makers = {"gaussian": dirac.fw_gaussian_field,
                  "rotating": dirac.fw_rotating_field,
                  "hedgehog": dirac.fw_hedgehog_field}
        if not isinstance(name, str) or name not in makers:
            raise ConfigError(f"unknown FW field {name!r}")
        n_pts = _count(cfg.get("n_points", 25), "n_points")
        box_n = _count(cfg.get("box_n", 61), "box_n", least=2)
        if args.quick:
            box_n = min(box_n, 41)
        if box_n ** 3 > dirac.BALANCE_MAX_POINTS:
            raise ConfigError(
                f"box_n {box_n} needs a balance grid of {box_n}^3 points, "
                f"more than the limit of 2^21 = {dirac.BALANCE_MAX_POINTS}")
        box_half = _real(cfg.get("box_half", 7.0), "box_half", positive=True)
        out = _out_dir(args)
        field = makers[name]()
        pts = rng.uniform(-1.5, 1.5, (n_pts, 3))
        spin_res, _ = dirac.verify_fw_spin_tensor(field, pts)
        curl_h, _ = dirac.verify_curl_formula(field, pts, h=h)
        curl_h2, _ = dirac.verify_curl_formula(field, pts, h=h / 2)
        balance = dirac.verify_ensemble_balance(field, box_half, n=box_n)
        report = {
            "kind": "fw", "field": name, "h": h,
            "spin_tensor_residual": spin_res,
            "curl": {"residual_h": curl_h, "residual_h2": curl_h2},
            "ensemble_balance": balance,
        }
        write_json(out / "report.json", report, cfg)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
