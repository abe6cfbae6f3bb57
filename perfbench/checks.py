"""Output checker and determinism store.

An analysis fails when its CLI call exits non-zero or raises, when an
output holds a non-finite number outside the NaN-flagged columns, when
a workload invariant breaks (thresholds of the acceptance suite), or
when its output hashes differ between runs of the same code.

NaN-flagged columns: ``v`` (velocity at a density zero), ``f`` (position
map at a density zero) and the Lambert branch columns of
``lambert.csv`` (time samples beyond the fold).  They may hold NaN,
never inf.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

__all__ = ["check_outputs", "code_fingerprint", "hash_outputs",
           "HashStore", "integral_f", "read_csv"]

NAN_FLAGGED = {"v", "f", "x_branch0", "x_branch_minus1"}


def read_csv(path) -> tuple[list, np.ndarray]:
    """(header, float rows) of a relbohm CSV; '#' lines are metadata."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def _nonfinite_json(obj, where):
    if isinstance(obj, float) and not math.isfinite(obj):
        yield f"{where}: {obj}"
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nonfinite_json(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _nonfinite_json(v, f"{where}[{i}]")


def _nonfinite(out: Path) -> list:
    problems = []
    for path in sorted(out.glob("*.csv")):
        header, rows = read_csv(path)
        for c, name in enumerate(header):
            col = rows[:, c]
            bad = np.isinf(col) if name in NAN_FLAGGED else ~np.isfinite(col)
            if bad.any():
                problems.append(f"{path.name}: {int(bad.sum())} non-finite "
                                f"values in column {name}")
    for path in sorted(out.glob("*.json")):
        problems += list(_nonfinite_json(json.loads(path.read_text()),
                                         path.name))
    return problems


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def _explode(out: Path, cfg: dict) -> list:
    th = _load(out, "thresholds.json")
    p = []
    if not (abs(th["x_th"] - 0.57) <= 0.02 and abs(th["x_0"] - 0.72) <= 0.02
            and th["a"] == 1.0):
        p.append(f"criterion 1: x_th={th['x_th']}, x_0={th['x_0']}")
    q_in, q_tail, q_nw = (th["charge_inside"], th["charge_tail"],
                          th["charge_nw_inside"])
    if not (abs(q_tail) < 1e-4 * abs(q_in) and abs(q_in - 1.0) < 1e-3
            and abs(q_nw - 1.0) < 1e-3):
        p.append(f"criterion 2: q_in={q_in}, q_tail={q_tail}, q_nw={q_nw}")
    lam = th["lambert"]
    if lam is None or not lam["within_one_cell"]:
        p.append(f"criterion 9: lambert={lam}")
    for t in cfg["p_times"]:
        if not th["acausal"][f"{t:g}"] > 0:
            p.append(f"P({t:g}) = {th['acausal'][f'{t:g}']} is not > 0")
    for t in cfg["t_values"]:
        if not (out / f"density_t{t:g}.csv").is_file():
            p.append(f"density_t{t:g}.csv missing")
    return p


def integral_f(k, phi, z, t) -> np.ndarray:
    """The modes integral of motion F at points (z, t), written out
    independently of relbohm.modes."""
    k = np.asarray(k, dtype=float)
    phi = np.asarray(phi, dtype=complex)
    w = np.sqrt(1.0 + k * k)
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    u = phi * w ** -0.5 * np.exp(1j * (np.outer(z, k) - np.outer(t, w)))
    dk = k[None, :] - k[:, None]
    off = dk != 0.0
    coef = np.where(off, (w[:, None] + w[None, :])
                    / np.where(off, dk, 1.0), 0.0)
    dbl = 0.5 * np.einsum("na,nb,ab->n", np.conj(u), u, coef)
    weight = np.sum(np.abs(phi) ** 2)
    mean_v = np.sum(np.abs(phi) ** 2 * k / w) / weight
    return z - mean_v * t + dbl.imag / weight


def _modes(out: Path, cfg: dict) -> list:
    p = []
    summary = _load(out, "summary.json")
    if not abs(summary["mean_group_velocity"]) <= 1e-12:
        p.append(f"mean group velocity {summary['mean_group_velocity']}")
    g = cfg["grid"]
    _, fg = read_csv(out / "f_grid.csv")
    F = fg[:, 2].reshape(g["n_x"], g["n_t"])
    tol = max(np.max(np.abs(np.diff(F, axis=0))),
              np.max(np.abs(np.diff(F, axis=1))))
    lo, hi = summary["f_range"]
    n = cfg["n_levels"]
    levels = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    header, tr = read_csv(out / "trajectories.csv")
    col = {name: i for i, name in enumerate(header)}
    if tr.shape[0] == 0:
        return p + ["trajectories.csv has no vertices"]
    phi = [complex(re, im) for re, im in cfg["phi"]]
    f_vert = integral_f(cfg["k"], phi, tr[:, col["x"]], tr[:, col["t"]])
    worst = 0.0
    ids = tr[:, col["level_id"]]
    for lid in np.unique(ids):
        f_line = f_vert[ids == lid]
        level = levels[np.argmin(np.abs(levels - np.median(f_line)))]
        worst = max(worst, float(np.max(np.abs(f_line - level))))
    if not worst <= tol:
        p.append(f"F off its level by {worst:.3e} > one-cell jump {tol:.3e}")
    return p


def _nearnr(out: Path, cfg: dict) -> list:
    s = _load(out, "summary.json")
    p = []
    if not s["eq22_max_residual"] < 1e-9:
        p.append(f"eq22 residual {s['eq22_max_residual']}")
    if not max(abs(s["moment0"]), abs(s["moment1"])) < 1e-6:
        p.append(f"moments {s['moment0']}, {s['moment1']}")
    if not s["timeform_rel_27b"] < 0.10:
        p.append(f"timeform_rel_27b {s['timeform_rel_27b']}")
    push = s.get("pushforward")
    if push is None or not push["improvement"] >= 5.0:
        p.append(f"pushforward {push}")
    return p


def _fw(out: Path, cfg: dict) -> list:
    r = _load(out, "report.json")
    p = []
    if not r["spin_tensor_residual"] < 1e-10:
        p.append(f"spin tensor residual {r['spin_tensor_residual']}")
    if not r["ensemble_balance"] < 1e-4:
        p.append(f"ensemble balance {r['ensemble_balance']}")
    return p


def _dirac(out: Path, cfg: dict) -> list:
    r = _load(out, "report.json")
    return [] if r["converged"] else ["report says not converged"]


_INVARIANTS = {"explode": _explode, "modes": _modes, "nearnr": _nearnr,
               "fw": _fw, "dirac": _dirac}


def check_outputs(kind: str, out, cfg: dict) -> list:
    """Problems found in one analysis's outputs ([] when it passes)."""
    out = Path(out)
    try:
        return _nonfinite(out) + _INVARIANTS[kind](out, cfg)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def hash_outputs(out) -> dict:
    """file name -> sha256 of every file in an output directory."""
    out = Path(out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def code_fingerprint(src) -> str:
    """sha256 over the program's source files and bundled configs."""
    h = hashlib.sha256()
    src = Path(src)
    for p in sorted(src.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(src)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class HashStore:
    """Output hashes of earlier runs, keyed by code, workload, seed,
    analysis and config, so a later run of the same code and inputs can
    be compared."""

    def __init__(self, path):
        self.path = Path(path)
        self.data = (json.loads(self.path.read_text())
                     if self.path.is_file() else {})

    def check(self, key: str, hashes: dict) -> list:
        """Files whose hash differs from the stored one; stores new keys."""
        old = self.data.setdefault(key, hashes)
        return sorted(f for f in set(old) | set(hashes)
                      if old.get(f) != hashes.get(f))

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
