"""Seeded workload generators.

Each workload turns a seed into a fixed batch of analyses: relbohm
subcommands with generated JSON configs.  The program sees only those
config files (through ``--config``); the seed never reaches it.  Every
draw is used as drawn: no config is dropped or re-drawn because of how
the program handles it.

The same (workload, seed) always yields byte-identical configs, so the
config hashes recorded with each run identify the inputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Analysis", "Workload", "WORKLOADS", "config_hash", "generate"]


@dataclass(frozen=True)
class Analysis:
    """One CLI call of a batch.

    ``kind`` selects the output checker: explode, modes, nearnr, dirac
    or fw.
    """

    name: str
    command: str
    kind: str
    config: dict
    threads: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator], list]


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON form of a config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# -- explode-cos2 ---------------------------------------------------------

#: F grid of explode-cos2: the bundled cos2 window (x in [0, 3],
#: t in [0, 1.5]) at half the bundled resolution, with half the levels.
#: It still resolves the first annihilation vertex (criterion 9).
EXPLODE_GRID = {"x_min": 0.0, "x_max": 3.0, "n_x": 121,
                "t_min": 0.0, "t_max": 1.5, "n_t": 81}
EXPLODE_LEVELS = 20
#: the bundled cos2 packet on a coarser k quadrature: 6 576 k-nodes
#: instead of the default 40 970, with the same outputs to round-off.
#: At the default one explode call takes ~55 s, so a run would hold a
#: single call and no median could damp the host's speed swings.
EXPLODE_PACKET = {"shape": "cos2", "a": 1.0, "gl_order": 24,
                  "x_scale": 0.5}


def _explode(rng):
    cfg = {
        "packet": dict(EXPLODE_PACKET),
        "t_values": [_uniform(rng, 0.25, 2.0)],
        "p_times": [_uniform(rng, 0.25, 2.0)],
        "grid": dict(EXPLODE_GRID),
        "n_levels": EXPLODE_LEVELS,
        "density_x": {"min": -5.0, "max": 5.0, "n": 401},
    }
    return [Analysis("explode", "explode", "explode", cfg, threads=1)]


# -- modes-pairs ----------------------------------------------------------

#: fig1-like three-mode states per batch; one keeps a batch short, so
#: a run takes the median of several batches
MODES_STATES = 1
#: the bundled fig1 window at 121x121 instead of 161x161, which halves
#: a batch (~4.5 s) so a run holds five or more
MODES_GRID = {"x_min": -0.005, "x_max": 0.005, "n_x": 121,
              "t_min": 0.0, "t_max": 0.01, "n_t": 121}
MODES_LEVELS = 30


def _modes(rng):
    out = []
    for i in range(MODES_STATES):
        rest = _uniform(rng, 0.85, 0.95)
        k = _uniform(rng, 300.0, 500.0)
        side = math.sqrt((1.0 - rest) / 2.0)
        phases = [_uniform(rng, 0.0, 2.0 * math.pi) for _ in range(2)]
        cfg = {
            "k": [0.0, k, -k],
            "phi": [[math.sqrt(rest), 0.0]]
                   + [[side * math.cos(p), side * math.sin(p)]
                      for p in phases],
            "grid": dict(MODES_GRID),
            "n_levels": MODES_LEVELS,
        }
        out.append(Analysis(f"modes-{i}", "modes", "modes", cfg, threads=2))
    return out


# -- nearnr-spin ----------------------------------------------------------

NEARNR_PACKETS = 2
#: one dirac draw per mode count, so the batch's work does not swing
#: with the seed
DIRAC_MODE_COUNTS = (2, 3, 4)
FW_FIELDS = ("gaussian", "rotating", "hedgehog")


def _seed_int(rng) -> int:
    return int(rng.integers(1, 2 ** 31 - 1))


def _nearnr_spin(rng):
    out = []
    for i in range(NEARNR_PACKETS):
        cfg = {
            "packet": {"shape": "gaussian", "k0": _uniform(rng, 0.0, 0.2),
                       "sigma_k": _uniform(rng, 0.03, 0.06)},
            "x": {"min": -20.0, "max": 20.0, "n": 161},
            "t": _uniform(rng, 0.0, 0.5),
            "h_t": 0.001,
        }
        out.append(Analysis(f"nearnr-{i}", "nearnr", "nearnr", cfg, 1))
    for n in DIRAC_MODE_COUNTS:
        cfg = {"kind": "dirac", "n_modes": n, "seed": _seed_int(rng),
               "k_max": 1.0, "n_points": 20, "point_seed": _seed_int(rng),
               "point_range": 1.0, "h": 0.001}
        out.append(Analysis(f"dirac-{n}", "spin", "dirac", cfg, 1))
    for field in FW_FIELDS:
        cfg = {"kind": "fw", "field": field, "n_points": 25,
               "point_seed": _seed_int(rng), "h": 0.001,
               "box_half": 7.0, "box_n": 61}
        out.append(Analysis(f"fw-{field}", "spin", "fw", cfg, 1))
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "explode-cos2",
        "Packet.fields on 6 576 k-nodes is ~77% of the time, on fixed-t "
        "rows and on scattered contour vertices, and contours ~16%; "
        "single thread",
        _explode),
    Workload(
        "modes-pairs",
        "contour extraction and CSV output dominate and Packet.fields "
        "never runs; --threads 2",
        _modes),
    Workload(
        "nearnr-spin",
        "many small analyses on ~300 k-nodes plus the Dirac/FW verifiers; "
        "the only nearnr/dirac load, where import time weighs most",
        _nearnr_spin),
)}


def generate(workload: str, seed: int) -> list:
    """The batch of analyses for (workload, seed)."""
    w = WORKLOADS[workload]
    salt = zlib.crc32(workload.encode())
    return w.make(np.random.default_rng([seed, salt]))
