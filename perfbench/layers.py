"""Which relbohm entry points the traced run wraps, and the per-layer
metrics computed from the resulting spans.

The wrappers are installed from here, in the benchmark's own process,
by replacing module attributes and methods; no file of the program is
changed.  A function imported by name into another module is wrapped
in every namespace the CLI reaches it through.

Span names are ``<layer>.<entry point>``.  Metric names are listed in
PER_LAYER with their unit and meaning; ``.s`` is self time (duration
minus child spans) unless the description says inclusive.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from spans import covered, self_times

__all__ = ["PER_LAYER", "ROOT", "batch_metrics", "instrument",
           "run_metrics"]

#: span opened by the worker around each cli.main call
ROOT = "cli.main"

#: fixed-t row callers of Packet.fields, and scattered-point callers
ROW_CALLERS = {"packets.densities", "packets.acausal_probability",
               "packets.zero_crossings", "packets.panel_integral",
               "nearnr.moments", "nearnr.pushforward_l1",
               "nearnr.correction_field",
               "nearnr.density_difference_timeform"}
SCATTERED_CALLERS = {"modes.annotate_contours", "cli.lambert_fit"}

PER_LAYER = [
    # packets
    ("packets.fields.s", "s", "self time of Packet.fields"),
    ("packets.fields.calls", "count", "Packet.fields calls"),
    ("packets.fields.points", "count", "(x, t) points evaluated"),
    ("packets.fields.node_points", "count",
     "sum of points x k-nodes x derivative orders (computed work)"),
    ("packets.k_nodes", "count", "k-nodes of the packets built"),
    ("packets.fields.rows.s", "s",
     "Packet.fields self time under fixed-t row callers"),
    ("packets.fields.scattered.s", "s",
     "Packet.fields self time under contour-vertex callers"),
    ("packets.acausal_probability.s", "s", "inclusive"),
    ("packets.densities.s", "s", "inclusive"),
    ("packets.zero_crossings.s", "s", "inclusive"),
    ("packets.FrontKernel.s", "s",
     "inclusive: kernel build plus F-grid evaluation"),
    ("packets.FrontKernel.nodes", "count", "k-nodes of the F kernel"),
    # contours
    ("contours.extract_contours.s", "s", "self time"),
    ("contours.cell_levels", "count", "grid cells x levels scanned"),
    ("contours.polylines", "count", "polylines returned"),
    ("contours.vertices", "count", "polyline vertices returned"),
    # modes
    ("modes.integral_F.s", "s", "self time"),
    ("modes.integral_F.points", "count", "points where F was evaluated"),
    ("modes.annotate_contours.s", "s", "self time"),
    ("modes.pair_events", "count", "density sign flips on contours"),
    # nearnr
    ("nearnr.correction_field.s", "s", "self time"),
    ("nearnr.density_difference_timeform.s", "s", "self time"),
    ("nearnr.moments.s", "s", "self time"),
    ("nearnr.pushforward_l1.s", "s", "self time"),
    # dirac
    ("dirac.verify_mass_identity.s", "s", "self time"),
    ("dirac.verify_eom.s", "s", "self time"),
    ("dirac.verify_fw.s", "s", "self time: FW spin tensor plus curl"),
    ("dirac.verify_ensemble_balance.s", "s", "self time"),
    # io_utils
    ("io_utils.write_csv.s", "s", "self time"),
    ("io_utils.write_csv.bytes", "B", "bytes of CSV written"),
    ("io_utils.write_json.s", "s", "self time"),
    ("io_utils.parallel_rows.s", "s",
     "self time: thread-pool and row bookkeeping"),
    # cli
    ("cli.lambert_fit.s", "s", "self time of the explode Lambert fit"),
    ("cli.self.s", "s", "batch wall outside every layer span"),
    # harness
    ("trace.coverage", "ratio", "share of batch wall inside layer spans"),
    ("trace.overhead_frac", "ratio",
     "tracer bookkeeping over the untraced remainder of the batch wall"),
    ("process.cpu_s", "s", "user + sys CPU of the batch, all threads"),
]


# -- counters -------------------------------------------------------------


def _points(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _fields_count(args, kwargs, result):
    packet, x, t, orders = args[:4]
    pts = _points(x, t)
    nodes = int(packet.k.size)
    return {"points": pts, "k_nodes": nodes,
            "node_points": pts * nodes * len(orders)}


def _init_nodes(args, kwargs, result):
    return {"k_nodes": int(args[0].k.size)}


def _contour_count(args, kwargs, result):
    x, t, _, levels = args[:4]
    cells = (np.asarray(x).size - 1) * (np.asarray(t).size - 1)
    return {"cell_levels": cells * len(np.atleast_1d(levels)),
            "polylines": len(result),
            "vertices": sum(len(line.points) for line in result)}


def _integral_f_count(args, kwargs, result):
    return {"points": _points(args[1], args[2])}


def _annotate_count(args, kwargs, result):
    return {"pair_events": int(result.n_pair_events)}


def _bytes_written(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def instrument(tracer) -> None:
    """Wrap the layer entry points for the rest of the process."""
    from relbohm import cli, contours, dirac, io_utils, modes, nearnr, packets

    def patch(owner, attr, name, count=None, bind_arg=None, also=()):
        wrapped = tracer.wrap(owner.__dict__[attr], name, count, bind_arg)
        for target in (owner, *also):
            setattr(target, attr, wrapped)

    patch(packets.Packet, "__init__", "packets.Packet", _init_nodes)
    patch(packets.Packet, "fields", "packets.fields", _fields_count)
    patch(packets, "densities", "packets.densities")
    patch(packets, "acausal_probability", "packets.acausal_probability")
    patch(packets, "zero_crossings", "packets.zero_crossings")
    patch(packets, "_panel_integral", "packets.panel_integral")
    patch(packets.FrontKernel, "__init__", "packets.FrontKernel",
          _init_nodes)
    patch(packets.FrontKernel, "evaluate", "packets.FrontKernel.evaluate")
    patch(contours, "extract_contours", "contours.extract_contours",
          _contour_count, also=(cli, modes, packets))
    patch(modes, "integral_F", "modes.integral_F", _integral_f_count)
    patch(modes, "annotate_contours", "modes.annotate_contours",
          _annotate_count)
    patch(modes, "_rho_j", "modes.rho_j")
    for fn in ("correction_field", "density_difference_timeform",
               "moments", "pushforward_l1"):
        patch(nearnr, fn, f"nearnr.{fn}")
    for fn in ("verify_mass_identity", "verify_eom", "verify_fw_spin_tensor",
               "verify_curl_formula", "verify_ensemble_balance"):
        patch(dirac, fn, f"dirac.{fn}")
    patch(dirac.DiracField, "__init__", "dirac.DiracField")
    patch(io_utils, "write_csv", "io_utils.write_csv", _bytes_written,
          also=(cli,))
    patch(io_utils, "write_json", "io_utils.write_json", _bytes_written,
          also=(cli,))
    patch(io_utils, "parallel_rows", "io_utils.parallel_rows", bind_arg=0,
          also=(cli,))
    patch(cli, "_lambert_fit", "cli.lambert_fit")


# -- metrics --------------------------------------------------------------


#: span name -> metric that sums the span's self time
SELF_TIME = {name: f"{name}.s" for name in (
    "packets.fields", "contours.extract_contours", "modes.integral_F",
    "modes.annotate_contours", "nearnr.correction_field",
    "nearnr.density_difference_timeform", "nearnr.moments",
    "nearnr.pushforward_l1", "dirac.verify_mass_identity",
    "dirac.verify_eom", "dirac.verify_ensemble_balance",
    "io_utils.write_csv", "io_utils.write_json", "io_utils.parallel_rows",
    "cli.lambert_fit")}
SELF_TIME["dirac.verify_fw_spin_tensor"] = "dirac.verify_fw.s"
SELF_TIME["dirac.verify_curl_formula"] = "dirac.verify_fw.s"

#: span name -> metric that sums the span's whole duration
INCLUSIVE = {
    "packets.acausal_probability": "packets.acausal_probability.s",
    "packets.densities": "packets.densities.s",
    "packets.zero_crossings": "packets.zero_crossings.s",
    "packets.FrontKernel": "packets.FrontKernel.s",
    "packets.FrontKernel.evaluate": "packets.FrontKernel.s",
}

#: (span name, counter) -> metric that sums the counter
COUNTERS = {
    ("packets.fields", "points"): "packets.fields.points",
    ("packets.fields", "node_points"): "packets.fields.node_points",
    ("packets.Packet", "k_nodes"): "packets.k_nodes",
    ("packets.FrontKernel", "k_nodes"): "packets.FrontKernel.nodes",
    ("contours.extract_contours", "cell_levels"): "contours.cell_levels",
    ("contours.extract_contours", "polylines"): "contours.polylines",
    ("contours.extract_contours", "vertices"): "contours.vertices",
    ("modes.integral_F", "points"): "modes.integral_F.points",
    ("modes.annotate_contours", "pair_events"): "modes.pair_events",
    ("io_utils.write_csv", "bytes"): "io_utils.write_csv.bytes",
}


def batch_metrics(spans, t0: float, t1: float, cpu_s: float) -> dict:
    """Per-layer metrics of one batch: its spans and its wall [t0, t1]."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = {name: 0 if unit in ("count", "B") else 0.0
         for name, unit, _ in PER_LAYER}

    def fields_caller(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in ROW_CALLERS:
                return "rows"
            if p.name in SCATTERED_CALLERS:
                return "scattered"
            p = by_id.get(p.parent)
        return None

    for s in spans:
        if s.name in SELF_TIME:
            m[SELF_TIME[s.name]] += selfs[s.id]
        if s.name in INCLUSIVE:
            m[INCLUSIVE[s.name]] += s.duration
        for key, value in s.attrs.items():
            if (s.name, key) in COUNTERS:
                m[COUNTERS[s.name, key]] += value
        if s.name == "packets.fields":
            m["packets.fields.calls"] += 1
            where = fields_caller(s)
            if where:
                m[f"packets.fields.{where}.s"] += selfs[s.id]

    wall = t1 - t0
    inside = covered(t0, t1, [(s.start, s.end) for s in spans
                              if s.name != ROOT])
    overhead = sum(s.overhead for s in spans)
    m["cli.self.s"] = wall - inside
    m["trace.coverage"] = inside / wall
    m["trace.overhead_frac"] = overhead / (wall - overhead)
    m["process.cpu_s"] = cpu_s
    return m


def run_metrics(spans, batches) -> dict:
    """Median over the run's batches of each per-layer metric.

    batches: dicts with the batch index ``i``, wall bounds ``t0``/``t1``
    and ``cpu_s``; a span belongs to batch i when its run id starts
    with ``"i/"``.
    """
    per_batch = []
    for b in batches:
        prefix = f"{b['i']}/"
        mine = [s for s in spans if s.run.startswith(prefix)]
        per_batch.append(batch_metrics(mine, b["t0"], b["t1"], b["cpu_s"]))
    out = {}
    for name, unit, _ in PER_LAYER:
        # counts repeat exactly between batches; keep them whole
        median = (statistics.median_low if unit in ("count", "B")
                  else statistics.median)
        out[name] = {"value": median(pb[name] for pb in per_batch),
                     "unit": unit}
    return out
