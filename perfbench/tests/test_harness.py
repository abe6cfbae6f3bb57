"""Tests of the benchmark harness's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
from layers import PER_LAYER, batch_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS, config_hash, generate  # noqa: E402


class FakeClock:
    """Advances one tick per reading, so every span has a known length."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.now += 1.0
            return self.now


# -- spans ----------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == 7.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(5.0, 6.0, [(0, 1)]) == 0.0


def test_self_time_on_nested_spans():
    spans = [Span(1, "root", 0.0, 10.0, None, "r"),
             Span(2, "a", 1.0, 4.0, 1, "r"),
             Span(3, "b", 3.0, 6.0, 1, "r"),      # overlaps a
             Span(4, "a.child", 2.0, 3.0, 2, "r")]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0)    # union [1, 6]
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_tracer_records_parents_and_counters():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda x: x * 2, "inner",
                        count=lambda a, k, r: {"out": r})
    outer = tracer.wrap(lambda x: inner(x) + inner(x + 1), "outer")
    tracer.run_id = "0/job"
    assert outer(3) == 14
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,) = by_name["outer"]
    assert o.parent is None
    assert [s.parent for s in by_name["inner"]] == [o.id, o.id]
    assert [s.attrs["out"] for s in by_name["inner"]] == [6, 8]
    assert all(s.run == "0/job" for s in tracer.spans)
    st = self_times(tracer.spans)
    # the children's own bookkeeping stays in the parent's self time
    assert st[o.id] == pytest.approx(
        o.duration - sum(s.duration for s in by_name["inner"]))
    assert all(s.overhead > 0 for s in tracer.spans)


def test_tracer_nests_worker_thread_spans_under_the_caller():
    tracer = Tracer()
    leaf = tracer.wrap(lambda i: i * i, "leaf")

    def fan_out(fn, n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, range(n)))

    traced = tracer.wrap(fan_out, "fan_out", bind_arg=0)
    assert traced(leaf, 6) == [0, 1, 4, 9, 16, 25]
    (root,) = [s for s in tracer.spans if s.name == "fan_out"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 6
    assert all(s.parent == root.id for s in leaves)


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]


def test_batch_metrics_classify_fields_callers_and_coverage():
    spans = [Span(1, "cli.main", 0.0, 10.0, None, "0/a"),
             Span(2, "packets.densities", 1.0, 5.0, 1, "0/a"),
             Span(3, "packets.fields", 2.0, 4.0, 2, "0/a",
                  {"points": 10, "node_points": 100}),
             Span(4, "modes.annotate_contours", 5.0, 9.0, 1, "0/a",
                  {"pair_events": 2}),
             Span(5, "packets.fields", 6.0, 7.0, 4, "0/a",
                  {"points": 3, "node_points": 30})]
    m = batch_metrics(spans, 0.0, 10.0, cpu_s=9.5)
    assert m["packets.fields.s"] == pytest.approx(3.0)
    assert m["packets.fields.rows.s"] == pytest.approx(2.0)
    assert m["packets.fields.scattered.s"] == pytest.approx(1.0)
    assert m["packets.fields.calls"] == 2
    assert m["packets.fields.node_points"] == 130
    assert m["packets.densities.s"] == pytest.approx(4.0)  # inclusive
    assert m["modes.annotate_contours.s"] == pytest.approx(3.0)
    assert m["modes.pair_events"] == 2
    assert m["trace.coverage"] == pytest.approx(0.8)
    assert m["cli.self.s"] == pytest.approx(2.0)
    assert m["process.cpu_s"] == 9.5


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    def hashes(seed):
        return [(a.name, config_hash(a.config)) for a in generate(name, seed)]

    assert hashes(11) == hashes(11)
    assert hashes(11) != hashes(12)


def test_generator_draws_stay_in_their_ranges():
    for seed in range(20):
        (ex,) = generate("explode-cos2", seed)
        assert 0.25 <= ex.config["t_values"][0] <= 2.0
        assert 0.25 <= ex.config["p_times"][0] <= 2.0
        for a in generate("modes-pairs", seed):
            k = a.config["k"][1]
            rest = a.config["phi"][0][0] ** 2
            assert 300.0 <= k <= 500.0 and a.config["k"][2] == -k
            assert 0.85 <= rest <= 0.95
            weight = sum(re * re + im * im for re, im in a.config["phi"])
            assert weight == pytest.approx(1.0)
        for a in generate("nearnr-spin", seed):
            if a.kind == "nearnr":
                p = a.config["packet"]
                assert 0.0 <= p["k0"] <= 0.2
                assert 0.03 <= p["sigma_k"] <= 0.06
                assert 0.0 <= a.config["t"] <= 0.5


# -- checker --------------------------------------------------------------


def _rewrite_csv(path, column, fn):
    lines = path.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[start].split(",").index(column)
    for i in range(start + 1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = fn(cells[col])
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def modes_run(tmp_path_factory):
    from relbohm.cli import main
    base = tmp_path_factory.mktemp("modes")
    cfg = dict(generate("modes-pairs", 3)[0].config)
    cfg["grid"] = dict(cfg["grid"], n_x=41, n_t=41)
    cfg["n_levels"] = 8
    (base / "cfg.json").write_text(json.dumps(cfg))
    assert main(["modes", "--config", str(base / "cfg.json"),
                 "--out", str(base / "out")]) == 0
    return base / "out", cfg


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_checker_accepts_a_real_modes_run(modes_run):
    out, cfg = modes_run
    assert checks.check_outputs("modes", out, cfg) == []


def test_checker_rejects_a_vertex_moved_off_its_level(modes_run, tmp_path):
    out, cfg = modes_run
    bad = _copy(out, tmp_path / "bad")
    _rewrite_csv(bad / "trajectories.csv", "x",
                 lambda v: repr(float(v) + 1e-3))
    problems = checks.check_outputs("modes", bad, cfg)
    assert any("off its level" in p for p in problems)


def test_checker_rejects_non_finite_outside_flagged_columns(modes_run,
                                                            tmp_path):
    out, cfg = modes_run
    flagged = _copy(out, tmp_path / "flagged")
    _rewrite_csv(flagged / "trajectories.csv", "v", lambda v: "nan")
    assert checks.check_outputs("modes", flagged, cfg) == []
    bad = _copy(out, tmp_path / "bad")
    _rewrite_csv(bad / "f_grid.csv", "F", lambda v: "nan")
    assert any("non-finite" in p
               for p in checks.check_outputs("modes", bad, cfg))


def test_checker_rejects_a_broken_fw_invariant(tmp_path):
    report = {"kind": "fw", "spin_tensor_residual": 1e-14,
              "ensemble_balance": 1e-7}
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert checks.check_outputs("fw", tmp_path, {}) == []
    report["ensemble_balance"] = 2e-4
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert checks.check_outputs("fw", tmp_path, {}) == [
        "ensemble balance 0.0002"]


def test_checker_reports_missing_output_instead_of_raising(tmp_path):
    problems = checks.check_outputs("nearnr", tmp_path, {})
    assert problems and problems[0].startswith("unreadable output")


def test_integral_f_matches_the_program(modes_run):
    import numpy as np
    from relbohm import modes
    _, cfg = modes_run
    phi = [complex(re, im) for re, im in cfg["phi"]]
    z = np.linspace(-0.005, 0.005, 7)
    t = np.linspace(0.0, 0.01, 7)
    state = modes.ModeSet(k=cfg["k"], phi=phi)
    assert np.allclose(checks.integral_f(cfg["k"], phi, z, t),
                       modes.integral_F(state, z, t), rtol=0, atol=1e-15)


def test_hash_store_flags_changed_outputs(tmp_path):
    store = checks.HashStore(tmp_path / "h.json")
    assert store.check("code/w/1/a", {"x.csv": "aa"}) == []
    store.save()
    again = checks.HashStore(tmp_path / "h.json")
    assert again.check("code/w/1/a", {"x.csv": "aa"}) == []
    assert again.check("code/w/1/a", {"x.csv": "bb", "y.csv": "cc"}) == [
        "x.csv", "y.csv"]


# -- contract -------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modes-pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
