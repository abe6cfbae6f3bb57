import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relbohm

MODULES = sorted(m.name for m in pkgutil.iter_modules(relbohm.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"relbohm.{name}")
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert not missing


#: public names no command reaches, kept as deliberate oracles: the RK4
#: integrator that cross-checks contours, and the double-sum velocity
#: field it integrates
ORACLES = {"ode.integrate_trajectory", "modes.velocity_discrete"}


def _top_level_uses():
    """(module, names a top-level statement defines, names it references
    by ast Name or Attribute) for each statement of src/relbohm."""
    uses = []
    for name in MODULES:
        path = importlib.import_module(f"relbohm.{name}").__file__
        for stmt in ast.parse(Path(path).read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target",
                                                            None)])
                defined = {t.id for t in targets if isinstance(t, ast.Name)}
            used = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(stmt)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            uses.append((name, defined, used))
    return uses


def test_every_public_name_is_reached():
    # a name in __all__ must be used by program code other than its own
    # definition (docstrings do not count), or be a listed oracle
    uses = _top_level_uses()
    unreached = [
        f"{module}.{name}" for module in MODULES
        for name in getattr(importlib.import_module(f"relbohm.{module}"),
                            "__all__", [])
        if f"{module}.{name}" not in ORACLES
        and not any(name in used and not (m == module and name in defined)
                    for m, defined, used in uses)]
    assert not unreached


def _run_traced(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    # -B: write no bytecode into perfbench/
    return subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_trace_still_wraps_the_program():
    # perfbench/layers.py wraps library entry points by name and the
    # benchmark worker calls cli._packet_from; a deleted or renamed one
    # fails here with a KeyError or AttributeError
    code = ("from layers import instrument\n"
            "from spans import Tracer\n"
            "from relbohm import cli\n"
            "instrument(Tracer())\n"
            "print(cli._packet_from({'packet': {'shape': 'gaussian', "
            "'sigma_k': 0.05}}).k.size)\n")
    proc = _run_traced(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_benchmark_trace_runs_the_front_kernel():
    # the benchmark's FrontKernel counter reads .k after __init__ and its
    # span wraps FrontKernel.evaluate; run both through annihilation_fronts
    code = ("from layers import instrument\n"
            "from spans import Tracer\n"
            "from relbohm import packets\n"
            "from relbohm.numerics import Grid2D\n"
            "tracer = Tracer()\n"
            "instrument(tracer)\n"
            "p = packets.Packet(packets.PacketSpec(shape='cos2'), k_cut=40.0,"
            " gl_order=8, x_scale=4.0)\n"
            "packets.annihilation_fronts(p, Grid2D(0.0, 3.0, 16, 0.0, 1.5, "
            "11), 5)\n"
            "for s in tracer.spans:\n"
            "    if s.name.startswith('packets.FrontKernel'):\n"
            "        print(s.name, s.attrs.get('k_nodes', '-'))\n")
    proc = _run_traced(code)
    assert proc.returncode == 0, proc.stderr
    spans = dict(line.split() for line in proc.stdout.splitlines())
    assert int(spans["packets.FrontKernel"]) > 0
    assert "packets.FrontKernel.evaluate" in spans
