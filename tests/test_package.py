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


#: public names no command reaches, kept as deliberate oracles: the
#: finite-difference mass identity and equations of motion of criterion
#: 8, the pointwise integral of motion that the block pass of
#: modes.grid_fields is checked against, and W and the moments of
#: criterion 6 on their own (nearnr.analyse takes both from one
#: difference row), which stay because the benchmark's spans wrap them
#: by name
ORACLES = {"dirac.verify_mass_identity", "dirac.verify_eom",
           "modes.integral_F", "nearnr.correction_field", "nearnr.moments"}


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


def _shape_compares(node, scope=()):
    """The dotted scope of each comparison against a packet shape name
    ("cos2" or "gaussian") under node."""
    for child in ast.iter_child_nodes(node):
        inner = (scope + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope)
        if isinstance(child, ast.Compare) and any(
                isinstance(c, ast.Constant) and c.value in ("cos2", "gaussian")
                for c in ast.walk(child)):
            yield ".".join(inner)
        yield from _shape_compares(child, inner)


def test_shape_names_stay_at_the_config_boundary():
    # a packet's shape is a name only where a config is parsed; past
    # cli._packet_from the code asks the packet for its properties
    where = [f"{name}.{scope}" for name in MODULES
             for scope in _shape_compares(ast.parse(Path(
                 importlib.import_module(f"relbohm.{name}").__file__)
                 .read_text()))]
    assert set(where) <= {"cli._packet_from"} and len(where) <= 2, where


def _run_traced(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    # -B: write no bytecode into perfbench/
    return subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_trace_still_wraps_the_program():
    # perfbench/layers.py wraps library entry points by name and the
    # benchmark worker calls cli._packet_from on the workloads' packets;
    # a deleted or renamed entry point, or a parser that refuses a key of
    # the benchmark's explode packet, fails here
    code = ("from layers import instrument\n"
            "from spans import Tracer\n"
            "from workloads import EXPLODE_PACKET\n"
            "from relbohm import cli\n"
            "instrument(Tracer())\n"
            "for packet in (EXPLODE_PACKET, {'shape': 'gaussian', "
            "'sigma_k': 0.05}):\n"
            "    print(cli._packet_from({'packet': packet}).k.size)\n")
    proc = _run_traced(code)
    assert proc.returncode == 0, proc.stderr
    assert all(int(n) > 0 for n in proc.stdout.split())


def test_benchmark_trace_runs_the_front_kernel():
    # the benchmark's FrontKernel counter reads .k after __init__ and its
    # span wraps FrontKernel.evaluate; run both through annihilation_fronts
    code = ("from layers import instrument\n"
            "from spans import Tracer\n"
            "from relbohm import packets\n"
            "from relbohm.numerics import Grid2D\n"
            "tracer = Tracer()\n"
            "instrument(tracer)\n"
            "p = packets.Packet.cos2(1.0, k_cut=40.0)\n"
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
