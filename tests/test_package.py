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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    # -B: write no bytecode into perfbench/
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
