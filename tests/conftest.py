import json
from importlib import resources

import pytest

from relbohm.cli import main
from relbohm.modes import ModeSet


@pytest.fixture(scope="session")
def fig1_state():
    """The three-mode state of the bundled fig1.json: a dominant rest mode
    plus an ultra-relativistic +-k pair with zero mean group velocity."""
    cfg = json.loads(resources.files("relbohm").joinpath(
        "configs", "fig1.json").read_text())
    return ModeSet(k=cfg["k"], phi=[complex(re, im) for re, im in cfg["phi"]])


@pytest.fixture
def written(tmp_path):
    """written(command, config, name): run a bundled config through the
    CLI (exit 0) and return (the config as a dict, its JSON output `name`
    without the version, config_hash and units header of write_json)."""
    def run(command, config, name):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        return (json.loads(resources.files("relbohm").joinpath(
                    "configs", config).read_text()),
                {key: value for key, value in doc.items()
                 if key not in ("version", "config_hash", "units")})
    return run
