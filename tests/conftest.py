import json
from importlib import resources

import pytest

from relbohm.modes import ModeSet


@pytest.fixture(scope="session")
def fig1_state():
    """The three-mode state of the bundled fig1.json: a dominant rest mode
    plus an ultra-relativistic +-k pair with zero mean group velocity."""
    cfg = json.loads(resources.files("relbohm").joinpath(
        "configs", "fig1.json").read_text())
    return ModeSet(k=cfg["k"], phi=[complex(re, im) for re, im in cfg["phi"]])
