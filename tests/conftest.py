import os
from pathlib import Path

import pytest
from hypothesis import settings

import thzris
from thzris import build_model, default_scenario

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_cfg():
    return default_scenario()


@pytest.fixture(scope="session")
def default_model(default_cfg):
    return build_model(default_cfg)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports this checkout's thzris."""
    return dict(os.environ, PYTHONPATH=str(Path(thzris.__file__).resolve().parents[1]))
