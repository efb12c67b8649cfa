import math
import os
import subprocess
import sys

import pytest

import lisnoma
from lisnoma import build_event, default_config

# canonical BPSK event magnitudes for the reference power split (0.8, 0.2):
# 4*sqrt(0.8) + 4*sqrt(0.2), 4*sqrt(0.2), and 4*sqrt(0.2) + 8*sqrt(0.8)
THETA_BIG = 4.0 * math.sqrt(0.8) + 4.0 * math.sqrt(0.2)
THETA_SMALL = 4.0 * math.sqrt(0.2)
THETA_AIDED = 4.0 * math.sqrt(0.2) + 8.0 * math.sqrt(0.8)


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def cfg1():
    return default_config(M=1)


@pytest.fixture(scope="session")
def cfg6():
    return default_config(M=6)


@pytest.fixture(scope="session")
def event_u1(cfg):
    return build_event(cfg, 1, (1.0, 1.0), -1.0)


@pytest.fixture(scope="session")
def event_u2(cfg):
    # perfect interference cancellation
    return build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(0.0,))


@pytest.fixture(scope="session")
def event_u1_m1(cfg1):
    return build_event(cfg1, 1, (1.0, 1.0), -1.0)


@pytest.fixture(scope="session")
def fresh_python():
    """Run a code string in a fresh interpreter that imports this tree's
    lisnoma; returns the finished process, its output captured."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lisnoma.__file__)))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
