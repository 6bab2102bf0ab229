"""numpy loads only when a Monte-Carlo path runs.

Each check runs in a fresh interpreter, because this test process has
already imported numpy.
"""

import subprocess
import sys

import pytest

import thzris


def last_line(env, code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["capacity", "--dump-config"],
        ["sweep", "--param", "M", "--values", "1,16"],
    ],
    ids=["import", "dump-config", "analytic-sweep"],
)
def test_analytic_paths_leave_numpy_unloaded(src_env, argv):
    run = "" if argv is None else f"from thzris.cli import main; assert main({argv!r}) == 0; "
    assert last_line(src_env, f"import sys, thzris; {run}print('numpy' in sys.modules)") == "False"


def test_montecarlo_names_resolve_on_demand(src_env):
    code = (
        "import sys, thzris; before = 'numpy' in sys.modules; "
        "from thzris import McEstimate, estimate_ergodic_rate; "
        "assert estimate_ergodic_rate is thzris.montecarlo.estimate_ergodic_rate; "
        "assert McEstimate is thzris.montecarlo.McEstimate; "
        "print(before, 'numpy' in sys.modules)"
    )
    assert last_line(src_env, code) == "False True"


def test_every_public_name_resolves():
    missing = [name for name in thzris.__all__ if not hasattr(thzris, name)]
    assert missing == []
    assert thzris.McConfig is thzris.montecarlo.McConfig


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thzris.no_such_name
    with pytest.raises(ImportError):
        from thzris import sample_snr  # noqa: F401
