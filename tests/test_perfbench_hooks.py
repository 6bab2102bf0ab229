"""The benchmark's traced run wraps package functions by module attribute
name (``perfbench/tracing.py`` ``_WRAPPED``); each of them must exist, or
the traced run fails instead of this suite."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_call_sites_resolve():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.tracing import _WRAPPED

    missing = [
        f"{module.__name__}.{attr}" for module, attr, _, _ in _WRAPPED if not hasattr(module, attr)
    ]
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"
