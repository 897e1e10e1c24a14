"""The ``repro.api`` facade contract and the package's import weight."""

import os
import subprocess
import sys
import warnings

import pytest

import repro
from repro import api


def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_runner_stack_on_facade():
    for name in ("Scenario", "Runner", "ResultCache", "TraceStore"):
        assert name in api.__all__, name


def test_facade_versioned():
    assert api.VERSION == repro.__version__ == "2.0.0"


def test_import_pulls_in_no_network_stack():
    """``import repro`` loads no asyncio/HTTP/TLS modules (a fresh
    interpreter, so this test process's own imports cannot mask it)."""
    probe = (
        "import sys, repro; "
        "print(','.join(m for m in ('asyncio', 'http.client', "
        "'urllib.request', 'ssl') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.strip()
    assert out == ""


def test_deep_module_imports_stay_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.sim.engine import simulate  # noqa: F401
        from repro.sim.run import compare, run_suite  # noqa: F401
        from repro.sim import configs  # noqa: F401


def test_sim_star_import_resolves():
    namespace = {}
    exec("from repro.sim import *", namespace)
    assert "Scenario" in namespace and "compare" not in namespace


def test_unknown_sim_attribute_raises():
    import repro.sim

    with pytest.raises(AttributeError):
        repro.sim.hyperdrive
