"""API-surface tests: public exports exist, resolve, and stay importable.

Guards downstream users' imports: every name in each package's
``__all__`` must resolve, and the top-level convenience API must keep its
signature.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.axi",
    "repro.core",
    "repro.dram",
    "repro.fabric",
    "repro.roofline",
    "repro.resources",
    "repro.sim",
    "repro.traffic",
    "repro.accelerators",
    "repro.experiments",
    "repro.faults",
    "repro.telemetry",
    "repro.runtime",
    "repro.service",
]

MODULES = [
    "repro.params",
    "repro.types",
    "repro.errors",
    "repro.memory",
    "repro.dma",
    "repro.sim.trace",
    "repro.axi.splitter",
    "repro.fabric.flow",
    "repro.fabric.visualize",
    "repro.traffic.replay",
    "repro.experiments.extensions",
    "repro.experiments.parallel",
    "repro.experiments.runner",
    "repro.experiments.surface",
    "repro.service.queue",
    "repro.service.http",
    "repro.service.client",
    "repro.experiments.chaos",
    "repro.faults.chaos",
    "repro.faults.watchdog",
    "repro.telemetry.profile",
    "repro.runtime.journal",
    "repro.runtime.pool",
    "repro.runtime.signals",
    "repro.__main__",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} has no __all__"
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_top_level_convenience_api():
    import repro
    sig = inspect.signature(repro.quick_measure)
    assert list(sig.parameters)[:2] == ["pattern", "fabric_kind"]
    sig = inspect.signature(repro.make_fabric)
    assert "kind" in sig.parameters


def test_every_public_class_documented():
    """Every exported class/function carries a docstring."""
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            obj = getattr(mod, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version():
    import repro
    assert repro.__version__.count(".") == 2


def test_client_import_is_thin():
    """The service client (and the benchmark worker that imports it)
    loads no server, experiment registry or numpy: ``repro.service`` and
    ``repro.experiments`` resolve their exports on first use."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    heavy = ("numpy", "repro.service.http", "repro.experiments.registry")
    code = ("import sys, repro.service.client; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
