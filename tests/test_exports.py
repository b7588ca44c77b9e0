import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dpem

MODULES = ["dpem"] + [f"dpem.{info.name}" for info in pkgutil.iter_modules(dpem.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_binds_its_public_names_lazily():
    """dpem's name table and __all__ agree, and dir() lists the names before
    they are first used."""
    assert set(dpem._SUBMODULE) == set(dpem.__all__)
    assert set(dpem.__all__) <= set(dir(dpem))


def test_every_traced_name_resolves():
    """Each function and method the benchmark's tracer wraps exists in dpem,
    so an API change that drops one fails here, not only in the bench suite."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("dpem_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{attr}" for _, mod, attr in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for _, mod, cls, attr in tracer.METHODS
                if not hasattr(getattr(importlib.import_module(mod), cls, None), attr)]
    # Tracer.install also patches two names outside its lists: the pool
    # behind the cli.pool span and the split behind numeric.rng_splits
    stream = getattr(importlib.import_module("dpem.numeric"), "RngStream", None)
    missing += [name for name, obj in [
        ("dpem.cli._run_parallel", getattr(importlib.import_module("dpem.cli"),
                                           "_run_parallel", None)),
        ("dpem.numeric.RngStream.split", getattr(stream, "split", None)),
    ] if not callable(obj)]
    # and its kernel-regime counts read the kernel's threshold
    limit = getattr(importlib.import_module("dpem.robust"), "_CLOSED_FORM_LIMIT", None)
    if not isinstance(limit, float):
        missing.append("dpem.robust._CLOSED_FORM_LIMIT")
    assert tracer.FUNCTIONS and tracer.METHODS
    assert not missing
