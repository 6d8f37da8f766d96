"""API-surface checks: every public name resolves and is documented.

Cheap structural guarantees for downstream users: ``__all__`` lists are
accurate in every subpackage, public callables carry docstrings, and the
top-level package re-exports what the README promises.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.datasets",
    "repro.convert",
    "repro.snn",
    "repro.coding",
    "repro.core",
    "repro.energy",
    "repro.runtime",
    "repro.serve",
    "repro.analysis",
    "repro.utils",
]

MODULES = [
    "repro.nn.im2col",
    "repro.nn.layers",
    "repro.nn.activations",
    "repro.nn.batchnorm",
    "repro.nn.losses",
    "repro.nn.optim",
    "repro.nn.network",
    "repro.nn.training",
    "repro.nn.architectures",
    "repro.datasets.synthetic",
    "repro.datasets.images",
    "repro.datasets.loaders",
    "repro.datasets.transforms",
    "repro.convert.stats",
    "repro.convert.normalize",
    "repro.convert.converter",
    "repro.snn.schedule",
    "repro.snn.neurons",
    "repro.snn.engine",
    "repro.snn.parallel",
    "repro.snn.plan",
    "repro.snn.monitors",
    "repro.snn.results",
    "repro.coding.base",
    "repro.coding.rate",
    "repro.coding.phase",
    "repro.coding.burst",
    "repro.coding.reverse",
    "repro.coding.ttfs",
    "repro.coding.registry",
    "repro.core.kernels",
    "repro.core.encoding",
    "repro.core.optimize",
    "repro.core.t2fsnn",
    "repro.energy.model",
    "repro.energy.cost",
    "repro.runtime.config",
    "repro.runtime.backends",
    "repro.runtime.runtime",
    "repro.serve.aio",
    "repro.serve.batcher",
    "repro.serve.cache",
    "repro.serve.http",
    "repro.serve.service",
    "repro.analysis.experiments",
    "repro.analysis.tables",
    "repro.analysis.figures",
    "repro.analysis.paper",
    "repro.analysis.report",
    "repro.analysis.sweeps",
    "repro.utils.rng",
    "repro.utils.lut",
    "repro.utils.validation",
    "repro.utils.serialization",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} has no docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ != name:
                continue  # re-export; documented at definition site
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{symbol} has no docstring"
            )


def test_top_level_exports():
    import repro

    assert repro.T2FSNN is not None
    assert repro.RunConfig is not None
    assert repro.__version__ == "1.2.0"


def test_readme_quickstart_names_exist():
    """The names the README's quickstart uses must all exist."""
    from repro import convert, core, datasets, nn

    assert hasattr(datasets, "synthetic_mnist")
    assert hasattr(nn, "lenet")
    assert hasattr(nn, "Trainer")
    assert hasattr(nn, "Adam")
    assert hasattr(convert, "convert_to_snn")
    assert hasattr(core, "T2FSNN")
