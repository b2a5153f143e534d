"""The benchmark tracer's layer table still names code that exists.

``benchmarks/tracer.py`` patches each ``LAYERS`` entry by name, so a
rename or deletion in ``src/`` would only surface when a traced
benchmark run (``benchmarks/run.py --trace 1``) fails.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(home, attr) for home, attrs in module.LAYERS.items() for attr in attrs]


@pytest.mark.parametrize("home, attr", _layers())
def test_every_traced_layer_resolves_in_its_module(home, attr):
    module = importlib.import_module(f"clone_sim.{home}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))  # patched on the class itself
        return
    obj = getattr(module, attr)
    if isinstance(obj, type):
        assert "__init__" in vars(obj)  # classes are traced through their own __init__
    else:
        assert callable(obj)
