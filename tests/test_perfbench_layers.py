"""The benchmark tracer's patch points exist in the source tree.

``perfbench/tracer.py`` wraps each layer's entry point by module and
attribute path.  A rename in ``src/`` would make ``Tracer.install()``
raise ``AttributeError`` and break every traced benchmark run, so each
entry of its ``LAYERS`` table is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer().LAYERS


@pytest.mark.parametrize(
    "name, module_name, path",
    [(name, module_name, path) for name, module_name, path, _ in LAYERS],
    ids=[f"{name}:{module}.{path}" for name, module, path, _ in LAYERS],
)
def test_layer_entry_point_resolves(name, module_name, path):
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        if exc.name == "numpy":  # the native path's modules need numpy
            pytest.skip(f"{module_name} needs numpy")
        raise
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{path} is not callable"

