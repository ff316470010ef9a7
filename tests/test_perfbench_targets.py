"""The end-to-end benchmark's tracer targets still resolve.

``perfbench/run.py --trace 1`` wraps every entry of
``perfbench/tracer.py``'s ``LAYER_TARGETS`` by name. A refactor that
renames or moves one of them breaks the traced benchmark only when it
runs; this test resolves every target exactly as
``LayerTracer.install`` does -- without patching anything -- so the
break shows in the ordinary test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().LAYER_TARGETS


@pytest.mark.parametrize(
    "module_name,owner_name,attribute,layer",
    TARGETS,
    ids=[f"{owner or module}.{attr}" for module, owner, attr, _ in TARGETS],
)
def test_layer_target_resolves(module_name, owner_name, attribute, layer):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    original = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
    assert callable(original), f"{layer}: {module_name}.{owner_name}.{attribute}"
