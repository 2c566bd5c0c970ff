"""The names perfbench's tracer wraps still exist, without running the benchmark.

``perfbench/tracing.py`` swaps winduq functions for timing wrappers by name,
and its hooks read some of their arguments by parameter name, so renaming
either breaks the benchmark's traced run rather than any test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import winduq

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# parameters each hook in tracing.py reads from the bound arguments
HOOK_PARAMETERS = {
    "fit": ("sampler", "spec", "data", "cfg"),
    "decompose_batch": ("fp", "inputs"),
    "save_posterior": ("directory",),
    "write_csv": ("path",),
}


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.FULL_TARGETS


def _resolve(target):
    owner = importlib.import_module(f"winduq.{target.module}")
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(targets):
    for target in targets:
        assert callable(_resolve(target)), f"winduq.{target.module}.{target.attr}"


def test_hooked_functions_keep_their_parameter_names(targets):
    hooked = {t.attr: _resolve(t) for t in targets if t.hook is not None}
    assert set(hooked) == set(HOOK_PARAMETERS)
    for attr, names in HOOK_PARAMETERS.items():
        params = inspect.signature(hooked[attr]).parameters
        assert set(names) <= set(params), f"{attr}{inspect.signature(hooked[attr])}"


def test_every_exported_name_resolves():
    for name in winduq.__all__:
        assert hasattr(winduq, name), name
