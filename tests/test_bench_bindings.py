"""The benchmark's tracer wraps functions by module and attribute name;
every name it lists must exist, or a traced run fails (a KeyError) while
untraced runs and the rest of this suite still pass."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name, path", [(b[0], b[1]) for b in spans.BINDINGS],
                         ids=[f"{b[0]}.{b[1]}" for b in spans.BINDINGS])
def test_every_traced_binding_exists(module_name, path):
    owner, attr = spans._owner(module_name, path)
    assert attr in vars(owner), f"{module_name}.{path} is gone"
    assert callable(vars(owner)[attr])
