"""The benchmark's tracer wraps functions by module and attribute name, and
its workloads import racer names and call them: every such name must exist,
or every benchmark operation fails while the rest of this suite passes. The
demos' racer names must exist too, and the README's API list must name the
public surface of the racer package."""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import racer
from racer.core import Dataset
from racer.evalbench import PRESET_SCENARIOS, gen_synthetic

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


WORKLOADS = SPANS.with_name("workloads.py")


def _racer_names(tree):
    """(module, attribute) of each racer name a module imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("racer"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.startswith("racer"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "racer"):
            yield f"racer.{node.value.attr}", node.attr


@pytest.mark.parametrize("module_name, attr",
                         sorted(set(_racer_names(ast.parse(WORKLOADS.read_text()))),
                                key=str))
def test_every_racer_name_the_workloads_use_exists(module_name, attr):
    module = importlib.import_module(module_name)
    assert attr is None or hasattr(module, attr), f"{module_name}.{attr} is gone"


def test_rows_rebuild_the_dataset_on_another_cost_scale():
    # the ff-train check rebuilds its held-out split as Dataset(rows, scale)
    data = gen_synthetic(replace(PRESET_SCENARIOS["magpie-ultra"], n=300, seed=3))
    for scale in (data.instruct_cost_mean, 0.37, 1234.5):
        rebuilt = Dataset(data.instances, instruct_cost_mean=scale)
        scaled = data.with_cost_scale(scale)
        assert (rebuilt.ids, rebuilt.tags) == (scaled.ids, scaled.tags)
        assert rebuilt.instruct_cost_mean.hex() == scaled.instruct_cost_mean.hex()
        for name in ("features", "correct", "cost_raw", "cost"):
            got, want = getattr(rebuilt, name), getattr(scaled, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


DEMOS = sorted(SPANS.parent.parent.glob("demos/*.py"))


@pytest.mark.parametrize("module_name, attr",
                         sorted({name for demo in DEMOS
                                 for name in _racer_names(ast.parse(demo.read_text()))},
                                key=str))
def test_every_racer_name_the_demos_use_exists(module_name, attr):
    module = importlib.import_module(module_name)
    assert attr is None or hasattr(module, attr), f"{module_name}.{attr} is gone"


def test_readme_api_list_is_the_public_surface():
    readme = (SPANS.parent.parent / "README.md").read_text()
    start = readme.index("re-exports the Python API")
    paragraph = readme[start:readme.index("\n\n", start)]
    listed = re.findall(r"`(\w+)`", paragraph)
    public = {name for name, value in vars(racer).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(listed) == len(set(listed))
    assert set(listed) == public
