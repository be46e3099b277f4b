"""The package namespace and the input guards of its functions."""

import ast
import types
from pathlib import Path

import pytest

import hamq
from hamq.errors import BadParameters
from hamq.families import (
    appendix_check,
    class_bound,
    enumerate_class,
    hub_partitions,
    membership,
    spanning_subgraph_of,
)
from hamq.graph import Graph, complete, copies, delete_edges
from hamq.rng import SplitMix64, gnm, pair_unrank
from hamq.spectral import adjacent_pair_identity_defect, perron_pair, upper_bound_edge_count
from hamq.verify import run_hunt

from conftest import cycle


def test_all_names_exactly_the_public_attributes():
    # the import list and __all__ in hamq/__init__.py name the same objects;
    # submodules are attributes too once imported, and are not exports
    public = {name for name, value in vars(hamq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(hamq.__all__) == len(set(hamq.__all__))
    assert set(hamq.__all__) == public


def _names_used(path: Path) -> set[str]:
    """Every name a ``Name`` or an ``Attribute`` node of the file refers to."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    # an export that only the tests reach belongs in tests/conftest.py
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "hamq").glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_names_used, files))
    assert sorted(set(hamq.__all__) - used) == []


# K(3,4): without the domain check, its three degree-4 vertices would form X
_K34 = Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])


@pytest.mark.parametrize("call, match", [
    (lambda: class_bound("X1", 3), "unknown class"),
    (lambda: class_bound("S1", 1), "class bound needs k >= 2"),
    (lambda: enumerate_class("S1", 9, 2, mode="nosuch"), "unknown mode"),
    (lambda: membership(cycle(6), "X1", 2), "unknown class"),
    (lambda: spanning_subgraph_of(cycle(6), "U", 2), "unknown family kind"),
    (lambda: appendix_check(1, 10), "appendix check needs k >= 2"),
    (lambda: appendix_check(3, 6), "appendix check needs n > 2k"),
    (lambda: complete(0), "graph order must be >= 1"),
    (lambda: copies(0, cycle(3)), "need k >= 1 copies"),
    (lambda: delete_edges(cycle(4), [(0, 9)]), "out of range for n=4"),
    (lambda: SplitMix64(1).sample_distinct(5, 3), "cannot sample 5 distinct below 3"),
    (lambda: SplitMix64(1).sample_distinct(-2, 5), "sample count must be >= 0, got -2"),
    (lambda: gnm(5, -3, SplitMix64(1)), "sample count must be >= 0, got -3"),
    (lambda: pair_unrank(4, 6), "pair index 6 out of range for n=4"),
    (lambda: upper_bound_edge_count(Graph(1)), "bound needs n >= 2"),
    (lambda: adjacent_pair_identity_defect(cycle(4), perron_pair(cycle(4)), 0, 2),
     "must be an edge"),
    (lambda: run_hunt(model="dense-above-edge-threshold(3)"), "dense model takes k=<int>"),
    (lambda: run_hunt(model="nosuch(1)"), "unknown model"),
    # outside the families' domain hub_partitions yields nothing instead
    (lambda: list(hub_partitions(cycle(4), "S", 2)), None),
    (lambda: list(hub_partitions(_K34, "S", 4)), None),
])
def test_input_guards(call, match):
    if match is None:
        assert call() == []
    else:
        with pytest.raises(BadParameters, match=match):
            call()
