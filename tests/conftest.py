import numpy as np
import pytest

from lalec import schema_model as sm
from lalec import toyml


@pytest.fixture(scope="session")
def registry():
    return toyml.load_registry()


@pytest.fixture(scope="session")
def blobs():
    return toyml.synth_dataset("blobs", 120, 0)


@pytest.fixture(scope="session")
def xor_data():
    return toyml.synth_dataset("xor", 160, 1)


def probe_lattice(lo, hi, points=17):
    """Evenly spaced probe values over (lo, hi) plus near-bound points.

    The midpoint lands exactly on (lo+hi)/2, which the fixture schemas use
    as their pinned constants (0.25 for the tree's confidence).
    """
    inner = [lo + i * (hi - lo) / (points - 1) for i in range(1, points - 1)]
    delta = (hi - lo) * 1e-6
    return [lo + delta] + inner + [hi - delta]


def tree_shape(node):
    """(feature, threshold bits, counts, label) of every node, preorder."""
    out = [(node.get("feature"),
            None if "threshold" not in node else np.float64(node["threshold"]).tobytes(),
            node["counts"].tolist(), node["label"])]
    if "feature" in node:
        assert type(node["feature"]) is int and type(node["threshold"]) is float
        out += tree_shape(node["left"]) + tree_shape(node["right"])
    return out


def hier_member(doc, point):
    """Whether a hierarchical document, read as JSON, holds the point."""
    kind = doc["kind"]
    if kind == "steps":
        return all(hier_member(child, point) for child in doc["steps"].values())
    if kind == "choice":
        branch = point.get(doc["discriminant"])
        if branch not in doc["branches"]:
            return False
        return hier_member(doc["branches"][branch], point)
    for disjunct in doc["disjuncts"]:
        if all(_doc_admits(domain, point.get(name), point)
               for name, domain in disjunct.items()):
            return True
    return False


def _doc_admits(domain, value, point):
    if domain["kind"] == "categorical":
        return any(sm.scalar_eq(value, v) for v in domain["values"])
    if domain["kind"] == "continuous":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if domain["integer"] and float(value) != int(value):
            return False
        if value < domain["lo"] or (domain["loOpen"] and value == domain["lo"]):
            return False
        if value > domain["hi"] or (domain["hiOpen"] and value == domain["hi"]):
            return False
        return True
    return hier_member(domain["space"], point)  # an operator slot
