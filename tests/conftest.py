import numpy as np
import pytest

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
