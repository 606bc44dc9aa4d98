from dataclasses import replace

import numpy as np
import pytest

from asaddle.graph import build_graph, path_edges, ring_edges
from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem


def central_difference(fn, x, h=1e-6):
    """Independent gradient oracle: central finite differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rel_tol=1e-5):
    scale = max(1.0, float(np.linalg.norm(numeric)))
    assert np.linalg.norm(np.asarray(analytic) - numeric) <= rel_tol * scale


@pytest.fixture(scope="session")
def path3():
    return build_graph(3, path_edges(3))


@pytest.fixture(scope="session")
def ring5():
    return build_graph(5, ring_edges(5))


# the configs of the two consensus fixtures, for the per-node oracle
# (reference.as_neighborhood)
CONSENSUS_CFG = ConsensusRegressionConfig()
SMALL_CONSENSUS_CFG = ConsensusRegressionConfig(p=2, gamma=0.3, noise_std=0.1)


@pytest.fixture(scope="session")
def consensus_spec(ring5):
    return build_consensus_problem(CONSENSUS_CFG, ring5)


@pytest.fixture(scope="session")
def small_consensus_spec(path3):
    return build_consensus_problem(SMALL_CONSENSUS_CFG, path3)


@pytest.fixture(scope="session")
def nan_gradients():
    """Maps a consensus spec to the same spec with a gradient that is NaN on
    the draws with y > 2 (about 2 % of them)."""
    def with_nan_gradients(spec):
        obj = spec.objectives[0]

        def grad(x, th):
            return np.where(np.asarray(th[1])[..., None] > 2.0, np.nan, obj.grad(x, th))

        bad = replace(obj, grad=grad)
        return replace(spec, objectives=(bad,) * spec.graph.n_nodes)

    return with_nan_gradients
