"""Bulk keying of the observation, delay and evaluation streams against numpy.

``keyed_generators`` hashes every key of a block in one numpy pass; each
generator it gives must hold the state ``default_rng(SeedSequence(key))``
holds, and every draw made from them must equal, byte for byte, the draw of
the per-key path kept in ``reference``. uint32 arithmetic on arrays wraps
silently, so any overflow warning here is a bug: the module turns
RuntimeWarning into an error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaddle.apps.pricing import PricingConfig, build_pricing_problem
from asaddle.delay import _CHUNK, DelaySchedule
from asaddle.problem import (OBS_BLOCK, ExpectedObjective, _members, keyed_generators,
                             observation_block, sample_observation)

from reference import (per_key_delay_tau, per_key_evaluation_draws, per_key_observation_block,
                       per_key_sample_observation)
from test_problem import monte_carlo

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

M64 = 0xFFFFFFFFFFFFFFFF


def numpy_state(key) -> dict:
    return np.random.PCG64(np.random.SeedSequence(key)).state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.sampled_from([1, 2, 3]),
       seeds=st.lists(st.integers(-2**63, 2**64 - 1), min_size=1, max_size=4),
       nodes=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       counters=st.lists(st.integers(0, 2**40 - 1), max_size=1))
def test_keyed_states_are_seedsequence_states(stream, seeds, nodes, counters):
    # keys of 3 words (a seed below 2^32, no counter) to 6 (a seed and a block
    # at or above 2^32), mixed in one call when the seeds' word counts differ
    gens = keyed_generators(stream, seeds, nodes, *counters)
    for seed in seeds:
        for node in nodes:
            assert next(gens).bit_generator.state == numpy_state([stream, seed & M64, node, *counters])
    assert next(gens, None) is None


def test_keyed_states_of_fixed_keys_and_word_counts():
    for seed in (0, 7, 2**40 + 3, 2**64 - 1, -5):
        for block in (0, 1, 77, 2**33):
            for node, rng in enumerate(keyed_generators(1, [seed], range(50), block)):
                assert rng.bit_generator.state == numpy_state([1, seed & M64, node, block])
    # 6 to 12 words: past the pool of 4, every further word mixes into it
    for extra in range(4):
        counters = [2**32 + c for c in range(extra)] + [2**40]
        (rng,) = keyed_generators(3, [2**63], [2**31], *counters)
        assert rng.bit_generator.state == numpy_state([3, 2**63, 2**31, *counters])


def assert_same_leaves(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def pricing_spec():
    return build_pricing_problem(PricingConfig())


@pytest.mark.parametrize("seeds", [[3], [0, 1, 2, 3, 4], [5, 2**32 + 1, 2**40 + 3, 6, 2**64 - 1]],
                         ids=["one-lane", "five-lanes", "mixed-word-counts"])
@pytest.mark.parametrize("block", [0, 2**33])
def test_observation_block_equals_per_key_blocks(consensus_spec, pricing_spec, seeds, block):
    for spec in (consensus_spec, pricing_spec):
        want = per_key_observation_block(spec, seeds, block)
        assert_same_leaves(observation_block(spec, seeds, block), want)
        if len(seeds) == 1:
            assert_same_leaves(observation_block(spec, seeds[0], block), want)


def test_sample_observation_equals_per_key_draws(consensus_spec, pricing_spec):
    for spec in (consensus_spec, pricing_spec):
        for seed, node, t in [(0, 0, 0), (7, 2, OBS_BLOCK - 1), (2**40 + 3, 1, 5 * OBS_BLOCK + 9),
                              (-5, 2, 2**33 * OBS_BLOCK)]:
            assert_same_leaves(sample_observation(spec, seed, node, t),
                               per_key_sample_observation(spec, seed, node, t))


def test_delay_draws_across_a_chunk_equal_per_key_draws():
    for seed in (0, 11, 2**40 + 3):
        sched = DelaySchedule(kind="uniform_random", tau_max=9, seed=seed)
        nodes = np.arange(7)
        for times in (np.arange(_CHUNK - 64, _CHUNK), np.arange(_CHUNK, _CHUNK + 64), np.arange(0, 64)):
            got = sched.tau(nodes, times)
            assert got.tobytes() == per_key_delay_tau(sched, nodes, times).tobytes()


def test_evaluation_draws_equal_per_key_draws(consensus_spec, pricing_spec):
    S = 50
    for spec in (monte_carlo(consensus_spec), monte_carlo(pricing_spec)):
        for seed in (0, 2**40 + 3):
            est = ExpectedObjective(spec, mc_samples=S, seed=seed)
            assert est._sampled
            for _, nodes, _, _, draws in est._sampled:
                members = _members(nodes, spec.graph.n_nodes)
                per_node = [per_key_evaluation_draws(spec, seed, i, S) for i in members]
                if spec.uniform:  # one row (S, ...) per node
                    want = [np.stack(leaf) for leaf in zip(*per_node)]
                else:  # (S, k, ...) per node: k coordinate rows of dimension 1
                    want = [np.concatenate([d.swapaxes(0, 1)[:, :, None] for d in leaf]) for leaf in zip(*per_node)]
                assert_same_leaves(draws, want)
