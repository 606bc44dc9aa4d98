import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaddle.delay import DelaySchedule, StalenessBuffer, resolve
from asaddle.errors import OutOfWindow


def resolve_one(sched, t, i, prev):
    """[t]_i of node i alone, one step on from ``prev``."""
    return int(resolve(sched, [t], [i], [prev])[0, 0])


def tau_one(sched, i, t):
    """tau_i(t) of node i alone."""
    return int(sched.tau([i], [t])[0, 0])


def test_resolve_zero_schedule_is_fresh():
    sched = DelaySchedule(kind="zero")
    prev = 0
    for t in range(50):
        prev = resolve_one(sched, t, 0, prev)
        assert prev == t


def test_resolve_fixed_paper_delay():
    sched = DelaySchedule(kind="fixed", tau_max=10)
    assert resolve_one(sched, 100, 0, 89) == 90


def test_resolve_monotonicity_clamp():
    # raw draw would give index 4 but the previous resolved index was 6
    table = np.zeros((20, 1), dtype=int)
    table[8, 0] = 4  # t - tau = 8 - 4 = 4
    sched = DelaySchedule(kind="custom_table", tau_max=6, table=table)
    assert resolve_one(sched, 8, 0, 6) == 6


def test_resolve_clips_at_history_start():
    sched = DelaySchedule(kind="fixed", tau_max=10)
    assert resolve_one(sched, 3, 0, 0) == 0


def test_uniform_bounds_and_determinism():
    a = DelaySchedule(kind="uniform_random", tau_max=5, seed=9)
    b = DelaySchedule(kind="uniform_random", tau_max=5, seed=9)
    vals = a.tau(np.arange(3), np.arange(200)).ravel().tolist()
    assert all(0 <= v <= 5 for v in vals)
    assert len(set(vals)) > 1
    # same seed, arbitrary query order: identical draws
    pairs = [(2, 150), (0, 0), (1, 4097), (2, 150), (0, 9000)]
    assert [tau_one(a, i, t) for i, t in pairs] == [tau_one(b, i, t) for i, t in pairs]


def test_per_node_fixed_delays_validated():
    sched = DelaySchedule(kind="fixed", tau_max=4, node_taus=(0, 2, 4))
    assert sched.tau(np.arange(3), [7])[0].tolist() == [0, 2, 4]
    with pytest.raises(ValueError):
        DelaySchedule(kind="fixed", tau_max=3, node_taus=(5,))


def test_custom_table_validation():
    with pytest.raises(ValueError):
        DelaySchedule(kind="custom_table", tau_max=2, table=np.array([[3]]))
    sched = DelaySchedule(kind="custom_table", tau_max=2, table=np.array([[1], [2]]))
    with pytest.raises(OutOfWindow):
        sched.tau([0], [5])


def test_buffer_record_fetch_round_trip():
    buf = StalenessBuffer(n_nodes=2, depth=4)
    v = np.array([1.0, 2.0])
    buf.record(10, 1, v)
    assert buf.fetch(10, 1) is v


def test_buffer_keeps_oldest_in_window():
    tau = 3
    buf = StalenessBuffer(n_nodes=1, depth=tau + 1)
    for t in range(tau + 1):
        buf.record(t, 0, t * 1.0)
    assert buf.fetch(0, 0) == 0.0  # oldest retained entry after tau+1 records
    buf.record(tau + 1, 0, 99.0)
    with pytest.raises(OutOfWindow):
        buf.fetch(0, 0)


def test_buffer_fetch_outside_window():
    buf = StalenessBuffer(n_nodes=1, depth=2)
    buf.record(5, 0, 1.0)
    with pytest.raises(OutOfWindow):
        buf.fetch(3, 0)


@settings(max_examples=80, deadline=None)
@given(tau=st.integers(0, 8), seed=st.integers(0, 10_000), T=st.integers(1, 300))
def test_resolved_chain_properties(tau, seed, T):
    sched = DelaySchedule(kind="uniform_random", tau_max=tau, seed=seed)
    prev = 0
    last = 0
    for t in range(T):
        idx = resolve_one(sched, t, 0, prev)
        assert idx >= last           # nondecreasing
        assert 0 <= idx <= t         # never from the future
        assert t - idx <= tau        # bounded staleness
        last, prev = idx, idx


@pytest.mark.parametrize("sched", [
    DelaySchedule(kind="zero"),
    DelaySchedule(kind="fixed", tau_max=4, node_taus=(0, 2, 4)),
    DelaySchedule(kind="uniform_random", tau_max=5, seed=9),
    DelaySchedule(kind="custom_table", tau_max=3, table=np.arange(30).reshape(10, 3) % 4),
], ids=["zero", "fixed", "uniform", "table"])
def test_all_nodes_at_once_match_per_node_draws(sched):
    nodes = np.arange(3)
    prev = np.array([0, 3, 5])
    for t in (0, 5, 9):
        assert sched.tau(nodes, [t])[0].tolist() == [tau_one(sched, i, t) for i in range(3)]
        assert resolve(sched, [t], nodes, prev)[0].tolist() == [
            resolve_one(sched, t, i, int(prev[i])) for i in range(3)]
    # draws past the first 4096-step chunk, asked for the whole network first
    wide = DelaySchedule(kind="uniform_random", tau_max=7, seed=2)
    one = DelaySchedule(kind="uniform_random", tau_max=7, seed=2)
    assert wide.tau(np.arange(6), [5000])[0, 4] == tau_one(one, 4, 5000)


def test_schedule_keeps_only_the_block_in_use():
    from asaddle.delay import _CHUNK
    sched = DelaySchedule(kind="uniform_random", tau_max=7, seed=4)
    nodes = np.arange(3)
    early = sched.tau(nodes, [10])[0]
    for t in range(0, 3 * _CHUNK + 1, 64):  # a run reaching a fourth block
        resolve(sched, [t], nodes, np.zeros(3, dtype=int))
    assert len(sched._chunks) == 1
    assert sched.tau(nodes, [10])[0].tolist() == early.tolist()
    assert tau_one(sched, 1, 10) == early[1]


def _schedule(kind, tau, seed, rows):
    if kind == "fixed":
        return DelaySchedule(kind="fixed", tau_max=tau, node_taus=(tau, tau // 2, 0))
    if kind == "custom_table":
        table = np.random.default_rng(seed).integers(0, tau + 1, size=(rows, 3))
        return DelaySchedule(kind="custom_table", tau_max=tau, table=table)
    return DelaySchedule(kind=kind, tau_max=tau, seed=seed)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["zero", "fixed", "uniform_random", "custom_table"]),
       tau=st.integers(0, 80), seed=st.integers(0, 10_000),
       # block 64 starts at the first 4096-step chunk boundary
       block=st.one_of(st.just(64), st.integers(0, 70)),
       prev=st.lists(st.integers(0, 5000), min_size=3, max_size=3))
def test_block_resolution_equals_the_per_step_chain(kind, tau, seed, block, prev):
    a = 64 * block
    sched = _schedule(kind, tau, seed, rows=a + 64)
    nodes = np.arange(3)
    prev = np.minimum(prev, a)
    rows = resolve(sched, np.arange(a, a + 64), nodes, prev)
    assert rows.shape == (64, 3)
    chain = prev
    for r, t in enumerate(range(a, a + 64)):
        chain = resolve(sched, [t], nodes, chain)[0]
        assert rows[r].tolist() == chain.tolist(), (r, t)


@pytest.mark.parametrize("kind", ["zero", "fixed", "uniform_random", "custom_table"])
def test_delay_draws_of_many_times_stay_in_one_chunk(kind):
    from asaddle.delay import _CHUNK
    sched = _schedule(kind, 5, 3, rows=2 * _CHUNK)
    nodes = np.arange(3)
    times = np.arange(_CHUNK - 64, _CHUNK)
    assert sched.tau(nodes, times).tolist() == [sched.tau(nodes, [t])[0].tolist() for t in times]
    with pytest.raises(ValueError, match="chunks"):
        sched.tau(nodes, np.arange(_CHUNK - 1, _CHUNK + 1))
