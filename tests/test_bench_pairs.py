"""The summarizer of scripts/bench_pairs.py, on synthetic pairs."""

import importlib.util
import os

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall, ok=1.0, attempted=4, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ok_frac": {"value": ok, "unit": "1"}}}


BETTER = {"wall_s": "lower", "ok_frac": "higher"}


def test_wins_ties_and_quartiles():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 1.0, 4.0]   # wins pairs 0, 3, 4; ties pair 1; loses pair 2
    pairs = [(result(p), result(c, attempted=5, failed=1 if k == 2 else 0))
             for k, (p, c) in enumerate(zip(parent, change))]
    block = bench_pairs.summarize(pairs, BETTER)
    assert block["pairs"] == 5
    assert block["attempted_calls"] == {"parent": 20, "change": 25}
    assert block["failed_calls"] == {"parent": 0, "change": 1}
    wall = block["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert (wall["change_wins"], wall["ties"]) == (3, 1)
    q1, med, q3 = np.percentile(parent, [25, 50, 75])
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (q1, med, q3)
    assert wall["parent"]["runs"] == parent and wall["parent"]["n"] == 5
    assert wall["change_over_parent_median"] == pytest.approx(np.median(change) / np.median(parent))


def test_higher_is_better_and_all_ties():
    pairs = [(result(1.0, ok=0.5), result(1.0, ok=1.0)), (result(1.0), result(1.0))]
    block = bench_pairs.summarize(pairs, BETTER)
    ok = block["metrics"]["ok_frac"]
    assert (ok["change_wins"], ok["ties"]) == (1, 1)
    wall = block["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["ties"]) == (0, 2)
    assert wall["change_over_parent_median"] == 1.0
