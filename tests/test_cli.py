import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from asaddle.cli import (OUTPUT_DIR_ENV, TRACE_COLUMNS, ExperimentConfig, ParseError,
                         ValidationError, build_problem, compare_modes, config_from_dict, main,
                         parse_config, run_experiment, trace_columns, write_csv)


def write_cfg(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


SMALL = {
    "problem": {"name": "consensus_regression", "p": 2, "x0_value": 1.0},
    "graph": {"n_nodes": 3, "edges": [[0, 1], [1, 2]]},
    "algo": {"T": 120, "delta": 1e-5},
    "delay": {"kind": "uniform_random", "tau_max": 3},
    "eval": {"seeds": [0, 1], "mc_samples": 300, "optimum_budget": 500},
    "output": {"thin_every": 20},
}


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = config_from_dict({"problem": {"name": "consensus_regression"}, "algo": {"T": 1000}})
    assert cfg.resolved_epsilon() == pytest.approx(1.0 / math.sqrt(1000))
    assert cfg.mode == "async" and cfg.tau_max == 0 and cfg.seeds == (0,)
    assert cfg.mc_samples == 2000
    assert config_from_dict({"problem": {"name": "pricing"}}) == ExperimentConfig(problem_name="pricing")


def test_integral_numbers_and_null_blocks():
    # an integral float reads as its int; a null block keeps the defaults
    cfg = config_from_dict({"problem": {"name": "pricing"}, "algo": {"T": 1e4},
                            "eval": {"seeds": [3.0, 4]}, "output": None})
    assert type(cfg.T) is int and cfg.T == 10000 and cfg.seeds == (3, 4)
    assert cfg.out_dir == "out" and cfg.thin_every == 50
    with pytest.raises(ValidationError, match=r"algo\.T: expected an integer, got 2\.9"):
        config_from_dict({"problem": {"name": "pricing"}, "algo": {"T": 2.9}})


def test_sync_mode_forbids_positive_tau():
    with pytest.raises(ValidationError):
        config_from_dict({"problem": {"name": "consensus_regression"},
                          "algo": {"T": 10, "mode": "sync"},
                          "delay": {"kind": "fixed", "tau_max": 5}})


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError) as e:
        config_from_dict({"problem": {"name": "consensus_regression"},
                          "algo": {"T": 10, "stepsize": 0.1}})
    assert "stepsize" in str(e.value)
    with pytest.raises(ValidationError):
        config_from_dict({"problem": {"name": "consensus_regression"}, "bogus": {}})
    with pytest.raises(ValidationError):
        config_from_dict({"problem": {"name": "not_a_problem"}})
    with pytest.raises(ValidationError):
        config_from_dict({"problem": {"name": "consensus_regression"},
                          "eval": {"seeds": []}})


def test_parse_error_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "problem": "consensus_regression",\n  oops\n}', encoding="utf-8")
    with pytest.raises(ParseError) as e:
        parse_config(str(bad))
    assert "line 3" in str(e.value)
    with pytest.raises(ParseError):
        parse_config(str(tmp_path / "missing.json"))


def test_shipped_pricing_config_echoes_parameters():
    path = Path(__file__).resolve().parents[1] / "configs" / "pricing.json"
    cfg = parse_config(str(path))
    spec, app = build_problem(cfg)
    assert app.n_mus == 2 and app.n_scbs == 3
    assert app.assignment == ((0, 1), (1, 2))
    assert app.gain_mean == 3.0 and app.bandwidth == 1.0 and app.cost == 0.1
    assert app.c_min == 0.9 and app.c_max == 20.0
    assert app.gamma_db == -3.0
    assert cfg.epsilon == 0.01 and cfg.delta == 1e-5 and cfg.tau_max == 10


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_run_experiment_files_and_schema(tmp_path):
    cfg = config_from_dict(SMALL)
    out = str(tmp_path / "out")
    summary, paths, traces = run_experiment(cfg, out_dir=out)
    names = sorted(os.listdir(out))
    assert names == ["averaged.csv", "summary.json", "trace_seed0.csv", "trace_seed1.csv"]
    text = open(os.path.join(out, "trace_seed0.csv"), "rb").read().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + (cfg.T + 1) + 1  # header + rows + trailing newline
    assert "\r" not in text
    assert summary.audit_ok
    assert summary.T == 120


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = config_from_dict(SMALL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, out_dir=out1)
    run_experiment(config_from_dict(SMALL), out_dir=out2)
    for name in os.listdir(out1):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_compare_modes_zero_tau_identical(tmp_path):
    body = dict(SMALL)
    body["delay"] = {"kind": "zero", "tau_max": 0}
    cfg = config_from_dict(body)
    summary, path = compare_modes(cfg, out_dir=str(tmp_path))
    rows = open(path, encoding="utf-8").read().strip().split("\n")
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    for key in ("F_hat", "subopt_running", "violation_agg_cumclip"):
        i, j = header.index(f"{key}_sync"), header.index(f"{key}_async")
        assert np.array_equal(data[:, i], data[:, j])
    assert summary["final_gap_async_minus_sync"] == pytest.approx(0.0, abs=1e-15)


def test_compare_modes_async_lags_sync(tmp_path):
    body = dict(SMALL)
    body["algo"] = {"T": 400, "delta": 1e-5, "epsilon": 0.05}
    body["delay"] = {"kind": "fixed", "tau_max": 8}
    cfg = config_from_dict(body)
    summary, _ = compare_modes(cfg, out_dir=str(tmp_path))
    assert summary["final_subopt_running_async"] >= summary["final_subopt_running_sync"]


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_run_success_and_overrides(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL)
    out = str(tmp_path / "ovr")
    code = main(["run", path, "--seed", "3", "--T", "60", "--out", out])
    assert code == 0
    assert sorted(os.listdir(out)) == ["averaged.csv", "summary.json", "trace_seed3.csv"]
    got = json.loads(open(os.path.join(out, "summary.json")).read())
    assert got["T"] == 60 and got["seeds"] == [3]


def test_main_tau_override_switches_kind(tmp_path):
    body = dict(SMALL)
    body["delay"] = {"kind": "zero", "tau_max": 0}
    path = write_cfg(tmp_path, body)
    out = str(tmp_path / "tau")
    assert main(["run", path, "--tau", "4", "--T", "50", "--seed", "0", "--out", out]) == 0
    got = json.loads(open(os.path.join(out, "summary.json")).read())
    assert got["audit_tau_bound"] == 4 and got["audit_max_staleness"] <= 4


def test_main_config_error_exit_2(tmp_path):
    bad = write_cfg(tmp_path, {"problem": {"name": "nope"}})
    assert main(["run", bad]) == 2
    assert main(["run", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("change", [
    {"algo": {"T": "x"}},
    {"eval": {"seeds": 3}},
    {"output": {"thin_every": None}},
    {"algo": 5},
    {"graph": {"n_nodes": 5, "edges": [[0, 7]]}},
    {"graph": {"n_nodes": 5, "edges": "star"}},
    {"graph": {"n_nodes": 0}},
    {"graph": {"n_nodes": 3, "edges": [[0, 0]]}},
    {"graph": {"n_nodes": 4, "edges": [[0, 1], [2, 3]]}},  # disconnected
    {"output": {"dir": None}},  # would write into a directory named "None"
    {"output": {"dir": 5}},
    {"algo": {"T": 2.9}},  # would run T=2
    {"algo": {"T": True}},  # would run T=1
    {"eval": {"seeds": [0.7, 1.9]}},  # would run seeds 0 and 1
    {"delay": {"kind": "fixed", "tau_max": 2.5}},
    {"algo": []},  # falsy non-objects were read as empty blocks
    {"algo": 0},
    {"algo": ""},
    {"algo": False},
], ids=["T_text", "seeds_int", "thin_null", "block_int", "edge_outside", "edges_text",
        "no_nodes", "self_loop", "disconnected", "dir_null", "dir_int", "T_fraction", "T_bool",
        "seeds_fraction", "tau_fraction", "block_list", "block_zero", "block_empty_text", "block_false"])
def test_malformed_config_values_exit_2_without_traceback(tmp_path, capsys, change):
    body = dict(SMALL, **change)
    with pytest.raises(ValidationError):
        config_from_dict(body)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_runtime_error_exit_3(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, SMALL)
    import asaddle.cli as cli_mod
    from asaddle.errors import SaddleError

    def boom(*a, **k):
        raise SaddleError("induced failure")

    monkeypatch.setattr(cli_mod, "estimate_optimum", boom)
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 3


def test_main_non_finite_start_exit_3(tmp_path, capsys):
    # a NaN price start used to escape the projection as a bare IndexError
    path = tmp_path / "nan.json"
    path.write_text('{"problem": {"name": "pricing", "x0": [[NaN], [0.45, 0.45], [0.9]]},'
                    ' "algo": {"T": 10}}', encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_main_strict_audit_failure_exit_4(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, SMALL)
    import asaddle.cli as cli_mod
    from asaddle.metrics import AuditResult

    def failing_audit(trace, feas_tol=1e-9):
        return AuditResult(ok=False, dual_nonnegative=False, staleness_bounded=True,
                           staleness_monotone=True, primal_feasible=True,
                           max_staleness=0, min_dual=-1.0, max_domain_residual=0.0)

    monkeypatch.setattr(cli_mod, "audit_invariants", failing_audit)
    assert main(["run", path, "--strict", "--out", str(tmp_path / "y")]) == 4
    assert main(["run", path, "--out", str(tmp_path / "z")]) == 0  # only strict gates


def test_env_var_output_override(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, SMALL)
    env_out = str(tmp_path / "env_out")
    monkeypatch.setenv(OUTPUT_DIR_ENV, env_out)
    assert main(["run", path, "--T", "40", "--seed", "0"]) == 0
    assert os.path.isdir(env_out)
    # --out beats the environment
    cli_out = str(tmp_path / "cli_out")
    assert main(["run", path, "--T", "40", "--seed", "0", "--out", cli_out]) == 0
    assert os.path.isdir(cli_out)


def test_main_advise_and_audit_verbs(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL)
    assert main(["audit", path]) == 0
    est = json.loads(capsys.readouterr().out)
    assert est["sigma_f2"] > 0
    assert main(["advise", path]) == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("}\n{")
    advice = json.loads("{" + blocks[-1] if len(blocks) > 1 else out)
    # tiny horizon: the closed form has no real root, reported as infeasible
    assert advice["feasible"] is False and advice["min_T"] > 120


def test_fresh_slack_is_recorded_only_for_the_sinr_report(tmp_path):
    _, _, traces = run_experiment(config_from_dict(SMALL), out_dir=str(tmp_path / "c"))
    assert all(tr.current_slack is None for tr in traces)
    pricing = {"problem": {"name": "pricing"}, "algo": {"T": 40, "epsilon": 0.01},
               "delay": {"kind": "uniform_random", "tau_max": 3},
               "eval": {"seeds": [0], "mc_samples": 50, "optimum_budget": 40}}
    summary, _, traces = run_experiment(config_from_dict(pricing), out_dir=str(tmp_path / "p"))
    assert traces[0].current_slack.shape == (40, 2) and summary.sinr_db is not None


def test_main_huge_finite_start_is_projected(tmp_path, capsys):
    # 1e300 + (20 - 1e300) rounds to 0, so the shift-and-clip solve used to
    # find no active breakpoint and end in a bare IndexError (exit 1)
    path = tmp_path / "huge.json"
    path.write_text('{"problem": {"name": "pricing", "x0": [[1.0], [1e300, 5.0], [1.0]]},'
                    ' "algo": {"T": 10}, "eval": {"mc_samples": 50}}', encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    spec, _ = build_problem(parse_config(str(path)))
    assert spec.x0[1].tolist() == [20.0, 0.0]


def test_unwritable_output_dir_exit_3(tmp_path, monkeypatch, capsys):
    path = write_cfg(tmp_path, SMALL)
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    import asaddle.cli as cli_mod

    def no_fstar(*a, **k):
        raise AssertionError("the F* run started before the output directory was checked")

    monkeypatch.setattr(cli_mod, "estimate_optimum", no_fstar)
    for verb in ("run", "compare"):
        assert main([verb, path, "--T", "20", "--out", str(blocker / "sub")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_compare_strict_audit_failure_exit_4(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, SMALL)
    import asaddle.cli as cli_mod
    from asaddle.metrics import AuditResult

    audited = []

    def failing_audit(trace, feas_tol=1e-9):
        audited.append((trace.mode, trace.seed))
        return AuditResult(ok=False, dual_nonnegative=False, staleness_bounded=True,
                           staleness_monotone=True, primal_feasible=True,
                           max_staleness=0, min_dual=-1.0, max_domain_residual=0.0)

    monkeypatch.setattr(cli_mod, "audit_invariants", failing_audit)
    strict, lax = tmp_path / "strict", tmp_path / "lax"
    assert main(["compare", path, "--strict", "--T", "60", "--out", str(strict)]) == 4
    assert sorted(audited) == [("async", 0), ("async", 1), ("sync", 0), ("sync", 1)]
    assert main(["compare", path, "--T", "60", "--out", str(lax)]) == 0  # only strict gates
    for name in ("compare.csv", "compare_summary.json"):
        assert (strict / name).read_bytes() == (lax / name).read_bytes()
    monkeypatch.undo()
    assert main(["compare", path, "--strict", "--T", "60", "--out", str(lax)]) == 0


def test_network_without_constraints_reports_the_advisor_error(tmp_path, capsys):
    # one node: no constraint, so the constraint moments are 0 and the
    # advisor cannot run; the run still writes everything and exits 0
    path = write_cfg(tmp_path, {"problem": {"name": "consensus_regression"},
                                "graph": {"n_nodes": 1}, "algo": {"T": 20}})
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["averaged.csv", "summary.json", "trace_seed0.csv"]
    advisor = json.loads((out / "summary.json").read_text(encoding="utf-8"))["advisor"]
    assert "moment estimates must be positive" in advisor["error"]
    assert advisor["sigma_h2"] == 0.0 and "constants" not in advisor
    capsys.readouterr()
    assert main(["advise", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: moment estimates must be positive")
    assert "Traceback" not in err


def test_a_nan_moment_sample_is_an_advisor_error(tmp_path, monkeypatch, capsys, nan_gradients):
    # a gradient that is NaN on some draws makes sigma_f2 NaN: run records
    # the advisor error and exits 0, advise exits 3
    import asaddle.cli as cli_mod
    audit = cli_mod.audit_assumptions
    monkeypatch.setattr(cli_mod, "audit_assumptions",
                        lambda spec, **sizes: audit(nan_gradients(spec), **sizes))
    path = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    advisor = json.loads((out / "summary.json").read_text(encoding="utf-8"))["advisor"]
    assert math.isnan(advisor["sigma_f2"])
    assert advisor["error"].startswith("advisor: moment estimates must be positive")
    capsys.readouterr()
    assert main(["advise", path]) == 3
    assert capsys.readouterr().err.startswith("runtime error: moment estimates must be positive")


def _cell_by_cell_csv(columns, order) -> str:
    """CSV text written one cell at a time: integers with str, every other
    value as repr(float(v))."""
    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    lines = [",".join(order)]
    for r in range(len(columns[order[0]])):
        lines.append(",".join(fmt(columns[c][r]) for c in order))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_the_cell_by_cell_writer(tmp_path):
    _, _, traces = run_experiment(config_from_dict(SMALL), out_dir=str(tmp_path / "run"))
    columns = trace_columns(traces[0], 0.5)
    edge = {"t": np.arange(7), "F_hat": np.array([np.nan, -0.0, 0.0, 1e-310, 0.1 + 0.2, -np.inf, 1e22]),
            "max_staleness": np.array([0, 3, 10, 2, 1, 0, 7])}
    for cols, order in ((columns, TRACE_COLUMNS), (edge, ["t", "F_hat", "max_staleness"])):
        path = tmp_path / "out.csv"
        write_csv(str(path), cols, order)
        assert path.read_bytes() == _cell_by_cell_csv(cols, order).encode("utf-8")


def test_advise_raises_a_typed_error_on_degenerate_estimates(path3):
    from asaddle.errors import DegenerateEstimates, SaddleError
    from asaddle.metrics import AssumptionEstimates
    from asaddle.saddle import advise
    for bad in (0.0, -1.0, math.nan):
        est = AssumptionEstimates(sigma_f2=1.0, sigma_h2=bad, sigma_lambda2=1.0, L_f=1.0)
        with pytest.raises(DegenerateEstimates) as info:
            advise(est, path3, tau=1, T=100)
        assert isinstance(info.value, SaddleError) and isinstance(info.value, ValueError)


def test_custom_table_delay_is_a_config_error(tmp_path, capsys):
    body = dict(SMALL, delay={"kind": "custom_table", "tau_max": 2})
    with pytest.raises(ValidationError, match="custom_table"):
        config_from_dict(body)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("table", [{"0,1": 0.3}, [[0, 1, 0.3]], {"(0, 1)": -1}],
                         ids=["string_keys", "edge_list", "negative"])
def test_gamma_table_is_a_config_error(tmp_path, capsys, table):
    # JSON cannot key a table by (i, j) tuples: every shape is refused up front
    body = dict(SMALL, problem=dict(SMALL["problem"], gamma_table=table))
    with pytest.raises(ValidationError, match="gamma_table .* JSON cannot give"):
        config_from_dict(body)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("problem", [
    {"name": "pricing", "gain_mean": -1},
    {"name": "consensus_regression", "noise_std": -1},
    {"name": "consensus_regression", "p": 2, "weights": [[1.0, 0.0]]},  # one row for 3 nodes
    {"name": "pricing", "assignment": 5},
    {"name": "pricing", "no_such_parameter": 1},
    {"name": "pricing", "gamma_db": 4000.0},  # 10^400 overflows a float
    {"name": "pricing", "gamma_db": [-3.0, 4000.0]},
    {"name": "pricing", "gamma_db": [-3.0]},  # two MUs
    {"name": "pricing", "mu_n": [1.0]},  # three SCBSs
    {"name": "pricing", "nu_n": [1.0, 2.0]},
    {"name": "pricing", "x0": [[1.0]]},
    {"name": "pricing", "x0": [[1.0], [1.0], [1.0]]},  # SCBS 1 serves two subchannels
    {"name": "pricing", "x0": [[0.9], [0.45, 0.45], [0.9], [0.9]]},
])
def test_invalid_app_parameters_exit_2_before_any_output(tmp_path, capsys, problem):
    body = dict(SMALL, problem=problem)
    if problem["name"] == "pricing":
        body.pop("graph")
    out = tmp_path / "out"
    for verb in ("run", "compare", "advise"):
        assert main([verb, write_cfg(tmp_path, body), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
    assert not out.exists()
