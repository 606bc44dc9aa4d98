"""Experiment runner: JSON config in, CSV traces and JSON summaries out.

Verbs:
    run <config>      multi-seed experiment, per-seed + seed-averaged CSVs
    compare <config>  sync vs async overlay of the same experiment
    advise <config>   moment estimates and the theory-driven step/regularizer
    audit <config>    moment estimates only

Exit codes: 0 success, 2 config error, 3 runtime error, 4 invariant-audit
failure under --strict. The ASADDLE_OUT environment variable overrides the
configured output directory (the --out flag overrides both).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .apps.consensus import ConsensusRegressionConfig, build_consensus_problem
from .apps.pricing import PricingConfig, build_pricing_problem, naive_baseline, revenue_series, sinr_report
from .delay import DelaySchedule
from .errors import (AuditFailure, DegenerateEstimates, DegenerateSeries, DisconnectedGraph,
                     InvalidConfig, NoFeasibleDelta, OutputError, SaddleError, SelfLoop)
from .graph import build_graph, ring_edges
from .metrics import (audit_assumptions, audit_invariants, cumulative_suboptimality,
                      estimate_optimum, fit_rate, running_suboptimality)
from .problem import DEFAULT_MC_SAMPLES, ExpectedObjective
from .saddle import Hyperparams, advise, run_lanes

__all__ = ["ExperimentConfig", "SummaryReport", "ParseError", "ValidationError",
           "parse_config", "app_config", "run_experiment", "compare_modes", "main",
           "TRACE_COLUMNS", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "ASADDLE_OUT"
TRACE_COLUMNS = ["t", "F_hat", "subopt_running", "violation_agg_running",
                 "violation_agg_cumclip", "lambda_norm", "max_staleness"]


class ParseError(SaddleError):
    """The config file is not readable JSON."""


class ValidationError(SaddleError):
    """The config is valid JSON but violates the schema."""


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    problem_name: str
    problem_params: dict = field(default_factory=dict)
    graph_n_nodes: int = 5
    graph_edges: object = "ring"
    epsilon: float | None = None
    delta: float = 1e-5
    T: int = 10000
    mode: str = "async"
    delay_kind: str = "zero"
    tau_max: int = 0
    delay_seed: int | None = None
    mc_samples: int = DEFAULT_MC_SAMPLES
    optimum_budget: int | None = None
    seeds: tuple = (0,)
    eval_seed: int = 2020
    optimum_seed: int = 424243
    out_dir: str = "out"
    thin_every: int = 50

    def resolved_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else 1.0 / math.sqrt(self.T)

    def resolved_optimum_budget(self) -> int:
        return self.optimum_budget if self.optimum_budget is not None else self.T


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _integer(value) -> int:
    """A JSON integer, or a number with an integral value (1e4 reads as
    10000); a bool, a fraction or anything else raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    """A JSON string; anything else (null included) raises."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# block -> key -> (ExperimentConfig field, conversion of the JSON value); an
# absent key keeps the field's default
_KEYS = {
    "graph": {"n_nodes": ("graph_n_nodes", _integer), "edges": ("graph_edges", lambda edges: edges)},
    "algo": {"epsilon": ("epsilon", _optional(float)), "delta": ("delta", float),
             "T": ("T", _integer), "mode": ("mode", _text)},
    "delay": {"kind": ("delay_kind", _text), "tau_max": ("tau_max", _integer),
              "seed": ("delay_seed", _optional(_integer))},
    "eval": {"mc_samples": ("mc_samples", _integer),
             "optimum_budget": ("optimum_budget", _optional(_integer)),
             "seeds": ("seeds", lambda seeds: tuple(_integer(s) for s in seeds)),
             "eval_seed": ("eval_seed", _integer), "optimum_seed": ("optimum_seed", _integer)},
    "output": {"dir": ("out_dir", _text), "thin_every": ("thin_every", _integer)},
}


def parse_config(path: str) -> ExperimentConfig:
    """Load, default-fill and validate an experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The ``ExperimentConfig`` of a parsed JSON config, or ValidationError.

    ``_KEYS`` names and converts every key outside ``problem``: an absent
    key (or block) keeps the dataclass default. The app config checks the
    problem's parameters (``app_config``), and ``build_graph`` a consensus
    network."""
    if not isinstance(raw, dict):
        raise ValidationError("top-level config must be an object")
    unknown = set(raw) - {"problem", *_KEYS}
    if unknown:
        raise ValidationError(f"unknown config block(s): {sorted(unknown)}")
    blocks = {block: {} if raw.get(block) is None else raw[block] for block in _KEYS}
    for block, given in blocks.items():
        if not isinstance(given, dict):
            raise ValidationError(f"'{block}' must be an object")
        extra = set(given) - set(_KEYS[block])
        if extra:
            raise ValidationError(f"unknown key(s) in '{block}': {sorted(extra)}")

    problem = raw.get("problem")
    if isinstance(problem, str):
        problem = {"name": problem}
    if not isinstance(problem, dict) or "name" not in problem:
        raise ValidationError("'problem' must give a problem name")
    params = {k: v for k, v in problem.items() if k != "name"}
    name = problem["name"]
    if name not in ("consensus_regression", "pricing"):
        raise ValidationError(f"unknown problem name {name!r}")

    fields = {"problem_name": name, "problem_params": params}
    for block, given in blocks.items():
        for key, value in given.items():
            attr, convert = _KEYS[block][key]
            try:
                fields[attr] = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"invalid config value {block}.{key}: {exc}") from exc
    cfg = ExperimentConfig(**fields)
    _validate(cfg)
    app_config(cfg)
    if name == "consensus_regression":
        try:
            consensus_graph(cfg)
        except (SelfLoop, DisconnectedGraph, TypeError, ValueError) as exc:
            raise ValidationError(f"graph: {exc}") from exc
    return cfg


# every rule an ExperimentConfig keeps, in the order checked: (broken, message)
_RULES = [
    (lambda cfg: cfg.T < 1, "algo.T must be >= 1"),
    (lambda cfg: cfg.resolved_epsilon() <= 0, "algo.epsilon must be > 0"),
    (lambda cfg: cfg.delta < 0, "algo.delta must be >= 0"),
    (lambda cfg: cfg.mode not in ("sync", "async"), "algo.mode must be 'sync' or 'async'"),
    (lambda cfg: cfg.mode == "sync" and cfg.tau_max != 0, "algo.mode 'sync' forces delay.tau_max = 0"),
    (lambda cfg: cfg.delay_kind == "custom_table", "delay.kind 'custom_table' needs a delay table, "
     "which no config key gives; build that DelaySchedule in Python"),
    (lambda cfg: cfg.delay_kind not in ("zero", "fixed", "uniform_random"), "unknown delay.kind {kind!r}"),
    (lambda cfg: cfg.tau_max < 0, "delay.tau_max must be >= 0"),
    (lambda cfg: not cfg.seeds, "eval.seeds must be nonempty"),
    (lambda cfg: cfg.mc_samples < 1, "eval.mc_samples must be >= 1"),
    (lambda cfg: cfg.thin_every < 0, "output.thin_every must be >= 0"),
]


def _validate(cfg: ExperimentConfig) -> None:
    for broken, message in _RULES:
        if broken(cfg):
            raise ValidationError(message.format(kind=cfg.delay_kind))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def app_config(cfg: ExperimentConfig):
    """The problem's ``PricingConfig`` or ``ConsensusRegressionConfig``;
    ValidationError when its parameters are invalid."""
    name = "pricing" if cfg.problem_name == "pricing" else "consensus"
    params = dict(cfg.problem_params)
    try:
        if name == "pricing":
            if "assignment" in params:
                params["assignment"] = tuple(tuple(g) for g in params["assignment"])
            for key in ("mu_n", "nu_n", "gamma_db", "x0"):
                if isinstance(params.get(key), list):
                    params[key] = tuple(params[key])
            return PricingConfig(**params)
        if params.get("gamma_table") is not None:
            raise ValidationError("consensus params: gamma_table keys its tolerances by (i, j) "
                                  "edge tuples, which JSON cannot give; build that "
                                  "ConsensusRegressionConfig in Python")
        if params.get("weights") is not None:
            params["weights"] = tuple(tuple(row) for row in params["weights"])
        app = ConsensusRegressionConfig(**params)
    except (TypeError, InvalidConfig) as exc:
        raise ValidationError(f"{name} params: {exc}") from exc
    if app.weights is not None and np.shape(app.weights) != (cfg.graph_n_nodes, app.p):
        raise ValidationError(f"consensus params: weights must have shape ({cfg.graph_n_nodes}, {app.p})")
    return app


def build_problem(cfg: ExperimentConfig):
    """Return (ProblemSpec, app config)."""
    app = app_config(cfg)
    if cfg.problem_name == "pricing":
        return build_pricing_problem(app), app
    return build_consensus_problem(app, consensus_graph(cfg)), app


def consensus_graph(cfg: ExperimentConfig):
    """The configured network of a consensus problem: a ring, or an edge list."""
    edges = ring_edges(cfg.graph_n_nodes) if cfg.graph_edges == "ring" else cfg.graph_edges
    return build_graph(cfg.graph_n_nodes, edges)


def build_schedule(cfg: ExperimentConfig, run_seed: int) -> DelaySchedule:
    kind = "zero" if cfg.mode == "sync" else cfg.delay_kind
    seed = cfg.delay_seed if cfg.delay_seed is not None else run_seed
    return DelaySchedule(kind=kind, tau_max=cfg.tau_max, seed=seed)  # kind "zero" sets tau_max 0


def build_hyperparams(cfg: ExperimentConfig) -> Hyperparams:
    return Hyperparams(epsilon=cfg.resolved_epsilon(), delta=cfg.delta, T=cfg.T)


# ---------------------------------------------------------------------------
# trace -> CSV
# ---------------------------------------------------------------------------

def trace_columns(trace, f_star: float) -> dict:
    """Row-aligned column arrays in the stable CSV schema."""
    t = np.arange(trace.T + 1)
    cumclip = np.concatenate([[0.0], trace.violation_cumclip])
    return {
        "t": t,
        "F_hat": trace.F_hat,
        "subopt_running": running_suboptimality(trace, f_star),
        "violation_agg_running": cumclip / np.maximum(t, 1),
        "violation_agg_cumclip": cumclip,
        "lambda_norm": trace.lambda_norm,
        "max_staleness": trace.max_staleness_per_row(),
    }


def _cells(column) -> list:
    """A column's cells as text: integers with ``str``, anything else as
    the ``repr`` of a Python float (``nan``, ``-0.0``, shortest round trip)."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return list(map(repr, column.astype(float).tolist()))


def write_csv(path: str, columns: dict, order: list) -> None:
    cells = [_cells(columns[c]) for c in order]
    with _output(path) as fh:
        fh.write(",".join(order) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


@contextmanager
def _output(path: str):
    """``open(path, "w")`` for an output file; an OSError from opening,
    writing or closing it becomes OutputError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def average_columns(per_seed: list) -> dict:
    out = {"t": per_seed[0]["t"]}
    for key in TRACE_COLUMNS[1:]:
        arrs = [cols[key] for cols in per_seed]
        out[key] = np.max(arrs, axis=0) if key == "max_staleness" else np.mean(arrs, axis=0)
    return out


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

@dataclass
class SummaryReport:
    problem: str
    mode: str
    T: int
    seeds: tuple
    f_star: float
    f_star_source: str
    final_subopt_running: float
    slope_subopt_cum: float | None
    slope_violation_cum: float | None
    sinr_db: list | None
    sinr_naive_db: list | None
    final_revenue: float | None
    audit_ok: bool
    audit_max_staleness: int
    audit_tau_bound: int
    advisor: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=True)


def _advisor_block(spec, cfg: ExperimentConfig) -> dict:
    try:
        est = audit_assumptions(spec, n_samples=400, seed=cfg.eval_seed,
                                theta_draws=8, secant_pairs=12, mc_samples=256)
    except Exception as exc:  # advisory only; never fail the run for it
        return {"error": f"assumption audit failed: {exc}"}
    block = asdict(est)
    try:
        hp, constants = advise(est, spec.graph, cfg.tau_max, cfg.T)
        block["feasible"] = True
        block["constants"] = asdict(constants)
    except NoFeasibleDelta as exc:
        block["feasible"] = False
        block["C"] = exc.C
        block["min_T"] = exc.min_T
    except DegenerateEstimates as exc:  # e.g. a network without constraints
        block["error"] = f"advisor: {exc}"
    return block


def _run_bundle(spec, cfg: ExperimentConfig, evaluator, modes, record_current_slack: bool = False):
    """One trace per (mode, seed), ``modes`` outer, every seed of
    ``cfg.seeds`` inner, all run as the lanes of one engine;
    ``current_slack`` (the slack at the fresh pair, (T, M) per lane) only
    when a report reads it."""
    schedules = [None if mode == "sync" else build_schedule(cfg, seed)
                 for mode in modes for seed in cfg.seeds]
    return run_lanes(spec, build_hyperparams(cfg), schedules, list(cfg.seeds) * len(modes),
                     evaluator=evaluator, thin_every=cfg.thin_every,
                     record_current_slack=record_current_slack)


def _fit_or_none(series) -> float | None:
    try:
        return fit_rate(series)
    except DegenerateSeries:
        return None


def _setup(cfg: ExperimentConfig, out_dir: str | None):
    """Output directory, problem, evaluator and F* shared by run and compare.

    F* is the evaluator's value at the problem's minimizer
    (``ProblemSpec.x_star``) when its app gives one, else from
    ``estimate_optimum``. Returns (out, spec, app, evaluator, f_star,
    f_star_source), the source the problem's ``optimum_source``
    ("closed_form", "kkt_solve") or "estimate_optimum"."""
    out = out_dir or cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise OutputError(f"output directory {out} is not writable")
    spec, app = build_problem(cfg)
    evaluator = ExpectedObjective(spec, mc_samples=cfg.mc_samples, seed=cfg.eval_seed)
    if spec.x_star is not None:
        f_star = evaluator.value(spec.x_star)
        return out, spec, app, evaluator, f_star, spec.optimum_source
    f_star, _ = estimate_optimum(spec, cfg.resolved_optimum_budget(), cfg.optimum_seed,
                                 delta=cfg.delta, epsilon=cfg.resolved_epsilon(),
                                 mc_samples=cfg.mc_samples, eval_seed=cfg.eval_seed)
    return out, spec, app, evaluator, f_star, "estimate_optimum"


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Run every seed (the lanes of one bundle), write per-seed and averaged
    CSVs plus summary JSON.

    Returns (summary, paths, traces)."""
    out, spec, app, evaluator, f_star, f_star_source = _setup(cfg, out_dir)
    paths = []
    per_seed_cols = []
    # the pricing SINR report reads the fresh slack
    traces = _run_bundle(spec, cfg, evaluator, [cfg.mode],
                         record_current_slack=cfg.problem_name == "pricing")
    for seed, trace in zip(cfg.seeds, traces):
        cols = trace_columns(trace, f_star)
        per_seed_cols.append(cols)
        path = os.path.join(out, f"trace_seed{seed}.csv")
        write_csv(path, cols, TRACE_COLUMNS)
        paths.append(path)

    avg = average_columns(per_seed_cols)
    avg_path = os.path.join(out, "averaged.csv")
    write_csv(avg_path, avg, TRACE_COLUMNS)
    paths.append(avg_path)

    audits = [audit_invariants(tr) for tr in traces]
    sinr = sinr_naive = None
    revenue = None
    if cfg.problem_name == "pricing":
        sinr = list(np.mean([sinr_report(app, tr) for tr in traces], axis=0))
        sinr_naive = list(naive_baseline(app, cfg.eval_seed, max(cfg.T, 10000)))
        revenue = float(np.mean([revenue_series(app, tr)[-1] for tr in traces]))

    cum_subopt = cumulative_suboptimality(avg["F_hat"], f_star)[1:]
    summary = SummaryReport(
        problem=cfg.problem_name,
        mode=cfg.mode,
        T=cfg.T,
        seeds=tuple(cfg.seeds),
        f_star=float(f_star),
        f_star_source=f_star_source,
        final_subopt_running=float(avg["subopt_running"][-1]),
        slope_subopt_cum=_fit_or_none(cum_subopt),
        slope_violation_cum=_fit_or_none(avg["violation_agg_cumclip"][1:]),
        sinr_db=sinr,
        sinr_naive_db=sinr_naive,
        final_revenue=revenue,
        audit_ok=all(a.ok for a in audits),
        audit_max_staleness=max(a.max_staleness for a in audits),
        audit_tau_bound=max(tr.tau_bound for tr in traces),
        advisor=_advisor_block(spec, cfg),
    )
    summary_path = os.path.join(out, "summary.json")
    with _output(summary_path) as fh:
        fh.write(summary.to_json() + "\n")
    paths.append(summary_path)
    return summary, paths, traces


def compare_modes(cfg: ExperimentConfig, out_dir: str | None = None, strict: bool = False):
    """Aligned sync vs async series for the same config; returns (summary, path).

    Every seed's sync and async runs step together as one bundle of lanes.
    With ``strict``, raises AuditFailure (after writing the outputs) when
    the invariant audit fails on any of them."""
    out, spec, _, evaluator, f_star, f_star_source = _setup(cfg, out_dir)
    modes = ("sync", "async")
    traces = _run_bundle(spec, cfg, evaluator, modes)
    n = len(cfg.seeds)
    sides = {mode: average_columns([trace_columns(tr, f_star) for tr in traces[k * n:(k + 1) * n]])
             for k, mode in enumerate(modes)}

    columns = {"t": sides["sync"]["t"]}
    columns.update({f"{key}_{mode}": sides[mode][key] for key in TRACE_COLUMNS[1:] for mode in modes})
    path = os.path.join(out, "compare.csv")
    write_csv(path, columns, list(columns))

    s_final = float(sides["sync"]["subopt_running"][-1])
    a_final = float(sides["async"]["subopt_running"][-1])
    ratio = a_final / s_final if s_final > 0 else None
    summary = {
        "f_star": float(f_star),
        "f_star_source": f_star_source,
        "final_subopt_running_sync": s_final,
        "final_subopt_running_async": a_final,
        "final_ratio_async_over_sync": ratio,
        "final_gap_async_minus_sync": a_final - s_final,
    }
    spath = os.path.join(out, "compare_summary.json")
    with _output(spath) as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if strict:
        failed = [f"{tr.mode} seed {tr.seed}" for tr in traces if not audit_invariants(tr).ok]
        if failed:
            raise AuditFailure(f"invariant audit failed: {', '.join(failed)}")
    return summary, path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    if args.T is not None:
        cfg.T = args.T
    if args.tau is not None:
        cfg.tau_max = args.tau
        if args.tau > 0 and cfg.delay_kind == "zero":
            cfg.delay_kind = "fixed"
        if args.tau == 0:
            cfg.delay_kind = "zero"
    out_env = os.environ.get(OUTPUT_DIR_ENV)
    if out_env:
        cfg.out_dir = out_env
    if args.out is not None:
        cfg.out_dir = args.out
    _validate(cfg)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asaddle",
                                     description="asynchronous saddle-point experiment runner")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "compare", "advise", "audit"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="path to JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="replace the seed list")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--tau", type=int, default=None, help="override delay.tau_max")
        p.add_argument("--T", type=int, default=None, help="override algo.T")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 if the invariant audit fails")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
    except (ParseError, ValidationError, SaddleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.verb == "run":
            summary, paths, traces = run_experiment(cfg)
            print(summary.to_json())
            for p in paths:
                print(f"wrote {p}")
            if args.strict and not summary.audit_ok:
                print("invariant audit failed", file=sys.stderr)
                return 4
        elif args.verb == "compare":
            summary, path = compare_modes(cfg, strict=args.strict)
            print(json.dumps(summary, sort_keys=True, indent=2))
            print(f"wrote {path}")
        elif args.verb in ("advise", "audit"):
            spec, _ = build_problem(cfg)
            est = audit_assumptions(spec, n_samples=2000, seed=cfg.eval_seed)
            print(json.dumps(asdict(est), sort_keys=True, indent=2))
            if args.verb == "advise":
                try:
                    hp, constants = advise(est, spec.graph, cfg.tau_max, cfg.T)
                    print(json.dumps(asdict(constants), sort_keys=True, indent=2))
                except NoFeasibleDelta as exc:
                    print(json.dumps({"feasible": False, "C": exc.C,
                                      "min_T": exc.min_T}, sort_keys=True, indent=2))
    except AuditFailure as exc:
        print(exc, file=sys.stderr)
        return 4
    except SaddleError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
