"""Asynchronous stochastic saddle-point optimization over agent networks."""

from . import apps, delay, errors, graph, metrics, problem, saddle, trace
from .delay import DelaySchedule, StalenessBuffer, resolve
from .graph import NetworkGraph, build_graph, closed_neighborhood
from .metrics import (AssumptionEstimates, audit_assumptions, audit_invariants,
                      cumulative_suboptimality, delayed_violation, estimate_optimum,
                      fit_rate, running_suboptimality)
from .problem import (ConstraintFamily, DomainSpec, ExpectedObjective, Objective,
                      ProblemSpec, Sampler, as_neighborhood, project, sample_observation)
from .saddle import (AdvisorConstants, Hyperparams, SaddleEngine, SaddleState, advise,
                     dual_step, primal_step, run, run_generalized, run_lanes, run_synchronous,
                     stochastic_lagrangian)
from .trace import RunTrace

__version__ = "0.1.0"
