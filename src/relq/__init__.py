"""Difference equations on a cycle: SDP relaxations, walk rounding, crossing analysis."""

__version__ = "0.1.0"

from relq.brownian import (
    ConstantRow,
    constants_table,
    prob_at_least_one,
    prob_three_or_more,
)
from relq.constellation import (
    SdpSolutionP,
    canonical_constellation,
    target_gram,
)
from relq.harness import (
    ExperimentConfig,
    Report,
    conjecture_experiment,
    correlation_gap_closed_form,
    end_to_end_ratio,
    format_report_csv,
    format_report_json,
    mc_correlation_gap,
    mc_sign_change,
    report_gate_ok,
    reproduce_constants,
    write_report,
)
from relq.instance import (
    Instance,
    brute_force_optimum,
    circular_distance,
    evaluate,
    generate_instance,
    load_instance,
    parse_instance,
    scale_instance,
)
from relq.rounding import (
    GaussianSampler,
    RoundingOutcome,
    detect_extreme_sign_changes,
    lifted_walk_values,
    round_lifted_solution,
)
from relq.sdp import (
    FeasibilityReport,
    SdpSolutionPPlus,
    convert_to_p,
    feasibility_report,
    load_solution,
    objective_p_plus,
    save_solution,
    solve_p_plus,
)

__all__ = [
    "__version__",
    # instances
    "Instance",
    "brute_force_optimum",
    "circular_distance",
    "evaluate",
    "generate_instance",
    "load_instance",
    "parse_instance",
    "scale_instance",
    # constellation geometry
    "SdpSolutionP",
    "canonical_constellation",
    "target_gram",
    # relaxations
    "FeasibilityReport",
    "SdpSolutionPPlus",
    "convert_to_p",
    "feasibility_report",
    "load_solution",
    "objective_p_plus",
    "save_solution",
    "solve_p_plus",
    # rounding
    "GaussianSampler",
    "RoundingOutcome",
    "detect_extreme_sign_changes",
    "lifted_walk_values",
    "round_lifted_solution",
    # barrier-crossing analysis
    "ConstantRow",
    "constants_table",
    "prob_at_least_one",
    "prob_three_or_more",
    # experiments
    "ExperimentConfig",
    "Report",
    "conjecture_experiment",
    "correlation_gap_closed_form",
    "end_to_end_ratio",
    "format_report_csv",
    "format_report_json",
    "mc_correlation_gap",
    "mc_sign_change",
    "report_gate_ok",
    "reproduce_constants",
    "write_report",
]
