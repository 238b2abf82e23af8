"""Constraint screening for DC optimal power flow with a learned line-congestion predictor."""

from .netcase import Branch, Bus, CaseError, Generator, GraphTopology, Network, parse_case, serialize_case, to_graph
from .simplex import LinearProgram, LpSolution, SimplexIterationLimit, SingularBasisError, solve_lp
from .dcopf import DispatchSolution, ViolationReport, build_opf, check_limits, full_monitored_set, line_flows, solve_opf
from .samplegen import (
    Dataset, Normalizer, Sample,
    derive_seed, extract_features, fit_normalizer, generate_dataset,
    label_sample, read_dataset, split_dataset, write_dataset,
)
from .gnn import (
    MlpModel, Model, ModelConfig, TrainHistory, TrainResult,
    edge_accuracy, init_mlp, init_model, load_model, loss_mse,
    predict_congested, save_model, train,
)
from .pipeline import (
    EvalReport, ModelPredictor, OraclePredictor, RopfResult,
    evaluate, run_ropf, summary_row, threshold_sweep,
    write_branch_csv, write_cost_csv, write_report_json, write_sweep_csv, write_wrong_histogram_csv,
)

__all__ = [
    "Branch", "Bus", "CaseError", "Generator", "GraphTopology", "Network",
    "parse_case", "serialize_case", "to_graph",
    "LinearProgram", "LpSolution", "SimplexIterationLimit", "SingularBasisError", "solve_lp",
    "DispatchSolution", "ViolationReport", "build_opf", "check_limits",
    "full_monitored_set", "line_flows", "solve_opf",
    "Dataset", "Normalizer", "Sample", "derive_seed",
    "extract_features", "fit_normalizer", "generate_dataset", "label_sample",
    "read_dataset", "split_dataset", "write_dataset",
    "MlpModel", "Model", "ModelConfig", "TrainHistory", "TrainResult",
    "edge_accuracy", "init_mlp", "init_model", "load_model", "loss_mse",
    "predict_congested", "save_model", "train",
    "EvalReport", "ModelPredictor", "OraclePredictor", "RopfResult",
    "evaluate", "run_ropf", "summary_row", "threshold_sweep",
    "write_branch_csv", "write_cost_csv", "write_report_json", "write_sweep_csv",
    "write_wrong_histogram_csv",
]
