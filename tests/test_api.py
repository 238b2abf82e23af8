import gridscreen

# the package's 40 public names: an export is added or dropped here on purpose, never by accident
PUBLIC_NAMES = [
    "Branch", "CaseError", "Dataset", "EvalReport", "Generator", "GraphTopology", "LinearProgram",
    "ModelConfig", "ModelPredictor", "Network", "OraclePredictor", "Sample", "SimplexIterationLimit",
    "SingularBasisError", "TrainHistory", "build_opf", "check_limits", "derive_seed", "evaluate",
    "extract_features", "fit_normalizer", "full_monitored_set", "generate_dataset", "init_model",
    "label_sample", "load_model", "parse_case", "predict_congested", "read_dataset", "run_ropf",
    "save_model", "serialize_case", "solve_lp", "solve_opf", "split_dataset", "to_graph", "train",
    "write_dataset", "write_report", "write_sweep_csv",
]


def test_public_names_are_pinned():
    assert sorted(gridscreen.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(gridscreen, name), name
