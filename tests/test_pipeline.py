import json

import numpy as np
import pytest

from gridscreen import (
    ModelConfig,
    ModelPredictor,
    EvalReport,
    OraclePredictor,
    evaluate,
    fit_normalizer,
    init_model,
    label_sample,
    run_ropf,
    split_dataset,
    summary_row,
    threshold_sweep,
    to_graph,
    train,
    write_branch_csv,
    write_cost_csv,
    write_report_json,
    write_sweep_csv,
    write_wrong_histogram_csv,
)


class FixedPredictor:
    def __init__(self, sets):
        self.sets = sets

    def predict(self, sample):
        if isinstance(self.sets, dict):
            return self.sets[sample.sample_id]
        return self.sets


def test_run_ropf_monitored_critical(tri3, tri3_base_sample):
    result = run_ropf(tri3, tri3_base_sample, {1})
    assert result.ropf_objective == pytest.approx(2100.0, abs=1e-6)
    assert not result.violations.any_violation
    assert result.ropf_objective == pytest.approx(result.full_objective, rel=1e-9)


def test_run_ropf_unmonitored(tri3, tri3_base_sample):
    result = run_ropf(tri3, tri3_base_sample, frozenset())
    assert result.ropf_objective == pytest.approx(1500.0, abs=1e-6)
    assert result.violations.flags.tolist() == [False, True, False]
    assert result.violations.overload_mw[1] == pytest.approx(20.0, abs=1e-6)
    assert result.ropf_solve_seconds > 0


def test_run_ropf_full_set_matches_full(tri3, tri3_base_sample):
    result = run_ropf(tri3, tri3_base_sample, {0, 1, 2})
    assert result.ropf_objective == pytest.approx(tri3_base_sample.objective, rel=1e-6)
    assert not result.violations.any_violation


def test_run_ropf_flows_cover_all_branches(tri3, tri3_base_sample):
    result = run_ropf(tri3, tri3_base_sample, {1})
    assert result.flows.shape == (3,)
    assert result.monitored == frozenset({1})


def _eval_tri3(tri3, tri3_dataset, predictor, threshold=0.95, n=40):
    test = tri3_dataset.samples[:n]
    return evaluate(tri3, predictor, test, threshold)


def test_evaluate_oracle_predictor_is_perfect(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95))
    assert report.edge_prediction_error_pct == 0.0
    assert report.false_pos == 0 and report.false_neg == 0
    assert report.pct_samples_with_violation == 0.0
    assert report.total_ropf_seconds > 0 and report.total_full_opf_seconds > 0
    # violations can only sit on unmonitored branches; the oracle monitors all true ones
    assert sum(report.branch_violations) == 0


def test_evaluate_monitor_everything(tri3, tri3_dataset):
    nk = tri3.num_branches
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset(range(nk))))
    assert report.pct_lines_monitored == 100.0
    assert report.pct_samples_with_violation == 0.0
    # every non-congested branch counts as a false positive
    oracle_ones = sum(
        label_sample(s.flows_mw, tri3, 0.95).sum() for s in tri3_dataset.samples[:40]
    )
    expect_error = 100.0 * (40 * nk - oracle_ones) / (40 * nk)
    assert report.edge_prediction_error_pct == pytest.approx(expect_error)
    assert report.false_neg == 0


def test_evaluate_single_false_negative_arithmetic(tri3, tri3_dataset):
    # one sample, oracle labels are (0,1,0): predicting nothing gives 1 miss out of 3
    report = evaluate(tri3, FixedPredictor(frozenset()), tri3_dataset.samples[:1], 0.95)
    assert report.false_neg == 1 and report.false_pos == 0
    assert report.edge_prediction_error_pct == pytest.approx(100.0 / 3.0)
    assert report.wrong_prediction_histogram[1] == 1
    assert sum(report.wrong_prediction_histogram) == 1


def test_evaluate_violations_only_unmonitored(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset()))
    # the tight line is never monitored, always binding, so it violates in samples
    assert report.branch_violations[1] > 0
    assert report.branch_violations[0] == 0 and report.branch_violations[2] == 0
    # type-2 overlap equals violations here: every violated sample was a missed label
    assert report.branch_type2_violation_overlap[1] == report.branch_violations[1]
    assert report.pct_samples_with_violation > 0


def test_evaluate_relaxation_and_equality_invariants(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset({0, 2})))
    for row in report.per_sample:
        assert row["ropf_objective"] <= row["full_objective"] + 1e-6 * abs(row["full_objective"])
        if not row["any_violation"]:
            assert row["ropf_objective"] == pytest.approx(row["full_objective"], rel=1e-6)


def test_evaluate_confusion_counts_consistent(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.7), threshold=0.95)
    n, nk = report.num_samples, report.num_branches
    assert report.true_pos + report.true_neg + report.false_pos + report.false_neg == n * nk
    assert report.true_pos == sum(report.branch_true_pos)
    assert report.false_neg == sum(report.branch_false_neg)
    assert report.edge_prediction_error_pct == pytest.approx(
        100.0 * (report.false_pos + report.false_neg) / (n * nk)
    )
    assert sum(report.wrong_prediction_histogram) == n


def test_evaluate_validation(tri3, tri3_dataset):
    with pytest.raises(ValueError):
        evaluate(tri3, OraclePredictor(tri3, 0.95), [], 0.95)
    with pytest.raises(ValueError):
        evaluate(tri3, OraclePredictor(tri3, 0.95), tri3_dataset.samples[:2], 1.5)


def test_evaluate_trained_model_predictor(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(num_layers=2, node_channels=8, edge_channels=8, seed=2),
                       7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=30)
    predictor = ModelPredictor(result.best_model, to_graph(tri3))
    report = evaluate(tri3, predictor, tri3_dataset.samples[:20], 0.95)
    assert report.edge_prediction_error_pct <= 5.0


def test_correlate_overlay_consistency(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset()))
    assert len(report.branch_type2_violation_overlap) == tri3.num_branches
    for type2, violations, overlap in zip(report.branch_false_neg, report.branch_violations,
                                          report.branch_type2_violation_overlap):
        assert overlap <= min(type2, violations)


def test_correlate_zero_violations(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95))
    assert all(overlap == 0 for overlap in report.branch_type2_violation_overlap)
    assert all(violations == 0 for violations in report.branch_violations)


def test_sweep_oracle_monitored_nesting(case14, case14_splits):
    _, _, test_split = case14_splits
    taus = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95]
    results = threshold_sweep(case14, [], [], test_split[:40], taus, use_oracle=True)
    assert all(model is None for _, model in results)
    reports = [report for report, _ in results]
    assert len(reports) == 6
    assert [r.threshold for r in reports] == taus
    fractions = [r.pct_lines_monitored for r in reports]
    assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))
    # oracle-label nesting is exact per sample, not just on average
    for s in test_split[:40]:
        sets = [
            set(np.flatnonzero(label_sample(s.flows_mw, case14, t))) for t in taus
        ]
        for bigger, smaller in zip(sets, sets[1:]):
            assert smaller <= bigger


def test_sweep_unsorted_input_sorted_output(tri3, tri3_dataset):
    results = threshold_sweep(tri3, [], [], tri3_dataset.samples[:10],
                              [0.95, 0.7, 0.8], use_oracle=True)
    assert [r.threshold for r, _ in results] == [0.7, 0.8, 0.95]


def test_sweep_requires_factory_or_oracle(tri3, tri3_dataset):
    with pytest.raises(ValueError, match="model_factory"):
        threshold_sweep(tri3, [], [], tri3_dataset.samples[:5], [0.9])
    with pytest.raises(ValueError, match="non-empty"):
        threshold_sweep(tri3, [], [], tri3_dataset.samples[:5], [], use_oracle=True)


def test_sweep_trains_fresh_model_per_threshold(tri3, tri3_dataset):
    train_split, val_split, test_split = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)

    def factory(tau):
        return init_model(
            ModelConfig(num_layers=2, node_channels=8, edge_channels=8, seed=2),
            7, 2, num_buses=3, num_branches=3, normalizer=fit_normalizer(train_split),
        )

    results = threshold_sweep(tri3, train_split, val_split, test_split[:10],
                              [0.95, 0.7], model_factory=factory, epochs=25)
    assert [r.threshold for r, _ in results] == [0.7, 0.95]
    for r, model in results:
        assert r.edge_prediction_error_pct <= 40.0  # learnable at both thresholds
        assert model.trained_threshold == r.threshold


def test_summary_row_table_columns(tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95), n=10)
    row = summary_row(report)
    assert list(row) == ["threshold", "time_pct", "pct_samples_over_limit",
                         "pct_lines_monitored", "prediction_error_pct"]
    assert row["threshold"] == 0.95
    assert 0 <= row["pct_lines_monitored"] <= 100
    assert row["time_pct"] > 0


def test_csv_writers_recompute_from_json(tmp_path, tri3, tri3_dataset):
    """Emitting from the report object or its JSON round trip is byte-identical."""
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset()), n=15)
    json_path = tmp_path / "report.json"
    write_report_json(report, json_path)
    loaded = EvalReport(**json.loads(json_path.read_text(encoding="utf-8")))

    for writer, name in [
        (write_branch_csv, "branch.csv"),
        (write_wrong_histogram_csv, "hist.csv"),
        (write_cost_csv, "cost.csv"),
    ]:
        from_obj = tmp_path / f"obj_{name}"
        from_json = tmp_path / f"json_{name}"
        writer(report, from_obj)
        writer(loaded, from_json)
        assert from_obj.read_bytes() == from_json.read_bytes()

    a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    write_sweep_csv([report], a)
    write_sweep_csv([loaded], b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "threshold,time_pct,pct_samples_over_limit,pct_lines_monitored,prediction_error_pct"


def test_report_json_round_trip_fields(tmp_path, tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95), n=10)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["threshold"] == report.threshold
    assert loaded["num_samples"] == 10
    assert loaded["branch_true_pos"] == report.branch_true_pos
    assert loaded["per_sample"][0]["sample_id"] == report.per_sample[0]["sample_id"]
