import csv
import dataclasses
import json

import numpy as np
import pytest

from gridscreen import pipeline
from gridscreen.dcopf import dispatches
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
    to_graph,
    train,
    write_report,
    write_sweep_csv,
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


def test_run_ropf_reports_a_reduced_problem_without_a_dispatch_as_a_solver_bug(tri3, tri3_base_sample):
    # four times the base load exceeds what tri3's two generators can make, so
    # no set has a dispatch, while the sample claims a feasible full problem
    sample = dataclasses.replace(tri3_base_sample, sample_id=7, load_mw=tri3_base_sample.load_mw * 4)
    with pytest.raises(RuntimeError, match=r"^sample 7: reduced problem has no optimal dispatch although the full "
                                           r"problem was feasible; this indicates a solver bug$"):
        run_ropf(tri3, sample, {1})


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


def test_evaluate_aggregates_match_per_sample_rows(tri3, tri3_dataset):
    """The report's counts and shares are the ones its per-sample rows give."""
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset({0})))
    rows, nk = report.per_sample, tri3.num_branches
    assert report.false_pos > 0 and report.false_neg > 0
    assert any(row["any_violation"] for row in rows)
    n_wrong = [row["n_wrong"] for row in rows]
    assert report.wrong_prediction_histogram == np.bincount(n_wrong, minlength=nk + 1).tolist()
    assert report.false_pos + report.false_neg == sum(n_wrong)
    assert report.pct_samples_with_violation == 100.0 * sum(row["any_violation"] for row in rows) / len(rows)
    assert report.pct_lines_monitored == 100.0 * sum(row["n_monitored"] / nk for row in rows) / len(rows)


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


def test_evaluate_audits_one_screened_dispatch_and_takes_turns(tri3, tri3_dataset, monkeypatch):
    """Per sample: one audited screened dispatch, then timed-only ones, the sides alternating first; each time is the fastest of 3."""
    calls, audits, clock = [], [], iter(range(1, 1000))
    full = frozenset(range(tri3.num_branches))

    def timed(network, load, monitored):
        calls.append("full" if monitored == full else "screened")
        return dispatches(network, [load], monitored)[0], float(next(clock))

    run_ropf = pipeline.run_ropf
    monkeypatch.setattr(pipeline, "_timed_dispatch", timed)
    monkeypatch.setattr(pipeline, "run_ropf", lambda *a: audits.append(a[1].sample_id) or run_ropf(*a))
    samples = tri3_dataset.samples[:2]
    report = evaluate(tri3, FixedPredictor(frozenset({1})), samples, 0.95)
    assert audits == [s.sample_id for s in samples]
    assert calls == ["screened", "full", "full", "screened", "screened", "full"] * 2
    # the clock counts dispatches, so each side's fastest is its first
    assert [row["ropf_solve_seconds"] for row in report.per_sample] == [1.0, 7.0]
    assert report.total_full_opf_seconds == 2.0 + 8.0


def test_evaluate_validation(tri3, tri3_dataset):
    with pytest.raises(ValueError):
        evaluate(tri3, OraclePredictor(tri3, 0.95), [], 0.95)
    with pytest.raises(ValueError):
        evaluate(tri3, OraclePredictor(tri3, 0.95), tri3_dataset.samples[:2], 1.5)
    with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\], got 0.0"):
        evaluate(tri3, OraclePredictor(tri3, 0.95), tri3_dataset.samples[:2], 0.0)


@pytest.mark.parametrize("pred_set", [{0.9}, {True}, {np.float64(1.0)}, {7}, {-1}])
def test_evaluate_rejects_a_predicted_set_that_is_not_branch_indices(tri3, tri3_dataset, pred_set):
    """A predicted entry that is not an integer, or is out of range on tri3's 3 branches, raises the ValueError naming it."""
    with pytest.raises(ValueError, match=r"monitored branch index (must be an integer|out of range)"):
        evaluate(tri3, FixedPredictor(frozenset(pred_set)), tri3_dataset.samples[:2], 0.95)


def test_evaluate_trained_model_predictor(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(num_layers=2, channels=8, seed=2),
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
    reports = [evaluate(case14, OraclePredictor(case14, tau), test_split[:40], tau) for tau in taus]
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


def test_summary_row_table_columns(tmp_path, tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95), n=10)
    write_report(report, tmp_path, "095")
    with open(tmp_path / "summary_095.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["threshold", "time_pct", "pct_samples_over_limit",
                         "pct_lines_monitored", "prediction_error_pct"]
    assert float(row["threshold"]) == 0.95
    assert 0 <= float(row["pct_lines_monitored"]) <= 100
    assert float(row["time_pct"]) > 0


def test_csv_writers_recompute_from_json(tmp_path, tri3, tri3_dataset):
    """Emitting from the report object or its JSON round trip is byte-identical."""
    report = _eval_tri3(tri3, tri3_dataset, FixedPredictor(frozenset()), n=15)
    write_report(report, tmp_path / "obj", "095")
    loaded = EvalReport(**json.loads((tmp_path / "obj" / "report_095.json").read_text(encoding="utf-8")))
    write_report(loaded, tmp_path / "json", "095")

    names = ["report_095.json", "summary_095.csv", "branches_095.csv", "wrong_histogram_095.csv",
             "costs_095.csv"]
    assert sorted(p.name for p in (tmp_path / "obj").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "obj" / name).read_bytes() == (tmp_path / "json" / name).read_bytes(), name

    a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    write_sweep_csv([report], a)
    write_sweep_csv([loaded], b)
    assert a.read_bytes() == b.read_bytes() == (tmp_path / "obj" / "summary_095.csv").read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "threshold,time_pct,pct_samples_over_limit,pct_lines_monitored,prediction_error_pct"


def test_interrupted_report_writes_keep_the_old_files(tmp_path, tri3, tri3_dataset):
    """Each report file is replaced whole or not at all, and no temporary file is left behind."""
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95), n=10)
    write_report(report, tmp_path, "095")
    write_sweep_csv([report], tmp_path / "sweep.csv")
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the last per-sample row has no costs, so writing the costs table raises part way
    broken = EvalReport(**{**vars(report), "per_sample": report.per_sample[:5] + [{"sample_id": 99}]})
    with pytest.raises(KeyError):
        write_report(broken, tmp_path, "095")
    with pytest.raises(AttributeError):
        write_sweep_csv([report, None], tmp_path / "sweep.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)
    for name in ("costs_095.csv", "sweep.csv"):
        assert (tmp_path / name).read_bytes() == old[name], name
    json.loads((tmp_path / "report_095.json").read_text(encoding="utf-8"))


def test_report_json_round_trip_fields(tmp_path, tri3, tri3_dataset):
    report = _eval_tri3(tri3, tri3_dataset, OraclePredictor(tri3, 0.95), n=10)
    write_report(report, tmp_path, "095")
    loaded = json.loads((tmp_path / "report_095.json").read_text(encoding="utf-8"))
    assert loaded["threshold"] == report.threshold
    assert loaded["num_samples"] == 10
    assert loaded["branch_true_pos"] == report.branch_true_pos
    assert loaded["per_sample"][0]["sample_id"] == report.per_sample[0]["sample_id"]


def test_evaluate_rejects_a_sample_its_network_contradicts(tri3, tri3_base_sample, case14, case14_dataset):
    """A re-solve that contradicts a sample's stored objective, or a stored full problem that no longer solves, raises naming the sample."""
    sample = case14_dataset.samples[0]
    shifted = dataclasses.replace(sample, sample_id=41, objective=sample.objective + 1.0)
    with pytest.raises(RuntimeError, match=r"^sample 41: re-solved objective .* dataset/network mismatch$"):
        evaluate(case14, FixedPredictor(frozenset()), [shifted], 0.9)
    # at 1.6 times the base load tri3 is infeasible with every line monitored,
    # and feasible with none
    heavy = dataclasses.replace(tri3_base_sample, sample_id=42, load_mw=tri3.base_load() * 1.6)
    with pytest.raises(RuntimeError, match=r"^sample 42: stored full problem no longer solves$"):
        evaluate(tri3, FixedPredictor(frozenset()), [heavy], 0.9)
