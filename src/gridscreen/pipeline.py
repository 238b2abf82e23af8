"""Reduced-OPF evaluation: screen lines, re-solve, audit, and aggregate metrics.

Given a congestion predictor (a trained model, or the stored-flow oracle),
each test sample is re-solved monitoring only the predicted-critical lines.
The run collects per-branch confusion counts, violation counts and their
overlap with missed-congestion errors, monitored-line fractions, per-sample
cost deltas against the full problem, and wall-clock solve totals, with the
full problem re-timed in-process so the speed ratio compares like with like.
Every solve goes through dcopf.solve_opf, which times solve_lp alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .dcopf import REPORT_TOL_MW, ViolationReport, check_limits, full_monitored_set, solve_opf
from .gnn import predict_congested, train
from .netcase import Network, to_graph
from .samplegen import Sample, label_sample

#: solves per side and sample in evaluate; the fastest of them is the time
_TIMING_REPEATS = 3


@dataclass(frozen=True)
class RopfResult:
    sample_id: int
    monitored: frozenset[int]
    p_g: np.ndarray
    flows: np.ndarray                 # all branches, not just monitored
    violations: ViolationReport
    ropf_objective: float
    full_objective: float
    ropf_solve_seconds: float


class OraclePredictor:
    """Predicts exactly the label set derived from each sample's stored flows."""

    def __init__(self, network: Network, threshold: float):
        self.network = network
        self.threshold = threshold

    def predict(self, sample: Sample) -> frozenset[int]:
        labels = label_sample(sample.flows_mw, self.network, self.threshold)
        return frozenset(int(k) for k in np.flatnonzero(labels))


class ModelPredictor:
    def __init__(self, model, topology):
        self.model = model
        self.topology = topology

    def predict(self, sample: Sample) -> frozenset[int]:
        return predict_congested(self.model, sample, self.topology)


def run_ropf(network: Network, sample: Sample, monitored) -> RopfResult:
    """Solve with limits on the monitored subset only; audit every branch.

    Only the LP solve is timed.  A feasible full problem makes the reduced
    one feasible too (it drops constraints), so an infeasible outcome is
    reported as a solver bug rather than a result.
    """
    monitored = frozenset(int(k) for k in monitored)
    sol = solve_opf(network, sample.load_mw, monitored)
    if sol.status != "optimal":
        raise RuntimeError(
            f"sample {sample.sample_id}: reduced problem reported {sol.status} although the "
            f"full problem was feasible; this indicates a solver bug"
        )
    return RopfResult(
        sample_id=sample.sample_id,
        monitored=monitored,
        p_g=sol.p_g,
        flows=sol.flows,
        violations=check_limits(network, sol.flows, REPORT_TOL_MW),
        ropf_objective=sol.objective,
        full_objective=sample.objective,
        ropf_solve_seconds=sol.solve_seconds,
    )


@dataclass
class EvalReport:
    threshold: float
    num_samples: int
    num_branches: int
    branch_labels: list[str]                  # "from-to" external ids
    # aggregate prediction quality
    edge_prediction_error_pct: float
    true_pos: int
    true_neg: int
    false_pos: int                            # type 1
    false_neg: int                            # type 2
    # reduced-solution quality
    pct_samples_with_violation: float
    pct_lines_monitored: float
    # timing (full problem re-measured in this process)
    total_ropf_seconds: float
    total_full_opf_seconds: float
    time_pct: float
    # per-branch detail (aligned to branch order)
    branch_true_pos: list[int]
    branch_true_neg: list[int]
    branch_false_pos: list[int]
    branch_false_neg: list[int]
    branch_violations: list[int]
    branch_type2_violation_overlap: list[int]
    # distribution detail
    wrong_prediction_histogram: list[int]     # index = wrong branches in a sample
    per_sample: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def evaluate(network: Network, predictor, samples: list[Sample], threshold: float) -> EvalReport:
    """Run the screened problem on every sample and aggregate all metrics.

    `predictor` is any object with predict(sample), such as ModelPredictor;
    samples must carry full-problem flows/objectives from this network.
    Runs sequentially: the timing comparison is part of the output.  Each
    side's time per sample is the fastest of _TIMING_REPEATS solves, the
    two sides taking turns to go first, so a burst of other load on the
    machine seldom lands on one side only.
    """
    if not samples:
        raise ValueError("evaluation requires a non-empty sample list")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    nk = network.num_branches
    tp = np.zeros(nk, dtype=int)
    tn = np.zeros(nk, dtype=int)
    fp = np.zeros(nk, dtype=int)
    fn = np.zeros(nk, dtype=int)
    viol = np.zeros(nk, dtype=int)
    overlap = np.zeros(nk, dtype=int)
    wrong_hist = np.zeros(nk + 1, dtype=int)
    per_sample = []
    total_ropf = 0.0
    total_full = 0.0
    n_viol_samples = 0
    monitored_frac = 0.0
    all_k = full_monitored_set(network)

    for sample in samples:
        oracle = label_sample(sample.flows_mw, network, threshold).astype(bool)
        pred_set = predictor.predict(sample)
        pred = np.zeros(nk, dtype=bool)
        pred[list(pred_set)] = True

        tp += oracle & pred
        tn += ~oracle & ~pred
        fp += ~oracle & pred
        fn += oracle & ~pred
        wrong_hist[int((oracle != pred).sum())] += 1
        monitored_frac += len(pred_set) / nk

        reduced, full = [], []
        for rep in range(_TIMING_REPEATS):
            if rep % 2:  # odd repeats solve the full problem first
                full.append(solve_opf(network, sample.load_mw, all_k))
            reduced.append(run_ropf(network, sample, pred_set))
            if not rep % 2:
                full.append(solve_opf(network, sample.load_mw, all_k))
        result, sol_full = reduced[0], full[0]
        ropf_seconds = min(r.ropf_solve_seconds for r in reduced)
        total_ropf += ropf_seconds
        total_full += min(s.solve_seconds for s in full)
        flags = result.violations.flags
        viol += flags
        overlap += flags & (oracle & ~pred)
        if result.violations.any_violation:
            n_viol_samples += 1

        if sol_full.status != "optimal":
            raise RuntimeError(f"sample {sample.sample_id}: stored full problem no longer solves")
        if abs(sol_full.objective - sample.objective) > 1e-6 * max(1.0, abs(sample.objective)):
            raise RuntimeError(
                f"sample {sample.sample_id}: re-solved objective {sol_full.objective} != "
                f"stored {sample.objective}; dataset/network mismatch"
            )

        per_sample.append({
            "sample_id": sample.sample_id,
            "n_monitored": len(pred_set),
            "n_wrong": int((oracle != pred).sum()),
            "any_violation": bool(result.violations.any_violation),
            "ropf_objective": result.ropf_objective,
            "full_objective": result.full_objective,
            "cost_delta": result.ropf_objective - result.full_objective,
            "ropf_solve_seconds": ropf_seconds,
        })

    n = len(samples)
    return EvalReport(
        threshold=threshold,
        num_samples=n,
        num_branches=nk,
        branch_labels=[f"{br.from_bus}-{br.to_bus}" for br in network.branches],
        edge_prediction_error_pct=100.0 * (fp.sum() + fn.sum()) / (n * nk),
        true_pos=int(tp.sum()),
        true_neg=int(tn.sum()),
        false_pos=int(fp.sum()),
        false_neg=int(fn.sum()),
        pct_samples_with_violation=100.0 * n_viol_samples / n,
        pct_lines_monitored=100.0 * monitored_frac / n,
        total_ropf_seconds=total_ropf,
        total_full_opf_seconds=total_full,
        time_pct=100.0 * total_ropf / total_full,
        branch_true_pos=tp.tolist(),
        branch_true_neg=tn.tolist(),
        branch_false_pos=fp.tolist(),
        branch_false_neg=fn.tolist(),
        branch_violations=viol.tolist(),
        branch_type2_violation_overlap=overlap.tolist(),
        wrong_prediction_histogram=wrong_hist.tolist(),
        per_sample=per_sample,
    )


def threshold_sweep(
    network: Network,
    train_split: list[Sample],
    val_split: list[Sample],
    test_split: list[Sample],
    thresholds: list[float],
    model_factory=None,
    use_oracle: bool = False,
    epochs: int | None = None,
) -> list[tuple[EvalReport, object]]:
    """One (report, model) pair per threshold, ascending.

    With `use_oracle`, predictions are the derived labels themselves (no
    training) and the model is None.  Otherwise `model_factory(threshold)`
    must produce a fresh untrained model, which is trained on labels at that
    threshold (same config and seed each time); its best-validation snapshot
    is evaluated and returned.
    """
    if not thresholds:
        raise ValueError("threshold list must be non-empty")
    if not use_oracle and model_factory is None:
        raise ValueError("model_factory required unless use_oracle is set")
    taus = sorted(set(float(t) for t in thresholds))
    topology = to_graph(network)
    results = []
    for tau in taus:
        if use_oracle:
            model, predictor = None, OraclePredictor(network, tau)
        else:
            model = train(model_factory(tau), network, train_split, val_split, tau, epochs=epochs).best_model
            predictor = ModelPredictor(model, topology)
        results.append((evaluate(network, predictor, test_split, tau), model))
    return results


# ---------------------------------------------------------------------------
# emission: JSON report and CSVs, all written from one EvalReport
# ---------------------------------------------------------------------------

SWEEP_CSV_COLUMNS = [
    "threshold", "time_pct", "pct_samples_over_limit", "pct_lines_monitored",
    "prediction_error_pct",
]


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def summary_row(report: EvalReport) -> dict:
    return {
        "threshold": report.threshold,
        "time_pct": report.time_pct,
        "pct_samples_over_limit": report.pct_samples_with_violation,
        "pct_lines_monitored": report.pct_lines_monitored,
        "prediction_error_pct": report.edge_prediction_error_pct,
    }


def write_sweep_csv(reports: list[EvalReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerow(summary_row(report))


def write_branch_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch", "true_pos", "true_neg", "type1", "type2",
                         "violations", "type2_violation_overlap"])
        writer.writerows(zip(
            report.branch_labels, report.branch_true_pos, report.branch_true_neg,
            report.branch_false_pos, report.branch_false_neg,
            report.branch_violations, report.branch_type2_violation_overlap,
        ))


def write_wrong_histogram_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_wrong_predictions", "n_samples"])
        writer.writerows(enumerate(report.wrong_prediction_histogram))


def write_cost_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "full_objective", "ropf_objective", "cost_delta"])
        writer.writerows([row["sample_id"], row["full_objective"], row["ropf_objective"], row["cost_delta"]]
                         for row in report.per_sample)
