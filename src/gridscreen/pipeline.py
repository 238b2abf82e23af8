"""Reduced-OPF evaluation: screen lines, re-solve, audit, and aggregate metrics.

Given a congestion predictor (a trained model, or the full-problem-flow oracle),
each test sample is re-solved monitoring only the predicted-critical lines.
The run collects per-branch confusion counts, violation counts and their
overlap with missed-congestion errors, monitored-line fractions, per-sample
cost deltas against the full problem, and wall-clock solve totals, with the
full problem re-timed in-process so the speed ratio compares like with like.
Both sides dispatch through dcopf.dispatches, warm from their monitored
set's base-load basis, and each is timed over the whole answer.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dcopf import ViolationReport, _check_monitored, _flows, check_limits, dispatches, full_monitored_set
from .gnn import predict_congested
from .netcase import Network
from .samplegen import Sample, _write_atomic, label_sample

#: dispatches per side and sample in evaluate; the fastest of them is the time
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
    ropf_solve_seconds: float         # the whole dispatch answer, as _timed_dispatch times it


class OraclePredictor:
    """Predicts exactly the label set derived from each sample's full-problem flows."""

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


def _timed_dispatch(network: Network, load: np.ndarray, monitored) -> tuple[np.ndarray | None, float]:
    """dcopf.dispatches for one load, and the wall time of the whole answer.

    That time covers the warm start's vertex read, any dual pivots, any
    cold fallback and, on the monitored set's first sight, its preparation.
    """
    t0 = time.perf_counter()
    (p_g,) = dispatches(network, [load], monitored)
    return p_g, time.perf_counter() - t0


def run_ropf(network: Network, sample: Sample, monitored) -> RopfResult:
    """Solve with limits on the monitored subset only; audit every branch.

    The dispatch is timed as a whole (see _timed_dispatch), the way
    evaluate times the full problem.  A feasible full problem makes the
    reduced one feasible too (it drops constraints), so an infeasible
    outcome is reported as a solver bug rather than a result.
    """
    monitored = frozenset(_check_monitored(network, monitored))
    p_g, seconds = _timed_dispatch(network, sample.load_mw, monitored)
    if p_g is None:
        raise RuntimeError(
            f"sample {sample.sample_id}: reduced problem has no optimal dispatch although the "
            f"full problem was feasible; this indicates a solver bug"
        )
    flows = _flows(network, p_g, sample.load_mw)
    return RopfResult(
        sample_id=sample.sample_id,
        monitored=monitored,
        p_g=p_g,
        flows=flows,
        violations=check_limits(network, flows),
        ropf_objective=float(network.gen_cost @ p_g),
        full_objective=sample.objective,
        ropf_solve_seconds=seconds,
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


def evaluate(network: Network, predictor, samples: list[Sample], threshold: float) -> EvalReport:
    """Run the screened problem on every sample and aggregate all metrics.

    `predictor` is any object with predict(sample), such as ModelPredictor;
    samples must carry full-problem flows/objectives from this network.
    Runs sequentially: the timing comparison is part of the output.  Both
    sides dispatch warm through dcopf.dispatches, the screened side with
    its predicted set and the full side with every branch, and each is
    timed over the whole answer.  Each side's time per sample is the
    fastest of _TIMING_REPEATS dispatches, the two sides taking turns to go
    first, so a burst of other load on the machine, or a set's first
    sight, seldom lands on one side only.  Only the first screened
    dispatch is audited by run_ropf; the later ones are timed alone, as
    the full side's are.
    """
    if not samples:
        raise ValueError("evaluation requires a non-empty sample list")

    nk = network.num_branches
    n = len(samples)
    # per sample and branch: oracle label, prediction, reduced-solve violation
    oracle = np.zeros((n, nk), dtype=bool)
    pred = np.zeros((n, nk), dtype=bool)
    violated = np.zeros((n, nk), dtype=bool)
    full_seconds = []
    per_sample = []
    all_k = full_monitored_set(network)

    for i, sample in enumerate(samples):
        oracle[i] = label_sample(sample.flows_mw, network, threshold)
        # checked before it indexes, so a bad entry raises the package's ValueError naming it
        pred_set = _check_monitored(network, predictor.predict(sample))
        pred[i, pred_set] = True

        reduced, full = [], []
        for rep in range(_TIMING_REPEATS):
            if rep % 2:  # odd repeats dispatch the full problem first
                full.append(_timed_dispatch(network, sample.load_mw, all_k))
            if rep:
                # only the first screened dispatch is audited; later ones are timed, as the full side's are
                reduced.append(_timed_dispatch(network, sample.load_mw, result.monitored)[1])
            else:
                result = run_ropf(network, sample, pred_set)
                reduced.append(result.ropf_solve_seconds)
            if not rep % 2:
                full.append(_timed_dispatch(network, sample.load_mw, all_k))
        p_full = full[0][0]
        full_seconds.append(min(seconds for _, seconds in full))
        violated[i] = result.violations.flags

        if p_full is None:
            raise RuntimeError(f"sample {sample.sample_id}: stored full problem no longer solves")
        full_objective = float(network.gen_cost @ p_full)
        if abs(full_objective - sample.objective) > 1e-6 * max(1.0, abs(sample.objective)):
            raise RuntimeError(
                f"sample {sample.sample_id}: re-solved objective {full_objective} != "
                f"stored {sample.objective}; dataset/network mismatch"
            )

        per_sample.append({
            "sample_id": sample.sample_id,
            "n_monitored": len(pred_set),
            "n_wrong": int((oracle[i] != pred[i]).sum()),
            "any_violation": bool(result.violations.any_violation),
            "ropf_objective": result.ropf_objective,
            "full_objective": result.full_objective,
            "cost_delta": result.ropf_objective - result.full_objective,
            "ropf_solve_seconds": min(reduced),
        })

    tp = (oracle & pred).sum(axis=0)
    tn = (~oracle & ~pred).sum(axis=0)
    fp = (~oracle & pred).sum(axis=0)
    fn = (oracle & ~pred).sum(axis=0)
    # summed in sample order, as the rows list them
    total_ropf = sum(row["ropf_solve_seconds"] for row in per_sample)
    total_full = sum(full_seconds)
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
        pct_samples_with_violation=100.0 * int(violated.any(axis=1).sum()) / n,
        pct_lines_monitored=100.0 * sum(row["n_monitored"] / nk for row in per_sample) / n,
        total_ropf_seconds=total_ropf,
        total_full_opf_seconds=total_full,
        time_pct=100.0 * total_ropf / total_full,
        branch_true_pos=tp.tolist(),
        branch_true_neg=tn.tolist(),
        branch_false_pos=fp.tolist(),
        branch_false_neg=fn.tolist(),
        branch_violations=violated.sum(axis=0).tolist(),
        branch_type2_violation_overlap=(violated & oracle & ~pred).sum(axis=0).tolist(),
        wrong_prediction_histogram=np.bincount((oracle != pred).sum(axis=1), minlength=nk + 1).tolist(),
        per_sample=per_sample,
    )


# ---------------------------------------------------------------------------
# emission: JSON report and CSVs, all written from one EvalReport
# ---------------------------------------------------------------------------

SWEEP_CSV_COLUMNS = [
    "threshold", "time_pct", "pct_samples_over_limit", "pct_lines_monitored",
    "prediction_error_pct",
]


def _write_csv(path, header, rows) -> None:
    """Write a header row and data rows to `path` atomically, with the csv module's CRLF line ends."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, [text.getvalue()])


def write_sweep_csv(reports: list[EvalReport], path) -> None:
    """One SWEEP_CSV_COLUMNS row per report, written atomically."""
    _write_csv(path, SWEEP_CSV_COLUMNS, (
        [r.threshold, r.time_pct, r.pct_samples_with_violation, r.pct_lines_monitored, r.edge_prediction_error_pct]
        for r in reports))


def _report_files(out_dir, tag: str) -> dict[str, Path]:
    """The path of each file write_report writes, by part: report_<tag>.json, then <part>_<tag>.csv."""
    return {part: Path(out_dir) / f"{part}_{tag}.{'json' if part == 'report' else 'csv'}"
            for part in ("report", "summary", "branches", "wrong_histogram", "costs")}


def write_report(report: EvalReport, out_dir, tag: str) -> None:
    """Write report_<tag>.json and the summary, branches, wrong_histogram and costs CSVs to `out_dir`.

    Each file is written atomically, so an interrupted run leaves no file half written.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    files = _report_files(out_dir, tag)
    _write_atomic(files["report"], [json.dumps(vars(report), sort_keys=True, indent=1) + "\n"])
    write_sweep_csv([report], files["summary"])
    tables = {
        "branches": (
            ["branch", "true_pos", "true_neg", "type1", "type2", "violations", "type2_violation_overlap"],
            zip(report.branch_labels, report.branch_true_pos, report.branch_true_neg,
                report.branch_false_pos, report.branch_false_neg,
                report.branch_violations, report.branch_type2_violation_overlap),
        ),
        "wrong_histogram": (["n_wrong_predictions", "n_samples"], enumerate(report.wrong_prediction_histogram)),
        "costs": (
            ["sample_id", "full_objective", "ropf_objective", "cost_delta"],
            ([row["sample_id"], row["full_objective"], row["ropf_objective"], row["cost_delta"]]
             for row in report.per_sample),
        ),
    }
    for name, (header, rows) in tables.items():
        _write_csv(files[name], header, rows)
