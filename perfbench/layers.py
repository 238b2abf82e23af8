"""Per-layer metrics derived from the spans of one traced run.

Span tags say where a span was recorded: "op" (traced workload ops),
"probe0"/"probe1" (the two CLI probes, identical seed-determined work),
"batch" (forward passes on a batch of 32) and "aux" (probe preparation,
ignored).  Timings take every span of a kind; counts take probe0 only, so
they depend on the seed alone and must repeat exactly in probe1.  Times
are scaled to reference machine speed with the run's mean kernel time
(see clock.py); trace.overhead_pct compares raw traced and untraced ops,
which alternate.
"""

from __future__ import annotations

import numpy as np

# name -> unit; the order is the output order
UNITS = {
    "netcase.parse_case_ms": "ms", "netcase.to_graph_ms": "ms",
    "simplex.solve_full_ms": "ms", "simplex.iters_full": "count",
    "simplex.phase1_iters_full": "count", "simplex.us_per_iter_full": "us",
    "simplex.rows_full": "count",
    "simplex.solve_reduced_ms": "ms", "simplex.iters_reduced": "count",
    "simplex.phase1_iters_reduced": "count", "simplex.us_per_iter_reduced": "us",
    "simplex.rows_reduced": "count", "simplex.nonoptimal": "count",
    "dcopf.build_full_ms": "ms", "dcopf.build_reduced_ms": "ms", "dcopf.audit_ms": "ms",
    "dcopf.violated_branches": "count",
    "samplegen.perturb_ms": "ms", "samplegen.features_ms": "ms", "samplegen.useful_ratio": "ratio",
    "samplegen.write_ms": "ms", "samplegen.write_bytes_per_sample": "bytes",
    "samplegen.read_ms": "ms", "samplegen.read_bytes": "bytes", "samplegen.split_ms": "ms",
    "samplegen.normalizer_ms": "ms",
    "gnn.epoch_ms": "ms", "gnn.backward_batch_ms": "ms", "gnn.forward_batch_ms": "ms",
    "gnn.history_forward_ms": "ms", "gnn.epoch_other_ms": "ms", "gnn.save_ms": "ms",
    "gnn.load_ms": "ms", "gnn.model_bytes": "bytes", "gnn.predict_ms": "ms",
    "pipeline.run_ropf_ms": "ms", "pipeline.evaluate_ms_per_sample": "ms",
    "pipeline.monitored_per_sample": "count", "pipeline.false_neg_per_sample": "count",
    "pipeline.time_pct": "%",
    "cli.gen_data_s": "s", "cli.train_s": "s", "cli.eval_s": "s", "cli.self_pct": "%",
    "netcase.self_pct": "%", "simplex.self_pct": "%", "dcopf.self_pct": "%",
    "samplegen.self_pct": "%", "gnn.self_pct": "%", "pipeline.self_pct": "%",
    "trace.coverage_pct": "%", "trace.unattributed_pct": "%", "trace.overhead_pct": "%",
}

# Counters that must repeat exactly for the same seed.
EXACT = (
    "simplex.iters_full", "simplex.phase1_iters_full",
    "simplex.iters_reduced", "simplex.phase1_iters_reduced",
    "pipeline.monitored_per_sample", "dcopf.violated_branches", "gnn.model_bytes",
)


def _median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


class _View:
    def __init__(self, tracer, num_branches):
        self.spans = tracer.spans
        self.kids = tracer.children()
        self.self_ms = tracer.self_ms(self.kids)
        self.roots = tracer.roots()
        self.nk = num_branches

    def named(self, name, tag=None, extra=False):
        return [s for s in self.spans if s.name == name and (tag is None or s.tag.startswith(tag))
                and s.tag != "aux" and (s.extra is not None or not extra)]

    def child_ms(self, span, names) -> float:
        return sum(self.spans[c].ms for c in self.kids[span.idx] if self.spans[c].name in names)

    def lps(self, full: bool, tag=None):
        return [s for s in self.named("solve_lp", tag, extra=True)
                if (s.extra["ub_rows"] == 2 * self.nk) == full]


def exact_counts(tracer, num_branches: int, tag: str) -> dict:
    """The seed-determined counters of one probe."""
    v = _View(tracer, num_branches)
    out = {}
    for kind, full in (("full", True), ("reduced", False)):
        lps = v.lps(full, tag)
        out[f"simplex.iters_{kind}"] = _mean([s.extra["iters"] for s in lps])
        out[f"simplex.phase1_iters_{kind}"] = _mean([s.extra["phase1"] for s in lps])
        out[f"simplex.rows_{kind}"] = _mean([s.extra["rows"] for s in lps])
    out["simplex.nonoptimal"] = sum(s.extra["status"] != "optimal"
                                    for s in v.named("solve_lp", tag, extra=True))
    audits = [s for s in v.named("check_limits", tag, extra=True)
              if s.parent >= 0 and v.spans[s.parent].name == "run_ropf"]
    out["dcopf.violated_branches"] = _mean([s.extra["violated"] for s in audits])
    evals = v.named("evaluate", tag, extra=True)
    if evals:
        e = evals[0].extra
        out["pipeline.monitored_per_sample"] = e["monitored"] / e["samples"]
        out["pipeline.false_neg_per_sample"] = e["false_neg"] / e["samples"]
    gens = v.named("generate_dataset", tag, extra=True)
    if gens:
        g = gens[0].extra
        out["samplegen.useful_ratio"] = g["samples"] / (g["samples"] + g["redraws"])
    writes = v.named("write_dataset", tag, extra=True)
    if writes:
        out["samplegen.write_bytes_per_sample"] = writes[0].extra["bytes"] / writes[0].extra["samples"]
    reads = v.named("read_dataset", tag, extra=True)
    if reads:
        out["samplegen.read_bytes"] = reads[0].extra["bytes"]
    saves = v.named("save_model", tag, extra=True)
    if saves:
        out["gnn.model_bytes"] = saves[0].extra["bytes"]
    return out


def layer_metrics(tracer, num_branches: int, op_ms_untraced: list[float], scale: float) -> dict:
    """Every metric in UNITS (None where no span supplied it); times multiplied by `scale`."""
    v = _View(tracer, num_branches)
    m = dict.fromkeys(UNITS)
    m.update(exact_counts(tracer, num_branches, "probe0"))

    def med_ms(name, tag=None):
        return _median([s.ms for s in v.named(name, tag)])

    m["netcase.parse_case_ms"] = med_ms("parse_case")
    m["netcase.to_graph_ms"] = med_ms("to_graph")
    for kind, full in (("full", True), ("reduced", False)):
        lps = v.lps(full)
        iters = sum(s.extra["iters"] for s in lps)
        m[f"simplex.solve_{kind}_ms"] = _median([s.ms for s in lps])
        m[f"simplex.us_per_iter_{kind}"] = 1e3 * sum(s.ms for s in lps) / iters if iters else None
    builds = v.named("build_opf", extra=True)
    m["dcopf.build_full_ms"] = _median([s.ms for s in builds if s.extra["monitored"] == num_branches])
    m["dcopf.build_reduced_ms"] = _median([s.ms for s in builds if s.extra["monitored"] < num_branches])
    ropfs = v.named("run_ropf")
    m["dcopf.audit_ms"] = _median([v.child_ms(s, ("line_flows", "check_limits")) for s in ropfs])

    m["samplegen.perturb_ms"] = _median([v.self_ms[s.idx] for s in v.named("_generate_one")])
    m["samplegen.features_ms"] = med_ms("extract_features")
    m["samplegen.write_ms"] = med_ms("write_dataset", tag="probe")
    m["samplegen.read_ms"] = med_ms("read_dataset", tag="probe")
    m["samplegen.split_ms"] = med_ms("split_dataset", tag="probe")
    m["samplegen.normalizer_ms"] = med_ms("fit_normalizer", tag="probe")

    trains = v.named("train", tag="probe", extra=True)
    per_epoch = [(s, s.extra["epochs"]) for s in trains if s.extra["epochs"]]
    m["gnn.epoch_ms"] = _median([s.ms / e for s, e in per_epoch])
    m["gnn.backward_batch_ms"] = _median([s.ms for s in v.named("_backward_batch", extra=True)
                                          if s.extra["batch"] == 32])
    m["gnn.forward_batch_ms"] = med_ms("forward_any", tag="batch")
    m["gnn.history_forward_ms"] = _median([v.child_ms(s, ("forward_any",)) / e for s, e in per_epoch])
    m["gnn.epoch_other_ms"] = _median([
        (s.ms - v.child_ms(s, ("_backward_batch", "forward_any"))) / e for s, e in per_epoch])
    m["gnn.save_ms"] = med_ms("save_model")
    m["gnn.load_ms"] = med_ms("load_model")
    m["gnn.predict_ms"] = med_ms("ModelPredictor.predict")

    m["pipeline.run_ropf_ms"] = med_ms("run_ropf")
    evals = v.named("evaluate", tag="probe", extra=True)
    m["pipeline.evaluate_ms_per_sample"] = _median([s.ms / s.extra["samples"] for s in evals])
    m["pipeline.time_pct"] = _median([s.extra["time_pct"] for s in evals])

    for cmd in ("gen-data", "train", "eval"):
        key = f"cli.{cmd.replace('-', '_')}_s"
        m[key] = _median([s.ms / 1e3 for s in v.named("main") if s.tag.endswith(":" + cmd)])
    mains = [s.idx for s in v.spans if s.name == "main" and s.tag.startswith("probe")]
    cli_self = sum(v.self_ms[s.idx] for s in v.spans if s.layer == "cli" and s.tag.startswith("probe"))
    total = sum(v.spans[i].ms for i in mains)
    m["cli.self_pct"] = 100.0 * cli_self / total if total else None

    # breakdown of the traced workload ops
    ops = [s.idx for s in v.spans if s.layer == "bench" and s.name == "op"]
    op_total = sum(v.spans[i].ms for i in ops)
    if op_total:
        is_op = set(ops)
        for layer in ("netcase", "simplex", "dcopf", "samplegen", "gnn", "pipeline"):
            share = sum(v.self_ms[s.idx] for s in v.spans if s.layer == layer and v.roots[s.idx] in is_op)
            m[f"{layer}.self_pct"] = 100.0 * share / op_total
        unattributed = 100.0 * sum(v.self_ms[i] for i in ops) / op_total
        m["trace.unattributed_pct"] = unattributed
        m["trace.coverage_pct"] = 100.0 - unattributed
        traced = _median([v.spans[i].ms for i in ops])
        if op_ms_untraced:
            m["trace.overhead_pct"] = 100.0 * (traced / float(np.median(op_ms_untraced)) - 1.0)
    for key, unit in UNITS.items():
        if unit in ("ms", "us", "s") and m[key] is not None:
            m[key] *= scale
    return m
