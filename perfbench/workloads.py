"""The three closed-loop workloads on cases/case14.case, and the CLI probe.

Every input is derived from the workload seed: the load draws of each
gen14 op, and one dataset recipe (``DATA_SAMPLES`` samples at ``seed``)
that train14 trains on, screen14 screens, and the CLI probe regenerates.
train14, screen14 and the probe train with the same config and seed, so
they all produce the same model bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gridscreen.cli as cli
import gridscreen.dcopf as dcopf
import gridscreen.gnn as gnn
import gridscreen.netcase as netcase
import gridscreen.pipeline as pipeline
import gridscreen.samplegen as samplegen
import gridscreen.simplex as simplex

CASE = Path("cases") / "case14.case"
MAGNITUDE = 0.1
GEN_CHUNK = 5         # samples generated and written per gen14 op
DATA_SAMPLES = 200    # dataset behind train14, screen14 and the CLI probe
SPLIT = (0.8, 0.1, 0.1)
EPOCHS = 2            # per train14 op, for the screen14 model, and in the CLI probe
THRESHOLD = 0.90
REL = 1e-6            # relative tolerance of objective and balance checks


@dataclass
class OpResult:
    ms: float                 # timed part of the op
    items: float              # samples generated, sample-epochs trained, or samples screened
    good: int                 # quality numerator (useful draws / correct branch labels)
    total: int                # quality denominator
    errors: list[str] = field(default_factory=list)
    full_ms: float = math.nan     # screen14: interleaved full build + solve
    violated: bool = False        # screen14: reduced dispatch breaks a limit


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(b))


def load_case(root: Path):
    return netcase.parse_case((root / CASE).read_text(encoding="utf-8"))


def train_model(network, dataset, seed: int):
    """What `gridscreen train` does after reading the dataset."""
    train_split, val_split, _ = samplegen.split_dataset(dataset, SPLIT, seed)
    normalizer = samplegen.fit_normalizer(train_split)
    sample = train_split[0]
    model = gnn.init_model(
        gnn.ModelConfig(seed=seed, epochs=EPOCHS), sample.node_features.shape[1], sample.edge_features.shape[1],
        num_buses=network.num_buses, num_branches=network.num_branches, normalizer=normalizer,
    )
    return gnn.train(model, network, train_split, val_split, THRESHOLD, epochs=EPOCHS), train_split, val_split


class Gen14:
    """`gridscreen gen-data` in chunks: generate_dataset + write_dataset per op."""

    name = "gen14"

    def setup(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.network = net = load_case(root)
        self.path = work / "chunk.jsonl"
        self.all_k = dcopf.full_monitored_set(net)
        self.ef, self.et = net.branch_endpoints()
        nb = net.num_buses
        self.is_gen = np.zeros(nb, dtype=bool)
        self.p_min = np.zeros(nb)
        self.p_max = np.zeros(nb)
        for g in net.generators:
            b = net.bus_index[g.bus]
            self.is_gen[b] = True
            self.p_min[b] += g.p_min_mw
            self.p_max[b] += g.p_max_mw
        self.op(0)  # warm-up

    def op(self, i: int, tracer=None) -> OpResult:
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        ds = samplegen.generate_dataset(self.network, GEN_CHUNK, MAGNITUDE, self.seed * 1_000_003 + i)
        samplegen.write_dataset(ds, self.path)
        ms = 1e3 * (time.perf_counter() - t0)
        if span:
            tracer.end(span)
        n = len(ds.samples)
        return OpResult(ms, n, n, n + ds.redraws, self._check(ds, i))

    def _check(self, ds, i: int) -> list[str]:
        net, errors = self.network, []
        if len(ds.samples) != GEN_CHUNK:
            errors.append(f"{len(ds.samples)} samples, expected {GEN_CHUNK}")
        for s in ds.samples:
            if not (np.all(np.isfinite(s.flows_mw)) and math.isfinite(s.objective)):
                errors.append(f"sample {s.sample_id}: non-finite flows or objective")
                continue
            if dcopf.check_limits(net, s.flows_mw).any_violation:
                errors.append(f"sample {s.sample_id}: flow limit violated")
            # generation implied at each bus by its load and branch flows
            implied = (s.load_mw + np.bincount(self.ef, s.flows_mw, net.num_buses)
                       - np.bincount(self.et, s.flows_mw, net.num_buses))
            tol = REL * s.load_mw.sum()
            if (np.abs(implied[~self.is_gen]).max(initial=0.0) > tol
                    or np.any(implied < self.p_min - tol) or np.any(implied > self.p_max + tol)):
                errors.append(f"sample {s.sample_id}: nodal balance or generator bounds broken")
        # one sample per op is solved again for the dispatch itself
        s = ds.samples[i % len(ds.samples)]
        sol = dcopf.solve_opf(net, s.load_mw, self.all_k)
        if sol.status != "optimal":
            errors.append(f"sample {s.sample_id}: re-solve {sol.status}")
        elif not _close(sol.p_g.sum(), s.load_mw.sum()) or not _close(sol.objective, s.objective):
            errors.append(f"sample {s.sample_id}: sum p_g {sol.p_g.sum()} vs load {s.load_mw.sum()}, "
                          f"objective {sol.objective} vs stored {s.objective}")
        with open(self.path, encoding="utf-8") as fh:
            if sum(1 for _ in fh) != len(ds.samples) + 1:
                errors.append("written dataset has the wrong number of lines")
        return errors


class Train14:
    """`gridscreen train`: read, split, normalize, init, train, save per op."""

    name = "train14"

    def setup(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.network = load_case(root)
        self.data_path = work / "data.jsonl"
        self.model_path = work / "model.json"
        samplegen.write_dataset(
            samplegen.generate_dataset(self.network, DATA_SAMPLES, MAGNITUDE, seed), self.data_path)
        self.model_sha = None
        self.op(0)  # warm-up; fixes the reference model bytes

    def op(self, i: int, tracer=None) -> OpResult:
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        ds = samplegen.read_dataset(self.data_path)
        result, train_split, val_split = train_model(self.network, ds, self.seed)
        gnn.save_model(result.best_model, self.model_path)
        ms = 1e3 * (time.perf_counter() - t0)
        if span:
            tracer.end(span)

        h = result.history
        errors = []
        if not all(math.isfinite(v) for v in h.train_loss + h.val_loss):
            errors.append("non-finite loss")
        sha = hashlib.sha256(self.model_path.read_bytes()).hexdigest()
        if self.model_sha is None:
            self.model_sha = sha
        elif sha != self.model_sha:
            errors.append("model bytes differ from the first op with the same seed")
        # validation accuracy of the saved (best-validation-loss) model
        best = int(np.argmin(h.val_loss))
        total = len(val_split) * self.network.num_branches
        good = round(h.val_acc[best] * total)
        return OpResult(ms, len(train_split) * len(h), good, total, errors)


class Screen14:
    """`gridscreen eval`, one held-out sample per op: predict, reduced solve and audit, then full."""

    name = "screen14"

    def setup(self, root: Path, work: Path, seed: int):
        self.network = net = load_case(root)
        data_path = work / "data.jsonl"
        model_path = work / "model.json"
        samplegen.write_dataset(
            samplegen.generate_dataset(net, DATA_SAMPLES, MAGNITUDE, seed), data_path)
        result, _, _ = train_model(net, samplegen.read_dataset(data_path), seed)
        gnn.save_model(result.best_model, model_path)
        # from here on, what `gridscreen eval` does before its loop; the pool is
        # every held-out sample (validation and test): 40 rather than 20 samples
        # keep the accuracy figure steady across seeds
        _, val_split, test_split = samplegen.split_dataset(samplegen.read_dataset(data_path), SPLIT, seed)
        self.pool = val_split + test_split
        self.predictor = pipeline.ModelPredictor(gnn.load_model(model_path), netcase.to_graph(net))
        self.all_k = dcopf.full_monitored_set(net)
        self.op(0)  # warm-up

    def op(self, i: int, tracer=None) -> OpResult:
        net = self.network
        sample = self.pool[i % len(self.pool)]
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        predicted = self.predictor.predict(sample)
        ropf = pipeline.run_ropf(net, sample, predicted)
        t1 = time.perf_counter()
        full = simplex.solve_lp(dcopf.build_opf(net, sample.load_mw, self.all_k))
        t2 = time.perf_counter()
        if span:
            tracer.end(span)

        errors = []
        if full.status != "optimal":
            errors.append(f"sample {sample.sample_id}: full re-solve {full.status}")
        else:
            if not _close(full.objective, sample.objective):
                errors.append(f"sample {sample.sample_id}: full objective {full.objective} "
                              f"!= stored {sample.objective}")
            if ropf.ropf_objective > full.objective + REL * max(1.0, abs(full.objective)):
                errors.append(f"sample {sample.sample_id}: reduced objective {ropf.ropf_objective} "
                              f"above full {full.objective}")
        truth = samplegen.label_sample(sample.flows_mw, net, THRESHOLD).astype(bool)
        pred = np.zeros(net.num_branches, dtype=bool)
        pred[list(predicted)] = True
        return OpResult(
            1e3 * (t1 - t0), 1, int((truth == pred).sum()), net.num_branches, errors,
            full_ms=1e3 * (t2 - t1), violated=bool(ropf.violations.any_violation),
        )


WORKLOADS = {w.name: w for w in (Gen14, Train14, Screen14)}


def cli_probe(root: Path, work: Path, seed: int, tracer, rep: int) -> list[str]:
    """`gen-data`, `train` and `eval` through cli.main on the workload's dataset recipe."""
    data, model, out = work / "probe.jsonl", work / "probe_model.json", work / "probe_eval"
    case = str(root / CASE)
    commands = {
        "gen-data": ["gen-data", "--case", case, "--samples", str(DATA_SAMPLES),
                     "--magnitude", str(MAGNITUDE), "--seed", str(seed), "--out", str(data)],
        "train": ["train", "--case", case, "--data", str(data), "--threshold", str(THRESHOLD),
                  "--epochs", str(EPOCHS), "--seed", str(seed), "--out", str(model)],
        "eval": ["eval", "--case", case, "--data", str(data), "--model", str(model),
                 "--seed", str(seed), "--out-dir", str(out)],
    }
    errors = []
    for name, argv in commands.items():
        tracer.tag = f"probe{rep}:{name}"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            errors.append(f"cli {name} exited {code}: {sink.getvalue().strip()}")
    return errors


def batch_probe(root: Path, work: Path, tracer, repeats: int = 10):
    """Forward passes on a batch of 32 samples with the probe's trained model."""
    tracer.tag = "aux"
    topology = netcase.to_graph(load_case(root))
    model = gnn.load_model(work / "probe_model.json")
    batch = samplegen.read_dataset(work / "probe.jsonl").samples[:32]
    xn = np.stack([s.node_features for s in batch])
    xe = np.stack([s.edge_features for s in batch])
    tracer.tag = "batch"
    for _ in range(repeats):
        gnn.forward_any(model, xn, xe, topology)
