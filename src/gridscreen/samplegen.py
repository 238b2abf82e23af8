"""Labeled-corpus generation: perturb loads, solve full OPF, extract features.

A dataset persists only what varies between samples: the loads and the
full-problem flows and objective.  The case is stored once in the header,
and node/edge features are derived from it on read.  Congestion labels are
never persisted; they are recomputed from the stored flows for whatever
loading threshold is requested, so one dataset serves every threshold
without skew.

Randomness is counter-based (Philox keyed by run seed and sample index), so
sample i is reproducible in isolation and generation parallelizes without
changing the result.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dcopf import REPORT_TOL_MW, full_monitored_set, solve_opf
from .netcase import (
    BUS_TYPE_GENERATOR, BUS_TYPE_LOAD, BUS_TYPE_SLACK, CaseError, Network, parse_case,
    serialize_case, to_graph,
)

NODE_FEATURE_WIDTH = 7
EDGE_FEATURE_WIDTH = 2

_MASK64 = (1 << 64) - 1
_MAX_REDRAWS_PER_SAMPLE = 1000


def derive_seed(seed: int, index: int) -> int:
    """128-bit Philox key: run seed in the high word, sample index in the low."""
    return ((seed & _MASK64) << 64) | (index & _MASK64)


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def extract_features(network: Network, load_mw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus and per-branch feature matrices.

    Node columns: load MW, summed max generation, summed min generation,
    incident-branch count, and a one-hot bus type (load, generator, slack).
    Edge columns: reactance pu, rating MW.  Rows follow internal order.
    """
    load = np.asarray(load_mw, dtype=float)
    if load.shape != (network.num_buses,):
        raise ValueError(f"load length {load.size} != number of buses {network.num_buses}")
    topo = to_graph(network)
    node = np.zeros((network.num_buses, NODE_FEATURE_WIDTH))
    node[:, 0] = load
    for gen in network.generators:
        bi = network.bus_index[gen.bus]
        node[bi, 1] += gen.p_max_mw
        node[bi, 2] += gen.p_min_mw
    node[:, 3] = topo.degree
    onehot_col = {BUS_TYPE_LOAD: 4, BUS_TYPE_GENERATOR: 5, BUS_TYPE_SLACK: 6}
    for bi, bus in enumerate(network.buses):
        node[bi, onehot_col[bus.bus_type]] = 1.0
    edge = np.column_stack([network.branch_reactance(), network.rating])
    return node, edge


def label_sample(flows_mw: np.ndarray, network: Network, threshold: float) -> np.ndarray:
    """Binary per-branch labels: 1 where |flow| reaches threshold * rating.

    A flow within REPORT_TOL_MW below the boundary counts as reaching it (the
    tolerance check_limits allows above a rating), so the label never turns
    on the last bits of a binding flow.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    flows = np.asarray(flows_mw, dtype=float)
    if flows.shape != (network.num_branches,):
        raise ValueError(f"flows length {flows.size} != number of branches {network.num_branches}")
    return (np.abs(flows) > threshold * network.rating - REPORT_TOL_MW).astype(int)


@dataclass
class Sample:
    sample_id: int
    load_mw: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    flows_mw: np.ndarray
    objective: float


@dataclass
class Dataset:
    network: Network
    seed: int
    magnitude: float
    count: int
    redraws: int = 0
    samples: list[Sample] = field(default_factory=list)


def _feature_template(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Node and edge features at the base load; the edge matrix is read-only, to be shared.

    Only the load column of the node features varies between samples.
    """
    node, edge = extract_features(network, network.base_load())
    edge.flags.writeable = False
    return node, edge


def _generate_one(network: Network, magnitude: float, seed: int, index: int,
                  template: tuple[np.ndarray, np.ndarray]) -> tuple[Sample, int]:
    """Draw loads for one sample, redrawing from the same stream until feasible.

    `template` is _feature_template(network); the sample's node features are
    a copy of it with the drawn load in column 0.
    """
    base = network.base_load()
    gen = _generator(derive_seed(seed, index))
    monitored = full_monitored_set(network)
    redraws = 0
    while True:
        load = base * gen.uniform(1 - magnitude, 1 + magnitude, base.size)
        sol = solve_opf(network, load, monitored)
        if sol.status == "optimal":
            node = template[0].copy()
            node[:, 0] = load
            return Sample(
                sample_id=index,
                load_mw=load,
                node_features=node,
                edge_features=template[1],
                flows_mw=sol.flows,
                objective=sol.objective,
            ), redraws
        redraws += 1
        if redraws >= _MAX_REDRAWS_PER_SAMPLE:
            raise RuntimeError(f"sample {index}: no feasible load after {redraws} redraws")


def generate_dataset(
    network: Network,
    count: int,
    magnitude: float,
    seed: int,
    threads: int = 1,
) -> Dataset:
    """Solve full OPF for `count` perturbed load profiles.

    Infeasible draws are discarded and redrawn (the total is recorded in the
    dataset metadata).  Fails fast if the unperturbed base case is already
    infeasible.  Samples are solved in min(threads, cpu count, count)
    worker processes; the result does not depend on that number.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= magnitude < 1:
        raise ValueError(f"magnitude must be in [0, 1), got {magnitude}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    base_sol = solve_opf(network, network.base_load(), full_monitored_set(network))
    if base_sol.status != "optimal":
        raise RuntimeError(f"base-case OPF is {base_sol.status}; cannot generate samples")

    dataset = Dataset(network=network, seed=seed, magnitude=magnitude, count=count)
    template = _feature_template(network)
    # more workers than cores or samples would only add start-up cost
    workers = min(threads, os.cpu_count() or 1, count)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                _generate_one,
                [network] * count, [magnitude] * count, [seed] * count, range(count),
                [template] * count, chunksize=max(1, count // (8 * workers)),
            ))
    else:
        results = [_generate_one(network, magnitude, seed, i, template) for i in range(count)]
    for sample, redraws in results:
        dataset.samples.append(sample)
        dataset.redraws += redraws
    return dataset


def split_dataset(dataset: Dataset, ratios: tuple[float, float, float], seed: int) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Deterministic shuffle then contiguous split; floor sizes, remainder to train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    n = len(dataset.samples)
    n_val = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_val - n_test
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise ValueError(f"{n} samples too few for non-empty splits at ratios {ratios}")
    order = _generator(derive_seed(seed, 0)).permutation(n)
    shuffled = [dataset.samples[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train:n_train + n_val],
        shuffled[n_train + n_val:],
    )


@dataclass
class Normalizer:
    """Per-column z-score statistics, fitted on the training split only."""

    node_mean: np.ndarray
    node_std: np.ndarray
    edge_mean: np.ndarray
    edge_std: np.ndarray

    STD_FLOOR = 1e-8

    def apply_node(self, features: np.ndarray) -> np.ndarray:
        return (features - self.node_mean) / self.node_std

    def apply_edge(self, features: np.ndarray) -> np.ndarray:
        return (features - self.edge_mean) / self.edge_std

    def to_dict(self) -> dict:
        return {
            "node_mean": self.node_mean.tolist(),
            "node_std": self.node_std.tolist(),
            "edge_mean": self.edge_mean.tolist(),
            "edge_std": self.edge_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(
            node_mean=np.asarray(d["node_mean"], dtype=float),
            node_std=np.asarray(d["node_std"], dtype=float),
            edge_mean=np.asarray(d["edge_mean"], dtype=float),
            edge_std=np.asarray(d["edge_std"], dtype=float),
        )


def fit_normalizer(train: list[Sample]) -> Normalizer:
    if not train:
        raise ValueError("cannot fit a normalizer on an empty split")
    node = np.vstack([s.node_features for s in train])
    edge = np.vstack([s.edge_features for s in train])
    return Normalizer(
        node_mean=node.mean(axis=0),
        node_std=np.maximum(node.std(axis=0), Normalizer.STD_FLOOR),
        edge_mean=edge.mean(axis=0),
        edge_std=np.maximum(edge.std(axis=0), Normalizer.STD_FLOOR),
    )


# ---------------------------------------------------------------------------
# JSON Lines persistence
# ---------------------------------------------------------------------------

DATASET_FORMAT_VERSION = 2

_HEADER_KEYS = ("format_version", "case", "seed", "magnitude", "count", "redraws")
_ROW_KEYS = ("sample_id", "load_mw", "flows_mw", "objective")


def write_dataset(dataset: Dataset, path) -> None:
    """One header line carrying the case text, then one JSON object per sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {
            "format_version": DATASET_FORMAT_VERSION,
            "case": serialize_case(dataset.network),
            "seed": dataset.seed,
            "magnitude": dataset.magnitude,
            "count": dataset.count,
            "redraws": dataset.redraws,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in dataset.samples:
            row = {
                "sample_id": s.sample_id,
                "load_mw": s.load_mw.tolist(),
                "flows_mw": s.flows_mw.tolist(),
                "objective": s.objective,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _parse_line(path, line_no: int, line: str) -> dict:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {line_no}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: line {line_no}: expected a JSON object")
    return doc


def _check_keys(path, line_no: int, doc: dict, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{path}: line {line_no}: missing key(s) {', '.join(missing)}")


def _vector(path, line_no: int, row: dict, key: str, size: int) -> np.ndarray:
    try:
        values = np.asarray(row[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: line {line_no}: {key} is not a list of numbers") from None
    if values.shape != (size,):
        raise ValueError(f"{path}: line {line_no}: {key} has shape {values.shape}, "
                         f"the network needs ({size},)")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: line {line_no}: {key} has a non-finite value")
    return values


def _objective(path, line_no: int, row: dict) -> float:
    value = row["objective"]
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{path}: line {line_no}: objective is not a finite number: {value!r}")


def read_dataset(path) -> Dataset:
    """Parse a format-2 dataset; features are rebuilt from the embedded case.

    Any malformed line raises ValueError naming the file and line number.
    The features come from one _feature_template, as in generate_dataset.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty dataset file")
        header = _parse_line(path, 1, header_line)
        version = header.get("format_version")
        if version != DATASET_FORMAT_VERSION:
            hint = "; regenerate it with gen-data" if version == 1 else ""
            raise ValueError(f"{path}: unsupported dataset format_version {version!r}{hint}")
        _check_keys(path, 1, header, _HEADER_KEYS)
        if not isinstance(header["case"], str):
            raise ValueError(f"{path}: line 1: case is not a string")
        try:
            network = parse_case(header["case"])
        except CaseError as exc:
            raise ValueError(f"{path}: line 1: embedded case: {exc}") from None
        dataset = Dataset(network, header["seed"], header["magnitude"], header["count"],
                          header["redraws"])
        node_template, edge = _feature_template(network)
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = _parse_line(path, line_no, line)
            _check_keys(path, line_no, row, _ROW_KEYS)
            load = _vector(path, line_no, row, "load_mw", network.num_buses)
            flows = _vector(path, line_no, row, "flows_mw", network.num_branches)
            sample_id = row["sample_id"]
            if isinstance(sample_id, bool) or not isinstance(sample_id, int):
                raise ValueError(f"{path}: line {line_no}: sample_id is not an integer: {sample_id!r}")
            node = node_template.copy()
            node[:, 0] = load
            dataset.samples.append(Sample(sample_id, load, node, edge, flows, _objective(path, line_no, row)))
    if len(dataset.samples) != dataset.count:
        raise ValueError(f"{path}: header count {dataset.count} != {len(dataset.samples)} sample lines")
    return dataset
