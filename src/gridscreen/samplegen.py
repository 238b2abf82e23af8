"""Labeled-corpus generation: perturb loads, solve full OPF, extract features.

A dataset persists only what varies between samples: the loads and the
full-problem dispatch.  The case is stored once in the header; node/edge
features, flows and objective are derived from it on read, by the same code
that built them at generation.  Congestion labels are never persisted; they
are recomputed from the flows for whatever loading threshold is requested,
so one dataset serves every threshold without skew.

Randomness is counter-based (Philox keyed by run seed and sample index), so
sample i is reproducible in isolation and generation parallelizes without
changing the result.  A batch of samples is drawn, dispatched at once
with every branch monitored (dcopf.dispatches, which answers every load
from the base case's optimal basis, with dual pivots where that basis
misses, and solves cold only what it leaves unanswered), and only its
infeasible draws are redrawn and dispatched again, until none is left.  No
sample starts from another sample's basis, so a sample still depends only
on the case, the seed and its index, whatever the batch or worker count.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dcopf import REPORT_TOL_MW, _check_load, _flows, dispatches
from .netcase import (
    BUS_TYPE_GENERATOR, BUS_TYPE_LOAD, BUS_TYPE_SLACK, CaseError, Network, parse_case,
    serialize_case, to_graph,
)

NODE_FEATURE_WIDTH = 7
EDGE_FEATURE_WIDTH = 2

_MASK64 = (1 << 64) - 1
_MAX_REDRAWS_PER_SAMPLE = 1000
# samples whose draws are dispatched together (dcopf.dispatches); a
# worker takes whole batches
_START_BATCH = 16


def derive_seed(seed: int, index: int) -> int:
    """128-bit Philox key: run seed in the high word, sample index in the low; each must pass _is_seed."""
    if not (_is_seed(seed) and _is_seed(index)):
        raise ValueError(f"seed {seed!r} and index {index!r} must each be an integer in [0, 2**64)")
    return seed << 64 | index


def _is_seed(value) -> bool:
    """Whether `value` is a seed: an integer in [0, 2**64), the high word of derive_seed's key."""
    return _is_int(value) and 0 <= value <= _MASK64


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(bits: np.random.Philox, key: int) -> None:
    """Set `bits` to the state of a new Philox(key=key): the key's two words, low first, and a fresh counter."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key & _MASK64, key >> 64], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def extract_features(network: Network, load_mw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus and per-branch feature matrices.

    Node columns: load MW, summed max generation, summed min generation,
    incident-branch count, and a one-hot bus type (load, generator, slack).
    Edge columns: reactance pu, rating MW.  Rows follow internal order.
    """
    load = _check_load(network, load_mw)
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
    p_g: np.ndarray                  # full-problem dispatch, per generator MW
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


def _build_sample(network: Network, sample_id: int, load: np.ndarray, p_g: np.ndarray,
                  template: tuple[np.ndarray, np.ndarray]) -> Sample:
    """A sample from its load and dispatch; flows, objective and features are derived.

    `template` is _feature_template(network); the node features are a copy of
    it with the load in column 0.  Generation and read_dataset both build
    samples here, so a sample read back equals the one generated.
    """
    node = template[0].copy()
    node[:, 0] = load
    return Sample(sample_id, load, p_g, node, template[1], _flows(network, p_g, load),
                  float(network.gen_cost @ p_g))


def _draw(gen: np.random.Generator, base: np.ndarray, magnitude: float) -> np.ndarray:
    return base * gen.uniform(1 - magnitude, 1 + magnitude, base.size)


def _generate_batch(network: Network, magnitude: float, seed: int, indices: range,
                    template: tuple[np.ndarray, np.ndarray]) -> list[tuple[Sample, int]]:
    """Samples `indices` and their redraw counts: draw all, dispatch all, redraw only the infeasible, repeat.

    The first draws share one Philox, re-keyed for each sample; a sample
    that needs a redraw gets a generator of its own, past its first draw,
    so every draw continues the sample's own stream.
    """
    base = network.base_load()
    bits = np.random.Philox(key=0)
    shared = np.random.Generator(bits)
    loads = []
    for i in indices:
        _rekey(bits, derive_seed(seed, i))
        loads.append(_draw(shared, base, magnitude))
    gens = {}
    dispatched = [None] * len(loads)
    redraws = [0] * len(loads)
    pending = list(range(len(loads)))
    everything = range(network.num_branches)
    while pending:
        for k, p_g in zip(pending, dispatches(network, [loads[k] for k in pending], everything)):
            dispatched[k] = p_g
        pending = [k for k in pending if dispatched[k] is None]
        for k in pending:
            redraws[k] += 1
            if redraws[k] >= _MAX_REDRAWS_PER_SAMPLE:
                raise RuntimeError(f"sample {indices[k]}: no feasible load after {redraws[k]} redraws")
            if k not in gens:
                gens[k] = _generator(derive_seed(seed, indices[k]))
                _draw(gens[k], base, magnitude)  # the first draw, already dispatched
            loads[k] = _draw(gens[k], base, magnitude)
    return [(_build_sample(network, i, load, p_g, template), n)
            for i, load, p_g, n in zip(indices, loads, dispatched, redraws)]


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
    infeasible.  Batches of samples are solved in
    min(threads, cpu count, batches) worker processes; the result depends
    on neither number.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= magnitude < 1:
        raise ValueError(f"magnitude must be in [0, 1), got {magnitude}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    base = network.warm_start(range(network.num_branches)).solution
    if base.status != "optimal":
        raise RuntimeError(f"base-case OPF is {base.status}; cannot generate samples")

    dataset = Dataset(network=network, seed=seed, magnitude=magnitude, count=count)
    template = _feature_template(network)
    batches = [range(lo, min(lo + _START_BATCH, count)) for lo in range(0, count, _START_BATCH)]
    # more workers than cores or batches would only add start-up cost
    workers = min(threads, os.cpu_count() or 1, len(batches))
    if workers > 1:
        n = len(batches)
        # one chunk of batches per worker: a chunk pickles the network once,
        # so each worker solves the base case once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_generate_batch, [network] * n, [magnitude] * n, [seed] * n, batches,
                                    [template] * n, chunksize=-(-n // workers)))
    else:
        results = [_generate_batch(network, magnitude, seed, batch, template) for batch in batches]
    for sample, redraws in itertools.chain.from_iterable(results):
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

DATASET_FORMAT_VERSION = 3

_HEADER_KEYS = ("format_version", "case", "seed", "magnitude", "count", "redraws")
_ROW_KEYS = ("sample_id", "load_mw", "p_g")


def _write_atomic(path, chunks) -> None:
    """Write the strings of `chunks` to a temporary file beside `path`, then rename it over `path`.

    If writing raises, `path` keeps its old content and the temporary file is removed.
    A symlink at `path` stays a symlink: its target is replaced.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _encode_array(array) -> str:
    """Base64 text of an array's little-endian float64 bytes in C order; datasets and models store arrays so."""
    return base64.b64encode(np.ascontiguousarray(array, "<f8").tobytes()).decode("ascii")


def _decode_array(value, shape: tuple, name: str, origin: str) -> np.ndarray:
    """A writable finite float64 array of `shape` from _encode_array text.

    Errors start with `name`, which says where the value was read, and say
    that `origin` gave the shape.
    """
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"{name} is not a base64 string: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{name} holds {len(raw)} bytes; its shape {shape} "
                         f"from {origin} needs {8 * math.prod(shape)}")
    array = np.frombuffer(raw, "<f8").astype(float).reshape(shape)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has a non-finite value")
    return array


def write_dataset(dataset: Dataset, path) -> None:
    """One header line carrying the case text, then one JSON object per sample."""
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "case": serialize_case(dataset.network),
        "seed": dataset.seed,
        "magnitude": dataset.magnitude,
        "count": dataset.count,
        "redraws": dataset.redraws,
    }
    rows = ({
        "sample_id": s.sample_id,
        "load_mw": _encode_array(s.load_mw),
        "p_g": _encode_array(s.p_g),
    } for s in dataset.samples)
    _write_atomic(path, (json.dumps(doc, sort_keys=True) + "\n" for doc in itertools.chain([header], rows)))


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(path, header: dict) -> None:
    """Reject a header value of the wrong type or range, naming its key."""
    rules = {
        "case": ("a string", lambda v: isinstance(v, str)),
        "seed": ("an integer in [0, 2**64)", _is_seed),
        "magnitude": ("a number in [0, 1)", lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v < 1),
        "count": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
        "redraws": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    }
    for key, (wanted, ok) in rules.items():
        if not ok(header[key]):
            raise ValueError(f"{path}: line 1: {key} must be {wanted}, got {header[key]!r}")


def read_dataset(path) -> Dataset:
    """Parse a format-3 dataset; every sample is rebuilt by _build_sample from the embedded case.

    Any malformed line raises ValueError naming the file and line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty dataset file")
        header = _parse_line(path, 1, header_line)
        version = header.get("format_version")
        if version != DATASET_FORMAT_VERSION:
            hint = "; regenerate it with gen-data" if version in (1, 2) else ""
            raise ValueError(f"{path}: unsupported dataset format_version {version!r}{hint}")
        _check_keys(path, 1, header, _HEADER_KEYS)
        _check_header(path, header)
        try:
            network = parse_case(header["case"])
        except CaseError as exc:
            raise ValueError(f"{path}: line 1: embedded case: {exc}") from None
        dataset = Dataset(network, header["seed"], header["magnitude"], header["count"],
                          header["redraws"])
        template = _feature_template(network)
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = _parse_line(path, line_no, line)
            _check_keys(path, line_no, row, _ROW_KEYS)
            sample_id = row["sample_id"]
            if not _is_int(sample_id):
                raise ValueError(f"{path}: line {line_no}: sample_id is not an integer: {sample_id!r}")
            where = f"{path}: line {line_no}: "
            load = _decode_array(row["load_mw"], (network.num_buses,), where + "load_mw", "the case")
            p_g = _decode_array(row["p_g"], (network.num_generators,), where + "p_g", "the case")
            dataset.samples.append(_build_sample(network, sample_id, load, p_g, template))
    if len(dataset.samples) != dataset.count:
        raise ValueError(f"{path}: header count {dataset.count} != {len(dataset.samples)} sample lines")
    return dataset
