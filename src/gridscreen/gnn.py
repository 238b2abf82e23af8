"""Edge-classifying graph network, built directly on numpy.

Each message-passing layer co-updates node and edge embeddings: every branch
stacks its endpoint embeddings with its own and passes them through a dense
relu transform; every bus then stacks its embedding with the sums of the
transformed messages on its outgoing and incoming branches (kept separate,
following branch orientation).  The last layer updates only the edges: a
final dense layer turns the last edge embeddings into two-class softmax rows
per branch, and nothing reads a last node update.  Node and edge embeddings
share one width, `ModelConfig.channels`.

Training minimizes mean squared error between the softmax rows and one-hot
congestion labels with Adam; gradients are exact reverse-mode derivatives of
the forward pass, all in 64-bit floats.  A topology-blind MLP over flattened
features implements the same contract for baseline comparison.  Both kinds
are one `Model` type whose `params` map each parameter name to its array, and
`init_model(kind=...)` builds either.  They share one dense layer (`_dense`
and `_dense_backward`; the head is that layer without the relu), one
forward (`_forward`: the kind's encoder, then the shared head) and one
backward (`_backward_batch`).  A model file (format 4) stores the `params`
map and the normalizer's four vectors as flat objects whose values are
base64 strings of little-endian float64 bytes, the encoding datasets use.
The shapes are not stored: the config and binding determine them.

The forward and backward passes run on row-stacked 2-D arrays at every
batch size: (B*N, w) node rows and (B*K, w) edge rows, sample after sample,
and (B, w) rows for the MLP's towers.  Each GEMM takes the same rows it
would take with a batch axis, so the bits are those of a batched forward,
and single-sample inference pays for no batch axis in its gathers and sums.
A layer's bus sums are one call of `_scatter_sum` per direction, which
writes them into their column block of the node stack, next to the copy of
the node embeddings; the backward pass scatters its edge-stack gradients
with the same helper.

All aggregation sums run in branch order, so a consistent relabeling of the
buses reproduces per-branch outputs bit for bit.

A workspace is the one switch between training and inference: a dict of
arrays keyed by role and shape.  Given one, the forward pass keeps the caches
the backward pass reads, and every batch's forward arrays (the head's logits
included), backward arrays and weight gradients are written into it
(`out=`).  Training gives each epoch one workspace, so a batch reuses the
arrays of the one before instead of allocating its own.  Forward arrays are
keyed per layer, since the backward pass reads them; backward arrays are
shared by the layers of one role ("edge", "node", "head" or an MLP tower),
never by shape alone.  The workspace is emptied before each epoch's
validation pass, and the best-validation snapshot is copied into arrays made
before the first epoch.  Inference passes no workspace, keeps no cache and
allocates as it goes.  The bits are the same either way.  Adam's beta1,
beta2 and eps are fixed at 0.9, 0.999 and 1e-8; only the learning rate is
configured.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .netcase import GraphTopology, Network, to_graph
from .samplegen import (
    Normalizer, Sample, _decode_array, _encode_array, _generator, _is_count, _is_number, _is_seed,
    _is_threshold, _write_atomic, derive_seed, label_sample,
)

MODEL_FORMAT_VERSION = 4
CLASSES = 2  # a branch is congested or not
MODEL_KINDS = ("gnn", "mlp")  # the first is the default


@dataclass
class ModelConfig:
    num_layers: int = 4
    channels: int = 64
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 250
    batch_size: int = 32

    def __post_init__(self):
        for name in ("num_layers", "channels", "epochs", "batch_size"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"config field {name} must be a positive integer, got {value!r}")
        if not _is_seed(self.seed):
            raise ValueError(f"config field seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (_is_number(self.learning_rate) and 0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")


@dataclass
class Binding:
    """Graph size and feature widths the model was initialized for."""

    num_buses: int
    num_branches: int
    node_feature_width: int
    edge_feature_width: int

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not _is_count(value):
                raise ValueError(f"binding field {name} must be a positive integer, got {value!r}")


@dataclass
class Model:
    """A GNN (`kind` "gnn") or the topology-blind MLP baseline (`kind` "mlp").

    `params` maps each parameter name to its array, in `_parameter_shapes`
    order; the forward and backward passes read their weights from it by name.
    """

    kind: str
    config: ModelConfig
    binding: Binding
    normalizer: Normalizer
    params: dict[str, np.ndarray]
    trained_threshold: float | None = None

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return list(self.params.items())

    def copy(self) -> "Model":
        return copy.deepcopy(self)


def _identity_normalizer(node_width: int, edge_width: int) -> Normalizer:
    return Normalizer(
        node_mean=np.zeros(node_width), node_std=np.ones(node_width),
        edge_mean=np.zeros(edge_width), edge_std=np.ones(edge_width),
    )


def _xavier(gen: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-a, a, (fan_in, fan_out))


def _parameter_shapes(kind: str, config: ModelConfig, binding: Binding) -> list[tuple[str, tuple]]:
    """Name and shape of every parameter of a `kind` model, in parameters() order.

    The head reads only the GNN's last edge embeddings, so its last layer has no node update.
    """
    c = config.channels
    shapes = []
    if kind == "gnn":
        in_n, in_e = binding.node_feature_width, binding.edge_feature_width
        for i in range(config.num_layers):
            shapes += [(f"layers.{i}.w_edge", (2 * in_n + in_e, c)), (f"layers.{i}.b_edge", (c,))]
            if i < config.num_layers - 1:
                shapes += [(f"layers.{i}.w_node", (in_n + 2 * c, c)), (f"layers.{i}.b_node", (c,))]
            in_n = in_e = c
        out_in, out_size = c, CLASSES
    else:
        for tag, width in (("node", binding.num_buses * binding.node_feature_width),
                           ("edge", binding.num_branches * binding.edge_feature_width)):
            for i in range(config.num_layers):
                shapes += [(f"{tag}_layers.{i}.W", (width, c)), (f"{tag}_layers.{i}.b", (c,))]
                width = c
        out_in, out_size = 2 * c, binding.num_branches * CLASSES
    return shapes + [("dense.w_out", (out_in, out_size)), ("dense.b_out", (out_size,))]


def init_model(
    config: ModelConfig,
    node_feature_width: int,
    edge_feature_width: int,
    *,
    num_buses: int,
    num_branches: int,
    normalizer: Normalizer | None = None,
    kind: str = MODEL_KINDS[0],
) -> Model:
    """A `kind` model ("gnn" or the "mlp" baseline): Xavier-uniform weights and zero biases,
    drawn in parameter order from the config seed."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    binding = Binding(num_buses, num_branches, node_feature_width, edge_feature_width)
    gen = _generator(derive_seed(config.seed, 0))
    params = {name: _xavier(gen, *shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in _parameter_shapes(kind, config, binding)}
    normalizer = normalizer or _identity_normalizer(node_feature_width, edge_feature_width)
    return Model(kind, config, binding, normalizer, params)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _buffer(workspace, key, shape, dtype=float):
    """The workspace's array for `key` and `shape`, made on first use.

    The forward pass tests for a workspace before it calls this: single-sample
    inference, which passes none, would pay for the calls and their shape tuples.
    """
    array = workspace.get((key, shape))
    if array is None:
        array = workspace[key, shape] = np.empty(shape, dtype)
    return array


def _scatter_sum(values: np.ndarray, incidence: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(B*K, C) row-stacked edge values -> (B*N, C) node sums, given a (K, N) 0/1 incidence matrix.

    The sums are written into `out`, which may be a column block of a wider
    array: splitting its rows into (B, N) is a view, never a copy.  One
    sample is one GEMM of the transposed incidence with its rows, and a
    batch is one such matmul per item.  Every product is exact (a 0/1
    factor) and each bus's sum runs over the branch axis in the fixed branch
    order, from +0.0, so it equals a plain sum in branch order bit for bit,
    and relabeling buses permutes output rows without changing a single bit
    of any sum.
    """
    branches, buses = incidence.shape
    if values.shape[0] == branches:
        return np.matmul(incidence.T, values, out=out)
    batch = values.shape[0] // branches
    stacked = out.reshape(batch, buses, -1)
    return np.matmul(incidence.T, values.reshape(batch, branches, -1), out=stacked).reshape(batch * buses, -1)


def _stacked_ends(topology: GraphTopology, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Per branch of each of `batch` samples in turn: the rows of its from- and to-bus among (B*N, w) node rows."""
    if batch == 1:  # one sample's rows are its buses; a single-sample predict skips the index arithmetic
        return topology.edge_from, topology.edge_to
    offsets = np.arange(batch)[:, None] * topology.degree.size
    return (offsets + topology.edge_from).reshape(-1), (offsets + topology.edge_to).reshape(-1)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _dense(params, w, b, x, workspace=None, relu=True):
    """x (R, S) @ params[w] (S, C) + params[b] as one GEMM, through a relu unless `relu` is False.

    Returns the output and the cache `_dense_backward` reads: with a
    workspace, the (input, active mask) pair, the mask None without the
    relu, and the output and the mask are its arrays under w's name; without
    one, None.

    A row's bits depend on the GEMM's shape as well as the row's content:
    BLAS kernels block and order their sums by shape, so the same sample can
    get other last bits in a batch of another size.  Training therefore keeps
    the batch sizes fixed by the config, and validation runs as one batch.
    """
    out = None if workspace is None else _buffer(workspace, w, (x.shape[0], params[w].shape[1]))
    z = np.matmul(x, params[w], out=out)
    z += params[b]
    cache = None
    if workspace is not None:
        cache = x, (np.greater(z, 0.0, out=_buffer(workspace, w + " mask", z.shape, bool)) if relu else None)
    return (np.maximum(z, 0.0, out=z) if relu else z), cache


def _dense_backward(params, w, b, cache, d_out, grads, role, workspace, input_grad=True):
    """Store the gradients of params[w] and params[b] in `grads`; return the input gradient.

    A cache whose mask is None is a layer without the relu (the head).
    With input_grad False the input gradient is not computed and None is returned.
    The gradient of w and the backward arrays are the workspace's arrays:
    the pre-activation and input gradients under `role`, which layers
    of one role share, so each is overwritten by the next layer of its role.
    """
    x, mask = cache
    dz = d_out if mask is None else np.multiply(d_out, mask, out=_buffer(workspace, role + " dz", d_out.shape))
    grads[w] = np.matmul(x.T, dz, out=_buffer(workspace, w + " grad", params[w].shape))
    grads[b] = dz.sum(axis=0)
    if not input_grad:
        return None
    return np.matmul(dz, params[w].T, out=_buffer(workspace, role + " dx", (dz.shape[0], x.shape[1])))


def _layer_forward_batch(params, i, h, e, topology, ends, workspace=None):
    """Message-passing layer i on row-stacked (B*N, w) node and (B*K, w) edge rows, weights read from `params`.

    `ends` are the rows of each edge's from- and to-bus, as _stacked_ends
    gives them.  A layer without node weights (the last) returns None for
    the node embeddings and their cache.  The node stack is built in place:
    h is copied into its first block and each direction's message sums are
    written into their own block.  With a workspace, the caches are kept
    and the stacks and outputs are its arrays under the layer's names, since
    the backward pass reads them; without one, the caches are None.
    """
    p = f"layers.{i}."
    rows_from, rows_to = ends
    out = None if workspace is None else _buffer(
        workspace, p + "edge_stack", (rows_from.size, 2 * h.shape[1] + e.shape[1]))
    edge_stack = np.concatenate([h.take(rows_from, axis=0), h.take(rows_to, axis=0), e], axis=1, out=out)
    msg, edge_cache = _dense(params, p + "w_edge", p + "b_edge", edge_stack, workspace)
    if p + "w_node" not in params:
        return None, msg, (edge_cache, None)
    width, c = h.shape[1], msg.shape[1]
    shape = (h.shape[0], width + 2 * c)
    node_stack = np.empty(shape) if workspace is None else _buffer(workspace, p + "node_stack", shape)
    node_stack[:, :width] = h
    _scatter_sum(msg, topology.incidence_from, node_stack[:, width:width + c])
    _scatter_sum(msg, topology.incidence_to, node_stack[:, width + c:])
    h_next, node_cache = _dense(params, p + "w_node", p + "b_node", node_stack, workspace)
    return h_next, msg, (edge_cache, node_cache)


def _check_widths(model, node_features, edge_features):
    bind = model.binding
    for part, x, rows, width in (("node", node_features, bind.num_buses, bind.node_feature_width),
                                 ("edge", edge_features, bind.num_branches, bind.edge_feature_width)):
        if x.shape[-2:] != (rows, width):
            raise ValueError(f"{part} features {x.shape[-2:]} do not match model binding ({rows}, {width})")


def _forward(model, node_features, edge_features, topology, workspace=None):
    """Softmax rows (B, K, 2) for inputs (B, N, fn) / (B, K, fe), and the layer caches by name prefix.

    The layers run on row-stacked 2-D arrays.  The kind's encoder gives the
    top: the GNN's last edge embeddings, (B*K, width), or the MLP's node and
    edge stacks over flattened features, side by side, (B, 2 * width).  The
    shared head, cached under "dense.", maps it to the logits.  Only with a
    workspace are the caches built, and every layer, the head included,
    writes into its arrays; without one (inference), each layer's stacks are
    freed as the next one runs.
    """
    _check_widths(model, node_features, edge_features)
    h = model.normalizer.apply_node(node_features)
    e = model.normalizer.apply_edge(edge_features)
    batch = h.shape[0]
    params, caches = model.params, {}
    if model.kind == "gnn":
        h, e = h.reshape(-1, h.shape[2]), e.reshape(-1, e.shape[2])
        ends = _stacked_ends(topology, batch)
        for i in range(model.config.num_layers):
            h, e, caches[f"layers.{i}."] = _layer_forward_batch(params, i, h, e, topology, ends, workspace)
        top = e
    else:
        tops = []
        for tag, x in (("node", h), ("edge", e)):
            x = x.reshape(batch, -1)
            for i in range(model.config.num_layers):
                p = f"{tag}_layers.{i}."
                x, caches[p] = _dense(params, p + "W", p + "b", x, workspace)
            tops.append(x)
        top = np.concatenate(tops, axis=1)
    logits, caches["dense."] = _dense(params, "dense.w_out", "dense.b_out", top, workspace, relu=False)
    probs = _softmax(logits.reshape(batch, model.binding.num_branches, CLASSES))
    return probs, caches


def forward_any(model, node_features, edge_features, topology):
    """Batched forward for either model kind; inputs (B, N, fn) / (B, K, fe)."""
    return _forward(model, node_features, edge_features, topology)[0]


def _backward_batch(model: Model, node_features, edge_features, labels_one_hot, topology, workspace):
    """Exact gradients of the batch-mean MSE loss for every parameter, with the loss and probabilities.

    Arrays are (B, N, fn), (B, K, fe) and (B, K, 2) one-hot labels.  The
    forward caches, backward arrays and weight gradients are written into
    `workspace`, a dict of arrays keyed by (role, shape).  Calls that pass
    one dict reuse its arrays, so each call's gradients are overwritten by
    the next call's.
    """
    if node_features.size == 0:
        raise ValueError("empty batch")
    probs, caches = _forward(model, node_features, edge_features, topology, workspace)
    batch = probs.shape[0]
    loss = float(np.mean((probs - labels_one_hot) ** 2, axis=(1, 2)).mean())
    # d(mean MSE)/d(probs), then back through the per-row softmax
    dprobs = 2.0 * (probs - labels_one_hot) / (probs.shape[1] * probs.shape[2]) / batch
    dz = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))

    params, cfg, grads = model.params, model.config, {}
    d_top = _dense_backward(params, "dense.w_out", "dense.b_out", caches["dense."],
                            dz.reshape(-1, params["dense.b_out"].size), grads, "head", workspace)
    c = cfg.channels
    if model.kind == "mlp":
        for tag, d_x in (("node", d_top[:, :c]), ("edge", d_top[:, c:])):
            for i in range(cfg.num_layers - 1, -1, -1):
                p = f"{tag}_layers.{i}."
                d_x = _dense_backward(params, p + "W", p + "b", caches[p], d_x, grads, tag, workspace,
                                      input_grad=i > 0)
        return grads, loss, probs

    rows_from, rows_to = _stacked_ends(topology, batch)
    d_edge = d_top
    sums = (batch * model.binding.num_buses, c)
    for i in range(cfg.num_layers - 1, -1, -1):
        p = f"layers.{i}."
        edge_cache, node_cache = caches[p]
        in_n = model.binding.node_feature_width if i == 0 else c
        d_msg, d_h = d_edge, 0.0
        if node_cache is not None:  # every layer but the last updates the nodes
            d_node_stack = _dense_backward(params, p + "w_node", p + "b_node", node_cache, d_node, grads,
                                           "node", workspace)
            d_msg = np.add(d_msg, d_node_stack[rows_from, in_n:in_n + c],
                           out=_buffer(workspace, "d_msg", d_edge.shape))
            d_msg += d_node_stack[rows_to, in_n + c:]
            d_h = d_node_stack[:, :in_n]
        d_edge_stack = _dense_backward(params, p + "w_edge", p + "b_edge", edge_cache, d_msg, grads,
                                       "edge", workspace, input_grad=i > 0)
        if i == 0:
            break  # layer 0's input is the features, which take no gradient
        d_sum = _scatter_sum(d_edge_stack[:, :in_n], topology.incidence_from, _buffer(workspace, "d_sum", sums))
        d_node = np.add(d_h, d_sum, out=_buffer(workspace, "d_node", sums))
        d_node += _scatter_sum(d_edge_stack[:, in_n:2 * in_n], topology.incidence_to, d_sum)
        d_edge = d_edge_stack[:, 2 * in_n:]
    return grads, loss, probs


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


@dataclass
class TrainResult:
    best_model: object       # snapshot with the lowest validation loss
    history: TrainHistory


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults of Kingma and Ba (2015), fixed

    def __init__(self, params, learning_rate):
        self.lr = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}

    def step(self, params, grads):
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, p in params:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            # in place, in the textbook expression's order of operations
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            step = m / correct1
            step *= self.lr
            denom = v / correct2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step


def _count_correct(probs: np.ndarray, labels_one_hot: np.ndarray) -> int:
    """Branches classified correctly; a 0.5 tie counts as congested."""
    return int(np.count_nonzero((probs[..., 1] >= 0.5) == (labels_one_hot[..., 1] >= 0.5)))


def train(
    model,
    network: Network,
    train_split: list[Sample],
    val_split: list[Sample],
    threshold: float,
    epochs: int | None = None,
):
    """Adam mini-batch training against labels derived at `threshold`.

    Batch order reshuffles deterministically per epoch from the config seed.
    Validation loss and accuracy are measured on the full validation split
    after each epoch.  `model` is trained in place and ends at the final
    epoch; the result holds the best-validation-loss snapshot.  Training
    loss and accuracy are running means over the epoch's mini-batches, each
    batch measured by its own forward pass before its Adam step.  Raises on
    a non-finite loss, naming the epoch and batch.
    """
    if not train_split or not val_split:
        raise ValueError("train and validation splits must be non-empty")
    cfg = model.config
    epochs = cfg.epochs if epochs is None else epochs
    topology = to_graph(network)

    def one_hot(split):
        congested = np.stack([label_sample(s.flows_mw, network, threshold) for s in split]).astype(float)
        return np.stack([1.0 - congested, congested], axis=-1)

    xn_tr = np.stack([s.node_features for s in train_split])
    xe_tr = np.stack([s.edge_features for s in train_split])
    y_tr = one_hot(train_split)
    xn_va = np.stack([s.node_features for s in val_split])
    xe_va = np.stack([s.edge_features for s in val_split])
    y_va = one_hot(val_split)

    model.trained_threshold = threshold
    optimizer = _Adam(model.parameters(), cfg.learning_rate)
    history = TrainHistory()
    best_model = model.copy()
    best_val = np.inf

    n = len(train_split)
    workspace = {}  # the arrays each batch of an epoch writes into, reused by the next batch
    for epoch in range(epochs):
        order = _generator(derive_seed(cfg.seed, epoch + 1)).permutation(n)
        loss_sum, correct = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads, loss, probs = _backward_batch(model, xn_tr[idx], xe_tr[idx], y_tr[idx], topology, workspace)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            optimizer.step(model.parameters(), grads)
            loss_sum += loss * idx.size
            correct += _count_correct(probs, y_tr[idx])

        workspace.clear()  # validation's arrays take the space of the batches'
        probs_va = forward_any(model, xn_va, xe_va, topology)
        history.train_loss.append(loss_sum / n)
        history.val_loss.append(float(np.mean((probs_va - y_va) ** 2)))
        history.train_acc.append(correct / y_tr[..., 1].size)
        history.val_acc.append(_count_correct(probs_va, y_va) / y_va[..., 1].size)
        if history.val_loss[-1] < best_val:
            best_val = history.val_loss[-1]
            # copied in place: an allocation that outlives training, made amid an epoch's
            # freed arrays, would keep the heap from shrinking once training ends
            for name, p in model.params.items():
                np.copyto(best_model.params[name], p)

    return TrainResult(best_model=best_model, history=history)


def predict_congested(model, sample: Sample, topology: GraphTopology) -> frozenset[int]:
    """Branches whose congested-class probability reaches 0.5 (ties included)."""
    probs = forward_any(model, sample.node_features[None], sample.edge_features[None], topology)[0]
    return frozenset(np.flatnonzero(probs[:, 1] >= 0.5).tolist())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(model, path) -> None:
    """Write a format-4 model file: each parameter and normalizer array as base64 of its little-endian float64 bytes."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "trained_threshold": model.trained_threshold,
        "config": vars(model.config),
        "binding": vars(model.binding),
        "normalizer": {name: _encode_array(array) for name, array in vars(model.normalizer).items()},
        "params": {name: _encode_array(array) for name, array in model.params.items()},
    }
    # one dumps call: json.dump streams through the pure-Python encoder
    _write_atomic(path, [json.dumps(doc, sort_keys=True) + "\n"])


def load_model(path):
    """Read a model file, checking every array's name, size and values against its config and binding."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: corrupt model file: not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        hint = "; retrain it with train" if version in range(1, MODEL_FORMAT_VERSION) else ""
        raise ValueError(f"{path}: unsupported model format_version {version!r}{hint}")
    threshold = doc.get("trained_threshold")
    if threshold is not None and not _is_threshold(threshold):
        raise ValueError(f"{path}: trained_threshold must be null or a number in (0, 1], got {threshold!r}")
    try:
        kind = doc["kind"]
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        config = ModelConfig(**doc["config"])
        binding = Binding(**doc["binding"])
        params, stats = dict(doc["params"]), dict(doc["normalizer"])
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None
    widths = {"node": binding.node_feature_width, "edge": binding.edge_feature_width}
    stat_shapes = [(f"{part}_{stat}", (widths[part],)) for part in widths for stat in ("mean", "std")]
    arrays = {}
    for section, blobs, shapes, origin in (
            ("params", params, _parameter_shapes(kind, config, binding), "the config and binding"),
            ("normalizer", stats, stat_shapes, "the binding")):
        found, declared = set(blobs), {name for name, _ in shapes}
        if found != declared:
            raise ValueError(f"{path}: {section} arrays do not match {origin}: "
                             f"found {sorted(found - declared)}, expected {sorted(declared - found)}")
        arrays[section] = {name: _decode_array(blobs[name], shape, f"{path}: {section} {name}", origin)
                           for name, shape in shapes}
    normalizer = Normalizer(**arrays["normalizer"])
    for name in ("node_std", "edge_std"):
        if not (getattr(normalizer, name) > 0).all():
            raise ValueError(f"{path}: normalizer {name} has a std that is not positive")
    return Model(kind, config, binding, normalizer, arrays["params"], threshold)
