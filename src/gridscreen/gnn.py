"""Edge-classifying graph network, built directly on numpy.

Each message-passing layer co-updates node and edge embeddings: every branch
stacks its endpoint embeddings with its own and passes them through a dense
relu transform; every bus then stacks its embedding with the sums of the
transformed messages on its outgoing and incoming branches (kept separate,
following branch orientation).  A final dense layer turns the last edge
embeddings into two-class softmax rows per branch.

Training minimizes mean squared error between the softmax rows and one-hot
congestion labels with Adam; gradients are exact reverse-mode derivatives of
the forward pass, all in 64-bit floats.  A topology-blind MLP over flattened
features implements the same contract for baseline comparison.

All aggregation sums run in branch order, so a consistent relabeling of the
buses reproduces per-branch outputs bit for bit.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .netcase import GraphTopology, Network, to_graph
from .samplegen import Normalizer, Sample, derive_seed, label_sample

MODEL_FORMAT_VERSION = 1


@dataclass
class ModelConfig:
    num_layers: int = 4
    node_channels: int = 64
    edge_channels: int = 64
    activation: str = "relu"
    output_classes: int = 2
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 250
    batch_size: int = 32

    def __post_init__(self):
        for name in ("num_layers", "node_channels", "edge_channels", "seed", "epochs", "batch_size"):
            if getattr(self, name) < 0 or (name not in ("seed",) and getattr(self, name) == 0):
                raise ValueError(f"config field {name} must be positive, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.output_classes != 2:
            raise ValueError(f"output_classes must be 2, got {self.output_classes}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Binding:
    """Graph size and feature widths the model was initialized for."""

    num_buses: int
    num_branches: int
    node_feature_width: int
    edge_feature_width: int


@dataclass
class XenetLayer:
    w_edge: np.ndarray   # (2*in_node + in_edge, edge_channels)
    b_edge: np.ndarray
    w_node: np.ndarray   # (in_node + 2*edge_channels, node_channels)
    b_node: np.ndarray


@dataclass
class Model:
    config: ModelConfig
    binding: Binding
    normalizer: Normalizer
    layers: list[XenetLayer]
    w_out: np.ndarray    # (edge_channels, 2)
    b_out: np.ndarray
    trained_threshold: float | None = None

    kind = "gnn"

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            out += [
                (f"layers.{i}.w_edge", layer.w_edge),
                (f"layers.{i}.b_edge", layer.b_edge),
                (f"layers.{i}.w_node", layer.w_node),
                (f"layers.{i}.b_node", layer.b_node),
            ]
        out += [("dense.w_out", self.w_out), ("dense.b_out", self.b_out)]
        return out

    def copy(self) -> "Model":
        return copy.deepcopy(self)


@dataclass
class MlpModel:
    """Baseline: flattened node and edge features through separate dense stacks."""

    config: ModelConfig
    binding: Binding
    normalizer: Normalizer
    node_layers: list[tuple[np.ndarray, np.ndarray]]   # num_layers x (W, b)
    edge_layers: list[tuple[np.ndarray, np.ndarray]]
    w_out: np.ndarray    # (node_channels + edge_channels, num_branches * 2)
    b_out: np.ndarray
    trained_threshold: float | None = None

    kind = "mlp"

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for tag, stack in (("node", self.node_layers), ("edge", self.edge_layers)):
            for i, (w, b) in enumerate(stack):
                out += [(f"{tag}_layers.{i}.W", w), (f"{tag}_layers.{i}.b", b)]
        out += [("dense.w_out", self.w_out), ("dense.b_out", self.b_out)]
        return out

    def copy(self) -> "MlpModel":
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
    """Name and shape of every parameter of a `kind` model, in parameters() order."""
    c_n, c_e = config.node_channels, config.edge_channels
    shapes = []
    if kind == "gnn":
        in_n, in_e = binding.node_feature_width, binding.edge_feature_width
        for i in range(config.num_layers):
            shapes += [
                (f"layers.{i}.w_edge", (2 * in_n + in_e, c_e)), (f"layers.{i}.b_edge", (c_e,)),
                (f"layers.{i}.w_node", (in_n + 2 * c_e, c_n)), (f"layers.{i}.b_node", (c_n,)),
            ]
            in_n, in_e = c_n, c_e
        out_in, out_size = c_e, config.output_classes
    else:
        for tag, width, channels in (
            ("node", binding.num_buses * binding.node_feature_width, c_n),
            ("edge", binding.num_branches * binding.edge_feature_width, c_e),
        ):
            for i in range(config.num_layers):
                shapes += [(f"{tag}_layers.{i}.W", (width, channels)), (f"{tag}_layers.{i}.b", (channels,))]
                width = channels
        out_in, out_size = c_n + c_e, binding.num_branches * config.output_classes
    return shapes + [("dense.w_out", (out_in, out_size)), ("dense.b_out", (out_size,))]


def _assemble(kind, config, binding, normalizer, arrays, trained_threshold=None):
    """A `kind` model from its parameter arrays in parameters() order."""
    *body, w_out, b_out = arrays
    common = dict(config=config, binding=binding, normalizer=normalizer,
                  w_out=w_out, b_out=b_out, trained_threshold=trained_threshold)
    if kind == "gnn":
        return Model(layers=[XenetLayer(*body[i:i + 4]) for i in range(0, len(body), 4)], **common)
    pairs = list(zip(body[0::2], body[1::2]))
    half = len(pairs) // 2
    return MlpModel(node_layers=pairs[:half], edge_layers=pairs[half:], **common)


def _init(kind, config, node_feature_width, edge_feature_width, num_buses, num_branches, normalizer):
    """Xavier-uniform weights, zero biases, drawn in parameter order from the config seed."""
    binding = Binding(num_buses, num_branches, node_feature_width, edge_feature_width)
    gen = np.random.Generator(np.random.Philox(key=derive_seed(config.seed, 0)))
    arrays = [_xavier(gen, *shape) if len(shape) == 2 else np.zeros(shape)
              for _, shape in _parameter_shapes(kind, config, binding)]
    normalizer = normalizer or _identity_normalizer(node_feature_width, edge_feature_width)
    return _assemble(kind, config, binding, normalizer, arrays)


def init_model(
    config: ModelConfig,
    node_feature_width: int,
    edge_feature_width: int,
    *,
    num_buses: int,
    num_branches: int,
    normalizer: Normalizer | None = None,
) -> Model:
    """Xavier-uniform weights, zero biases, deterministic for a given seed."""
    return _init("gnn", config, node_feature_width, edge_feature_width, num_buses, num_branches, normalizer)


def init_mlp(
    config: ModelConfig,
    node_feature_width: int,
    edge_feature_width: int,
    *,
    num_buses: int,
    num_branches: int,
    normalizer: Normalizer | None = None,
) -> MlpModel:
    """The baseline with `config.num_layers` dense layers per stack; seeded like init_model."""
    return _init("mlp", config, node_feature_width, edge_feature_width, num_buses, num_branches, normalizer)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _incidence(index: np.ndarray, num_nodes: int) -> np.ndarray:
    inc = np.zeros((index.size, num_nodes))
    inc[np.arange(index.size), index] = 1.0
    return inc


def _scatter_sum(values: np.ndarray, index: np.ndarray, num_nodes: int) -> np.ndarray:
    """(B, K, C) edge values -> (B, N, C) node sums.

    Implemented as a matmul with a 0/1 incidence matrix: the contraction runs
    over the branch axis in a fixed order, so relabeling buses permutes output
    rows without changing a single bit of any sum.
    """
    return np.tensordot(values, _incidence(index, num_nodes), axes=([1], [0])).transpose(0, 2, 1)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _grad_weights(x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Weight gradient for y = x @ w: contract (B, R, S) with (B, R, C) to (S, C)."""
    return x.reshape(-1, x.shape[2]).T @ dz.reshape(-1, dz.shape[2])


def _backprop(dz: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient for y = x @ w: (B, R, C) @ w.T as one GEMM."""
    batch, rows, width = dz.shape
    return (dz.reshape(batch * rows, width) @ w.T).reshape(batch, rows, -1)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B, R, S) @ w (S, C) + b as one 2-D GEMM; row content fixes row bits."""
    batch, rows, width = x.shape
    return (x.reshape(batch * rows, width) @ w).reshape(batch, rows, -1) + b


def _layer_forward_batch(layer, h, e, topology, want_cache=False):
    ef, et = topology.edge_from, topology.edge_to
    nb = topology.degree.size
    edge_stack = np.concatenate([h[:, ef, :], h[:, et, :], e], axis=2)
    z_edge = _affine(edge_stack, layer.w_edge, layer.b_edge)
    msg = np.maximum(z_edge, 0.0)
    sum_out = _scatter_sum(msg, ef, nb)
    sum_in = _scatter_sum(msg, et, nb)
    node_stack = np.concatenate([h, sum_out, sum_in], axis=2)
    z_node = _affine(node_stack, layer.w_node, layer.b_node)
    h_next = np.maximum(z_node, 0.0)
    cache = (edge_stack, z_edge > 0, node_stack, z_node > 0) if want_cache else None
    return h_next, msg, cache


def _check_widths(model, node_features, edge_features):
    bind = model.binding
    if node_features.shape[-2:] != (bind.num_buses, bind.node_feature_width):
        raise ValueError(
            f"node features {node_features.shape[-2:]} do not match model binding "
            f"({bind.num_buses}, {bind.node_feature_width})"
        )
    if edge_features.shape[-2:] != (bind.num_branches, bind.edge_feature_width):
        raise ValueError(
            f"edge features {edge_features.shape[-2:]} do not match model binding "
            f"({bind.num_branches}, {bind.edge_feature_width})"
        )


def _forward_batch(model, node_features, edge_features, topology, want_cache=False):
    """Normalize, run all layers, softmax head.  Inputs (B, N, fn) / (B, K, fe)."""
    _check_widths(model, node_features, edge_features)
    h = model.normalizer.apply_node(node_features)
    e = model.normalizer.apply_edge(edge_features)
    caches = []
    for layer in model.layers:
        h_next, msg, cache = _layer_forward_batch(layer, h, e, topology, want_cache)
        if want_cache:
            caches.append(cache)
        h, e = h_next, msg
    logits = _affine(e, model.w_out, model.b_out)
    probs = _softmax(logits)
    if want_cache:
        return probs, (caches, e)
    return probs


def loss_mse(probs: np.ndarray, labels_one_hot: np.ndarray) -> float:
    """Mean over every (branch, class) entry of the squared probability error."""
    probs = np.asarray(probs, dtype=float)
    labels_one_hot = np.asarray(labels_one_hot, dtype=float)
    if probs.shape != labels_one_hot.shape:
        raise ValueError(f"shape mismatch {probs.shape} vs {labels_one_hot.shape}")
    return float(np.mean((probs - labels_one_hot) ** 2))


def _backward_batch(model: Model, node_features, edge_features, labels_one_hot, topology):
    """Exact gradients of the batch-mean MSE loss for every parameter."""
    probs, (caches, e_last) = _forward_batch(model, node_features, edge_features, topology, want_cache=True)
    batch = probs.shape[0]
    loss = float(np.mean((probs - labels_one_hot) ** 2, axis=(1, 2)).mean())

    # d(mean MSE)/d(probs), then back through the per-row softmax
    dprobs = 2.0 * (probs - labels_one_hot) / (probs.shape[1] * probs.shape[2]) / batch
    dz = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))

    grads: dict[str, np.ndarray] = {}
    grads["dense.w_out"] = _grad_weights(e_last, dz)
    grads["dense.b_out"] = dz.sum(axis=(0, 1))
    d_edge = _backprop(dz, model.w_out)
    d_node = np.zeros((batch, topology.degree.size, model.config.node_channels))

    ef, et = topology.edge_from, topology.edge_to
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        edge_stack, edge_mask, node_stack, node_mask = caches[i]
        in_n = node_stack.shape[2] - 2 * layer.w_edge.shape[1]

        dz_node = d_node * node_mask
        grads[f"layers.{i}.w_node"] = _grad_weights(node_stack, dz_node)
        grads[f"layers.{i}.b_node"] = dz_node.sum(axis=(0, 1))
        d_node_stack = _backprop(dz_node, layer.w_node)
        c_e = layer.w_edge.shape[1]
        d_h = d_node_stack[:, :, :in_n]
        d_sum_out = d_node_stack[:, :, in_n:in_n + c_e]
        d_sum_in = d_node_stack[:, :, in_n + c_e:]

        d_msg = d_edge + d_sum_out[:, ef, :] + d_sum_in[:, et, :]
        dz_edge = d_msg * edge_mask
        grads[f"layers.{i}.w_edge"] = _grad_weights(edge_stack, dz_edge)
        grads[f"layers.{i}.b_edge"] = dz_edge.sum(axis=(0, 1))
        d_edge_stack = _backprop(dz_edge, layer.w_edge)

        d_h = d_h + _scatter_sum(d_edge_stack[:, :, :in_n], ef, topology.degree.size)
        d_h = d_h + _scatter_sum(d_edge_stack[:, :, in_n:2 * in_n], et, topology.degree.size)
        d_node = d_h
        d_edge = d_edge_stack[:, :, 2 * in_n:]
    return grads, loss


# --- MLP baseline ---------------------------------------------------------


def _mlp_forward_batch(model: MlpModel, node_features, edge_features, want_cache=False):
    _check_widths(model, node_features, edge_features)
    batch = node_features.shape[0]
    xn = model.normalizer.apply_node(node_features).reshape(batch, -1)
    xe = model.normalizer.apply_edge(edge_features).reshape(batch, -1)
    cache_n, cache_e = [], []
    for w, b in model.node_layers:
        z = xn @ w + b
        cache_n.append((xn, z > 0))
        xn = np.maximum(z, 0.0)
    for w, b in model.edge_layers:
        z = xe @ w + b
        cache_e.append((xe, z > 0))
        xe = np.maximum(z, 0.0)
    joint = np.concatenate([xn, xe], axis=1)
    logits = (joint @ model.w_out + model.b_out).reshape(
        batch, model.binding.num_branches, model.config.output_classes
    )
    probs = _softmax(logits)
    if want_cache:
        return probs, (cache_n, cache_e, joint)
    return probs


def _mlp_backward_batch(model: MlpModel, node_features, edge_features, labels_one_hot):
    probs, (cache_n, cache_e, joint) = _mlp_forward_batch(
        model, node_features, edge_features, want_cache=True
    )
    batch = probs.shape[0]
    loss = float(np.mean((probs - labels_one_hot) ** 2, axis=(1, 2)).mean())
    dprobs = 2.0 * (probs - labels_one_hot) / (probs.shape[1] * probs.shape[2]) / batch
    dz = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dflat = dz.reshape(batch, -1)

    grads: dict[str, np.ndarray] = {}
    grads["dense.w_out"] = joint.T @ dflat
    grads["dense.b_out"] = dflat.sum(axis=0)
    d_joint = dflat @ model.w_out.T
    nch = model.config.node_channels
    d_xn, d_xe = d_joint[:, :nch], d_joint[:, nch:]

    for tag, stack, caches, d_x in (
        ("node", model.node_layers, cache_n, d_xn),
        ("edge", model.edge_layers, cache_e, d_xe),
    ):
        for i in range(len(stack) - 1, -1, -1):
            w, _ = stack[i]
            x_in, mask = caches[i]
            dz_i = d_x * mask
            grads[f"{tag}_layers.{i}.W"] = x_in.T @ dz_i
            grads[f"{tag}_layers.{i}.b"] = dz_i.sum(axis=0)
            d_x = dz_i @ w.T
    return grads, loss


def forward_any(model, node_features, edge_features, topology):
    """Batched forward for either model kind; inputs (B, N, fn) / (B, K, fe)."""
    if model.kind == "gnn":
        return _forward_batch(model, node_features, edge_features, topology)
    return _mlp_forward_batch(model, node_features, edge_features)


def _backward_any(model, node_features, edge_features, labels, topology):
    """Gradients and loss for a batch; arrays are (B, N, fn), (B, K, fe), (B, K, 2)."""
    if node_features.size == 0:
        raise ValueError("empty batch")
    if model.kind == "gnn":
        return _backward_batch(model, node_features, edge_features, labels, topology)
    return _mlp_backward_batch(model, node_features, edge_features, labels)


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
    model: object            # parameters after the final epoch
    best_model: object       # snapshot with the lowest validation loss
    history: TrainHistory


class _Adam:
    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}

    def step(self, params, grads):
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, p in params:
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            p -= self.lr * (self.m[name] / correct1) / (np.sqrt(self.v[name] / correct2) + self.eps)


def edge_accuracy(probs: np.ndarray, labels_one_hot: np.ndarray) -> float:
    """Fraction of branches classified correctly; a 0.5 tie counts as congested."""
    pred = probs[..., 1] >= 0.5
    truth = labels_one_hot[..., 1] >= 0.5
    return float((pred == truth).mean())


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
    Loss and accuracy are measured on the full splits after each epoch, and
    the best-validation-loss parameter snapshot is kept alongside the final
    model.  Raises on a non-finite loss, naming the epoch and batch.
    """
    if not train_split or not val_split:
        raise ValueError("train and validation splits must be non-empty")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
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
    for epoch in range(epochs):
        order = np.random.Generator(
            np.random.Philox(key=derive_seed(cfg.seed, epoch + 1))
        ).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads, loss = _backward_any(model, xn_tr[idx], xe_tr[idx], y_tr[idx], topology)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            optimizer.step(model.parameters(), grads)

        probs_tr = forward_any(model, xn_tr, xe_tr, topology)
        probs_va = forward_any(model, xn_va, xe_va, topology)
        history.train_loss.append(loss_mse(probs_tr, y_tr))
        history.val_loss.append(loss_mse(probs_va, y_va))
        history.train_acc.append(edge_accuracy(probs_tr, y_tr))
        history.val_acc.append(edge_accuracy(probs_va, y_va))
        if history.val_loss[-1] < best_val:
            best_val = history.val_loss[-1]
            best_model = model.copy()

    return TrainResult(model=model, best_model=best_model, history=history)


def predict_congested(model, sample: Sample, topology: GraphTopology) -> frozenset[int]:
    """Branches whose congested-class probability reaches 0.5 (ties included)."""
    probs = forward_any(model, sample.node_features[None], sample.edge_features[None], topology)[0]
    return frozenset(int(k) for k in np.flatnonzero(probs[:, 1] >= 0.5))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(model, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "trained_threshold": model.trained_threshold,
        "config": model.config.to_dict(),
        "binding": dict(model.binding.__dict__),
        "normalizer": model.normalizer.to_dict(),
    }
    if model.kind == "gnn":
        doc["layers"] = [
            {
                "W_edge": layer.w_edge.tolist(), "b_edge": layer.b_edge.tolist(),
                "W_node": layer.w_node.tolist(), "b_node": layer.b_node.tolist(),
            }
            for layer in model.layers
        ]
    else:
        doc["node_layers"] = [{"W": w.tolist(), "b": b.tolist()} for w, b in model.node_layers]
        doc["edge_layers"] = [{"W": w.tolist(), "b": b.tolist()} for w, b in model.edge_layers]
    doc["dense"] = {"W_out": model.w_out.tolist(), "b_out": model.b_out.tolist()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Read a model file; its keys and every array shape are checked against its binding."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: corrupt model file: not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version {version!r}")
    kind = doc.get("kind", "gnn")
    if kind not in ("gnn", "mlp"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        config = ModelConfig(**doc["config"])
        binding = Binding(**doc["binding"])
        normalizer = Normalizer.from_dict(doc["normalizer"])
        if kind == "gnn":
            named = [(f"layers.{i}.{key.lower()}", ld[key]) for i, ld in enumerate(doc["layers"])
                     for key in ("W_edge", "b_edge", "W_node", "b_node")]
        else:
            named = [(f"{tag}_layers.{i}.{key}", ld[key]) for tag in ("node", "edge")
                     for i, ld in enumerate(doc[f"{tag}_layers"]) for key in ("W", "b")]
        named += [("dense.w_out", doc["dense"]["W_out"]), ("dense.b_out", doc["dense"]["b_out"])]
        arrays = [np.asarray(value, dtype=float) for _, value in named]
        expected = _parameter_shapes(kind, config, binding)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None
    found = [(name, a.shape) for (name, _), a in zip(named, arrays)]
    for stat, width in (("node", binding.node_feature_width), ("edge", binding.edge_feature_width)):
        for part in ("mean", "std"):
            found.append((f"normalizer.{stat}_{part}", getattr(normalizer, f"{stat}_{part}").shape))
            expected.append((f"normalizer.{stat}_{part}", (width,)))
    if found != expected:
        wrong = sorted(set(found) - set(expected))
        missing = sorted(set(expected) - set(found))
        raise ValueError(f"{path}: arrays do not match the binding and config: "
                         f"found {wrong}, expected {missing}")
    return _assemble(kind, config, binding, normalizer, arrays, doc.get("trained_threshold"))
