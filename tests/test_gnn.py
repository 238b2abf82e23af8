import base64
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from gridscreen import (
    ModelConfig,
    fit_normalizer,
    init_model,
    label_sample,
    load_model,
    predict_congested,
    save_model,
    split_dataset,
    to_graph,
    train,
)
import gridscreen.gnn as gnn_module
from gridscreen.gnn import _backward_batch, _layer_forward_batch, forward_any
from gridscreen.netcase import GraphTopology

SMALL = dict(num_layers=2, channels=8)


def _zero(model):
    for _, p in model.parameters():
        p[...] = 0.0
    return model


def _blob(array):
    """A model file's encoding of one parameter array."""
    return base64.b64encode(np.asarray(array, "<f8").tobytes()).decode("ascii")


def _unblob(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def _path_topology(n_nodes):
    ef = np.arange(n_nodes - 1)
    et = np.arange(1, n_nodes)
    deg = np.bincount(ef, minlength=n_nodes) + np.bincount(et, minlength=n_nodes)
    return GraphTopology(degree=deg, edge_from=ef, edge_to=et)


def _permuted(topology, perm):
    inv = np.argsort(perm)
    return GraphTopology(
        degree=topology.degree[perm],
        edge_from=inv[topology.edge_from],
        edge_to=inv[topology.edge_to],
    )


# --- config and initialization ---------------------------------------------


def test_config_defaults():
    cfg = ModelConfig()
    assert (cfg.num_layers, cfg.channels) == (4, 64)
    assert (cfg.learning_rate, cfg.epochs, cfg.batch_size) == (1e-3, 250, 32)


@pytest.mark.parametrize("bad", [
    dict(num_layers=0), dict(learning_rate=0.0), dict(channels=0),
    dict(channels=2.5), dict(batch_size=-1),
    dict(num_layers=True), dict(epochs=2.5), dict(learning_rate=True),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        ModelConfig(**bad)


def test_last_gnn_layer_is_edge_only():
    # the head reads only the last edge embeddings, so the last layer has no node update
    for num_layers in (1, 3):
        names = init_model(ModelConfig(num_layers=num_layers, channels=8), 7, 2,
                           num_buses=3, num_branches=3).params
        last = f"layers.{num_layers - 1}."
        assert last + "w_edge" in names and last + "b_edge" in names
        assert last + "w_node" not in names and last + "b_node" not in names
        assert all(f"layers.{i}.w_node" in names for i in range(num_layers - 1))
    model = init_model(ModelConfig(), 7, 2, num_buses=14, num_branches=20)
    assert sum(p.size for p in model.params.values()) == 71_682


def test_init_deterministic():
    cfg = ModelConfig(**SMALL, seed=5)
    a = init_model(cfg, 7, 2, num_buses=3, num_branches=3)
    b = init_model(cfg, 7, 2, num_buses=3, num_branches=3)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(pa, pb)


def test_init_biases_zero_weights_bounded():
    model = init_model(ModelConfig(**SMALL, seed=1), 7, 2, num_buses=3, num_branches=3)
    for name, p in model.parameters():
        if ".b" in name:
            assert np.all(p == 0.0)
        else:
            bound = np.sqrt(6.0 / (p.shape[0] + p.shape[1]))
            assert np.abs(p).max() <= bound
            assert np.abs(p).max() > 0


def test_init_seed_changes_weights():
    a = init_model(ModelConfig(**SMALL, seed=1), 7, 2, num_buses=3, num_branches=3)
    b = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3)
    assert not np.array_equal(a.params["layers.0.w_edge"], b.params["layers.0.w_edge"])


def test_init_model_rejects_unknown_kind_and_bad_binding():
    with pytest.raises(ValueError, match="kind"):
        init_model(ModelConfig(**SMALL), 7, 2, num_buses=3, num_branches=3, kind="cnn")
    for bad in (dict(num_buses=True), dict(num_buses=3.0), dict(num_branches=0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            init_model(ModelConfig(**SMALL), 7, 2, **{"num_buses": 3, "num_branches": 3, **bad})


# --- layer and model forward ------------------------------------------------


def test_layer_zero_params_zero_outputs(tri3):
    topo = to_graph(tri3)
    model = _zero(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3))
    h, e, _ = _layer_forward_batch(model.params, 0, np.random.default_rng(0).normal(size=(3, 7)),
                                   np.ones((3, 2)), topo, (topo.edge_from, topo.edge_to))
    assert np.all(h == 0.0) and np.all(e == 0.0)


def test_layer_isolated_node_uses_self_only():
    # 3 nodes but only one edge 0-1; node 2 is isolated
    topo = GraphTopology(
        degree=np.array([1, 1, 0]),
        edge_from=np.array([0]),
        edge_to=np.array([1]),
    )
    model = init_model(ModelConfig(**SMALL, seed=3), 4, 2, num_buses=3, num_branches=1)
    params = model.params
    rng = np.random.default_rng(1)
    h = rng.normal(size=(3, 4))
    e = rng.normal(size=(1, 2))
    ends = (topo.edge_from, topo.edge_to)  # one sample's rows are the buses themselves
    h1 = _layer_forward_batch(params, 0, h, e, topo, ends)[0]
    h2 = _layer_forward_batch(params, 0, np.vstack([h[:2], h[2] * 0 + 99.0]), e, topo, ends)[0]
    # only the isolated node's own row reacts to its feature change
    assert np.array_equal(h1[:2], h2[:2])
    assert not np.array_equal(h1[2], h2[2])
    # and its message sums are empty: update equals stacking zeros
    stacked = np.concatenate([h[2], np.zeros(8), np.zeros(8)])
    expect = np.maximum(stacked @ params["layers.0.w_node"] + params["layers.0.b_node"], 0.0)
    assert h1[2] == pytest.approx(expect, abs=1e-12)


def test_zero_model_outputs_half(tri3):
    topo = to_graph(tri3)
    model = _zero(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3))
    probs = forward_any(model, np.ones((3, 7))[None], np.ones((3, 2))[None], topo)[0]
    assert np.all(probs == 0.5)


def test_rows_sum_to_one(tri3):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=8), 7, 2, num_buses=3, num_branches=3)
    rng = np.random.default_rng(2)
    probs = forward_any(model, rng.normal(size=(3, 7))[None], rng.normal(size=(3, 2))[None], topo)[0]
    assert probs.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)
    assert np.all((probs >= 0) & (probs <= 1))


def test_forward_width_mismatch(tri3):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3)
    with pytest.raises(ValueError, match="binding"):
        forward_any(model, np.ones((3, 6))[None], np.ones((3, 2))[None], topo)
    with pytest.raises(ValueError, match="binding"):
        forward_any(model, np.ones((4, 7))[None], np.ones((3, 2))[None], topo)


def test_permutation_equivariance_exact(case14):
    topo = to_graph(case14)
    model = init_model(ModelConfig(seed=5), 7, 2, num_buses=14, num_branches=20)
    rng = np.random.default_rng(99)
    xn = rng.normal(size=(14, 7))
    xe = rng.normal(size=(20, 2))
    base = forward_any(model, xn[None], xe[None], topo)[0]
    for _ in range(20):
        perm = rng.permutation(14)
        out = forward_any(model, xn[perm][None], xe[None], _permuted(topo, perm))[0]
        assert np.array_equal(out, base)


def _branch_order_sum(values, incidence):
    """Each bus's sum of its branches' values as plain float additions in branch order, from +0.0."""
    out = np.zeros((values.shape[0], incidence.shape[1], values.shape[2]))
    for b in range(values.shape[0]):
        for n in range(incidence.shape[1]):
            total = np.zeros(values.shape[2])
            for k in np.flatnonzero(incidence[:, n]):
                total = total + values[b, k]
            out[b, n] = total
    return out


@pytest.mark.parametrize("batch", [1, 32], ids=["inference", "training"])
def test_scatter_sum_is_branch_order_sum(case14, batch):
    topo = to_graph(case14)
    n, k = case14.num_buses, case14.num_branches
    rng = np.random.default_rng(batch)
    # strided slices of row-stacked (B*K, C) values, as the backward pass scatters part of the edge-stack gradient
    wide = rng.normal(size=(batch * k, 3 * 64))
    signed_zeros = np.where(rng.random(wide.shape) < 0.3, -0.0, wide)
    all_negative_zero = np.full((batch * k, 64), -0.0)
    for values in (wide[:, :64], wide[:, 64:128], signed_zeros[:, 5:69], all_negative_zero):
        for incidence in (topo.incidence_from, topo.incidence_to):
            want = _branch_order_sum(values.reshape(batch, k, -1), incidence).reshape(batch * n, -1)
            got = gnn_module._scatter_sum(values, incidence)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # written into a column block of a wider array, as the node stack is built: a
            # copy of that block would leave it NaN
            stack = np.full((batch * n, 7 + 2 * 64), np.nan)
            gnn_module._scatter_sum(values, incidence, stack[:, 7:7 + 64])
            assert stack[:, 7:7 + 64].tobytes() == want.tobytes()
            assert np.isnan(stack[:, :7]).all() and np.isnan(stack[:, 7 + 64:]).all()


def _batch_axis_forward(model, xn, xe, topo):
    """Softmax rows with a batch axis on every array: (B, N, w) nodes, (B, K, w) edges, (B, 1, w) MLP towers.

    Each GEMM takes the same (B*R, S) rows and weights as the row-stacked
    forward, and each bus sum is one matmul per batch item, so the two
    forwards must agree bit for bit at every batch size.
    """
    p = model.params

    def dense(x, w, b, relu=True):
        z = (x.reshape(-1, x.shape[2]) @ p[w] + p[b]).reshape(x.shape[0], x.shape[1], -1)
        return np.maximum(z, 0.0) if relu else z

    h, e = model.normalizer.apply_node(xn), model.normalizer.apply_edge(xe)
    if model.kind == "gnn":
        for i in range(model.config.num_layers):
            msg = dense(np.concatenate([h[:, topo.edge_from], h[:, topo.edge_to], e], axis=2),
                        f"layers.{i}.w_edge", f"layers.{i}.b_edge")
            if f"layers.{i}.w_node" in p:
                sums = [np.matmul(incidence.T, msg) for incidence in (topo.incidence_from, topo.incidence_to)]
                h = dense(np.concatenate([h, *sums], axis=2), f"layers.{i}.w_node", f"layers.{i}.b_node")
            e = msg
        top = e
    else:
        towers = []
        for tag, x in (("node", h), ("edge", e)):
            x = x.reshape(x.shape[0], 1, -1)
            for i in range(model.config.num_layers):
                x = dense(x, f"{tag}_layers.{i}.W", f"{tag}_layers.{i}.b")
            towers.append(x)
        top = np.concatenate(towers, axis=2)
    logits = dense(top, "dense.w_out", "dense.b_out", relu=False).reshape(len(xn), -1, 2)
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("kind", ["gnn", "mlp"])
@pytest.mark.parametrize("case", ["tri3", "case14"])
def test_single_sample_inference_has_the_batch_axis_bits(request, case, kind):
    """The row-stacked forward has the bits of a forward that carries the batch axis, alone and in a batch of 8.

    A sample's row in a batch of 8 need not have its single-sample bits:
    BLAS blocks a GEMM by its shape, and a one-row MLP GEMM is a gemv.
    """
    network = request.getfixturevalue(case)
    samples = request.getfixturevalue(f"{case}_dataset").samples[:8]
    topo = to_graph(network)
    model = init_model(ModelConfig(seed=5), 7, 2, num_buses=network.num_buses, num_branches=network.num_branches,
                       normalizer=fit_normalizer(samples), kind=kind)
    xn = np.stack([s.node_features for s in samples])
    xe = np.stack([s.edge_features for s in samples])
    assert forward_any(model, xn, xe, topo).tobytes() == _batch_axis_forward(model, xn, xe, topo).tobytes()
    for i, sample in enumerate(samples):
        single = _batch_axis_forward(model, xn[i:i + 1], xe[i:i + 1], topo)
        assert forward_any(model, xn[i:i + 1], xe[i:i + 1], topo).tobytes() == single.tobytes()
        expected = frozenset(int(k) for k in np.flatnonzero(single[0, :, 1] >= 0.5))
        assert predict_congested(model, sample, topo) == expected


def test_mlp_zero_model_outputs_half(tri3):
    model = _zero(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3, kind="mlp"))
    probs = forward_any(model, np.ones((3, 7))[None], np.ones((3, 2))[None], None)[0]
    assert np.all(probs == 0.5)


def test_mlp_not_equivariant(case14):
    model = init_model(ModelConfig(seed=5), 7, 2, num_buses=14, num_branches=20, kind="mlp")
    rng = np.random.default_rng(99)
    xn = rng.normal(size=(14, 7))
    xe = rng.normal(size=(20, 2))
    base = forward_any(model, xn[None], xe[None], None)[0]
    assert any(
        not np.array_equal(forward_any(model, xn[rng.permutation(14)][None], xe[None], None)[0], base)
        for _ in range(20)
    )


def test_receptive_field_node_perturbation():
    """A node change cannot reach edges more than num_layers hops away."""
    n = 10
    topo = _path_topology(n)
    model = init_model(ModelConfig(num_layers=2, channels=8, seed=4), 3, 2, num_buses=n, num_branches=n - 1)
    rng = np.random.default_rng(5)
    xn = rng.normal(size=(n, 3))
    xe = rng.normal(size=(n - 1, 2))
    base = forward_any(model, xn[None], xe[None], topo)[0]
    xn2 = xn.copy()
    xn2[0] += 1.0
    out = forward_any(model, xn2[None], xe[None], topo)[0]
    changed = np.flatnonzero(np.any(out != base, axis=1))
    # edge k touches nodes {k, k+1}; reachable within L=2 layers: dist(nearer endpoint) <= 1
    assert set(changed) <= {0, 1}
    assert 0 in changed
    assert np.array_equal(out[2:], base[2:])


def test_receptive_field_edge_rating_perturbation():
    n = 10
    topo = _path_topology(n)
    model = init_model(ModelConfig(num_layers=2, channels=8, seed=4), 3, 2, num_buses=n, num_branches=n - 1)
    rng = np.random.default_rng(6)
    xn = rng.normal(size=(n, 3))
    xe = rng.normal(size=(n - 1, 2))
    base = forward_any(model, xn[None], xe[None], topo)[0]
    xe2 = xe.copy()
    xe2[0, 1] *= 2.0
    out = forward_any(model, xn[None], xe2[None], topo)[0]
    changed = np.flatnonzero(np.any(out != base, axis=1))
    assert set(changed) <= {0, 1, 2}
    assert 0 in changed
    assert np.array_equal(out[3:], base[3:])


# --- loss and gradients ------------------------------------------------------


def _fd_worst(model, xn, xe, y, topo, n_draws, seed=17, h=1e-5):
    grads, _, _ = _backward_batch(model, xn, xe, y, topo)

    def loss_at():
        probs = forward_any(model, xn, xe, topo)
        return float(np.mean((probs - y) ** 2, axis=(1, 2)).mean())

    params = dict(model.parameters())
    names = list(params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        name = names[rng.integers(len(names))]
        p = params[name]
        idx = np.unravel_index(rng.integers(p.size), p.shape)
        orig = p[idx]
        p[idx] = orig + h
        up = loss_at()
        p[idx] = orig - h
        down = loss_at()
        p[idx] = orig
        fd = (up - down) / (2 * h)
        an = grads[name][idx]
        scale = max(abs(fd), abs(an))
        if scale > 1e-6:
            worst = max(worst, abs(fd - an) / scale)
        else:
            assert abs(fd - an) <= 1e-10
    return worst


@pytest.mark.parametrize("kind", ["gnn", "mlp"])
@pytest.mark.parametrize("channels", [8, 5], ids=["8x8", "5x5"])
@pytest.mark.parametrize("num_layers", [1, 3], ids=["1layer", "3layers"])
def test_gradients_match_finite_differences(case14, kind, channels, num_layers):
    # case14 has more branches than buses; a 1-layer GNN is edge-only, and 3 layers put two node
    # updates behind it, whose stacks mix the 7-wide input, the channel width and the message sums
    topo = to_graph(case14)
    cfg = ModelConfig(num_layers=num_layers, channels=channels, seed=12)
    model = init_model(cfg, 7, 2, num_buses=14, num_branches=20, kind=kind)
    rng = np.random.default_rng(3)
    # with zero biases, a row whose layer input is all zero sits exactly on the relu kink,
    # where the subgradient (0) and a central difference (half the slope) disagree
    for _, p in model.parameters():
        if p.ndim == 1:
            p[...] = rng.uniform(-0.1, 0.1, p.shape)
    xn = rng.normal(size=(4, 14, 7))
    xe = rng.normal(size=(4, 20, 2))
    lab = rng.integers(0, 2, (4, 20)).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    assert _fd_worst(model, xn, xe, y, topo, 400) <= 1e-4


def test_gradient_zero_at_exact_fit(tri3):
    # labels set to the model's own output: the MSE minimum, gradient exactly zero
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=9), 7, 2, num_buses=3, num_branches=3)
    rng = np.random.default_rng(4)
    xn = rng.normal(size=(2, 3, 7))
    xe = rng.normal(size=(2, 3, 2))
    y = forward_any(model, xn, xe, topo)
    grads, loss, _ = _backward_batch(model, xn, xe, y, topo)
    assert loss == 0.0
    assert max(np.abs(g).max() for g in grads.values()) <= 1e-6


def test_gradient_paths_wiring(tri3):
    # zeroing the head cuts every layer off from the loss; only the head sees gradient
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=9), 7, 2, num_buses=3, num_branches=3)
    model.params["dense.w_out"][...] = 0.0
    rng = np.random.default_rng(4)
    xn = rng.normal(size=(2, 3, 7))
    xe = rng.normal(size=(2, 3, 2))
    lab = rng.integers(0, 2, (2, 3)).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    grads, _, _ = _backward_batch(model, xn, xe, y, topo)
    assert np.abs(grads["dense.w_out"]).max() > 0
    for name, g in grads.items():
        if name.startswith("layers."):
            assert np.all(g == 0.0), name


@pytest.mark.parametrize("kind", ["gnn", "mlp"])
def test_backward_empty_batch_error(tri3, kind):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=9), 7, 2, num_buses=3, num_branches=3, kind=kind)
    with pytest.raises(ValueError, match="empty batch"):
        _backward_batch(model, np.zeros((0, 3, 7)), np.zeros((0, 3, 2)), np.zeros((0, 3, 2)), topo)


# --- the training workspace --------------------------------------------------


def _random_batch(rng, size, network):
    xn = rng.normal(size=(size, network.num_buses, 7))
    xe = rng.normal(size=(size, network.num_branches, 2))
    lab = rng.integers(0, 2, (size, network.num_branches)).astype(float)
    return xn, xe, np.stack([1 - lab, lab], axis=-1)


@pytest.mark.parametrize("case, kind, sizes", [
    ("tri3", "gnn", [5, 5, 5]),  # as many buses as branches: edge and node arrays of one shape
    ("case14", "gnn", [32, 32, 8]),  # full batches, then a partial one
    ("case14", "mlp", [32, 32, 8]),
])
def test_backward_with_a_reused_workspace_matches_fresh_calls(request, case, kind, sizes):
    network = request.getfixturevalue(case)
    topo = to_graph(network)
    model = init_model(ModelConfig(num_layers=3, channels=8, seed=5), 7, 2, num_buses=network.num_buses,
                       num_branches=network.num_branches, kind=kind)
    rng = np.random.default_rng(8)
    workspace = {}
    for size in sizes:
        batch = _random_batch(rng, size, network)
        fresh_grads, fresh_loss, fresh_probs = _backward_batch(model, *batch, topo)
        grads, loss, probs = _backward_batch(model, *batch, topo, workspace)
        assert loss == fresh_loss
        assert probs.tobytes() == fresh_probs.tobytes()
        assert list(grads) == list(fresh_grads)
        for name, g in grads.items():
            assert g.tobytes() == fresh_grads[name].tobytes(), name
        for name, p in model.parameters():  # a step, so each batch meets other weights
            p -= 0.5 * grads[name]


def test_backward_reuses_its_workspace(case14):
    # numpy reports its array memory to tracemalloc, so the traced peak is the
    # memory a call allocates, whatever the machine
    topo = to_graph(case14)
    model = init_model(ModelConfig(seed=5), 7, 2, num_buses=14, num_branches=20)
    batch = _random_batch(np.random.default_rng(9), 32, case14)
    workspace = {}

    def traced_peak():
        tracemalloc.start()
        try:
            _backward_batch(model, *batch, topo, workspace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fresh = traced_peak()  # fills the workspace
    assert traced_peak() < fresh / 3


def test_adam_step_is_the_textbook_expression():
    rng = np.random.default_rng(11)
    params = [("w", rng.normal(size=(4, 3))), ("b", rng.normal(size=3))]
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    optimizer = gnn_module._Adam(params, lr)
    expected = {name: p.copy() for name, p in params}
    m = {name: np.zeros_like(p) for name, p in params}
    v = {name: np.zeros_like(p) for name, p in params}
    for t in range(1, 6):
        grads = {name: rng.normal(size=p.shape) for name, p in params}
        optimizer.step(params, grads)
        for name, g in grads.items():
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            expected[name] = expected[name] - lr * (m[name] / (1 - beta1 ** t)) / (
                np.sqrt(v[name] / (1 - beta2 ** t)) + eps)
        for name, p in params:
            assert p.tobytes() == expected[name].tobytes(), (t, name)
            assert optimizer.m[name].tobytes() == m[name].tobytes()
            assert optimizer.v[name].tobytes() == v[name].tobytes()


# --- training ----------------------------------------------------------------


def test_train_zero_epochs_identity(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    before = [p.copy() for _, p in model.parameters()]
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=0)
    assert len(result.history) == 0
    for (_, p), b in zip(model.parameters(), before):
        assert np.array_equal(p, b)


def test_train_tri3_converges(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=50)
    assert result.history.train_acc[-1] >= 0.99
    assert len(result.history) == 50


def test_train_loss_decreases(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=10)
    assert result.history.train_loss[9] < result.history.train_loss[0]


def test_train_deterministic(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)

    def run():
        model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                           normalizer=fit_normalizer(train_split))
        return model, train(model, tri3, train_split, val_split, threshold=0.95, epochs=5)

    (model_a, a), (model_b, b) = run(), run()
    assert a.history.train_loss == b.history.train_loss
    for (_, pa), (_, pb) in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa, pb)


def test_train_best_snapshot_tracks_val(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=20)
    xn = np.stack([s.node_features for s in val_split])
    xe = np.stack([s.edge_features for s in val_split])
    lab = np.stack([label_sample(s.flows_mw, tri3, 0.95) for s in val_split]).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    topo = to_graph(tri3)
    best_loss = float(np.mean((forward_any(result.best_model, xn, xe, topo) - y) ** 2))
    assert best_loss == pytest.approx(min(result.history.val_loss), abs=1e-12)


def test_train_history_is_running_batch_mean(tri3, tri3_dataset, monkeypatch):
    # 400 training samples in batches of 32: twelve full batches and one of 16
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    batches = []

    def recording(model, xn, xe, labels, topology, workspace):
        grads, loss, probs = _backward_batch(model, xn, xe, labels, topology, workspace)
        correct = int(((probs[..., 1] >= 0.5) == (labels[..., 1] >= 0.5)).sum())
        batches.append((xn.shape[0], loss, correct, labels[..., 1].size))
        return grads, loss, probs

    monkeypatch.setattr(gnn_module, "_backward_batch", recording)
    epochs = 4
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=epochs)
    n = len(train_split)
    per_epoch = len(batches) // epochs
    assert len(batches) == epochs * per_epoch and sorted({b[0] for b in batches}) == [16, 32]
    for e in range(epochs):
        epoch = batches[e * per_epoch:(e + 1) * per_epoch]
        assert sum(size for size, *_ in epoch) == n
        mean_loss = sum(size * loss for size, loss, _, _ in epoch) / n
        assert result.history.train_loss[e] == pytest.approx(mean_loss, rel=0, abs=1e-12)
        correct = sum(c for _, _, c, _ in epoch)
        assert result.history.train_acc[e] == correct / sum(t for *_, t in epoch)


def test_train_names_the_epoch_and_batch_of_a_non_finite_loss(tri3, tri3_dataset, monkeypatch):
    # 400 training samples in batches of 32 make 13 batches an epoch; the
    # 16th batch, epoch 1's batch 2, meets a NaN weight
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    calls = []

    def poisoned(model, *args):
        calls.append(None)
        if len(calls) == 16:
            model.params["dense.b_out"][0] = np.nan
        return _backward_batch(model, *args)

    monkeypatch.setattr(gnn_module, "_backward_batch", poisoned)
    with pytest.raises(RuntimeError, match=r"^non-finite loss at epoch 1, batch 2$"):
        train(model, tri3, train_split, val_split, threshold=0.95, epochs=3)
    assert len(calls) == 16


def test_train_validation_errors(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3)
    with pytest.raises(ValueError):
        train(model, tri3, [], val_split, threshold=0.95)
    with pytest.raises(ValueError):
        train(model, tri3, train_split, val_split, threshold=1.5)


# --- prediction --------------------------------------------------------------


def test_predict_tie_is_congested(tri3):
    topo = to_graph(tri3)
    model = _zero(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3))
    sample = _sample_like(tri3)
    assert predict_congested(model, sample, topo) == frozenset({0, 1, 2})


def test_predict_fitted_tri3(tri3, tri3_dataset):
    train_split, val_split, test_split = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=50)
    topo = to_graph(tri3)
    for s in test_split[:10]:
        assert predict_congested(result.best_model, s, topo) == frozenset({1})


def test_predict_order_independent(tri3, tri3_dataset):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=6), 7, 2, num_buses=3, num_branches=3)
    singles = [predict_congested(model, s, topo) for s in tri3_dataset.samples[:8]]
    reversed_out = [predict_congested(model, s, topo) for s in reversed(tri3_dataset.samples[:8])]
    assert singles == list(reversed(reversed_out))


def _sample_like(net):
    from gridscreen import extract_features
    from gridscreen.samplegen import Sample

    node, edge = extract_features(net, net.base_load())
    return Sample(0, net.base_load(), np.zeros(net.num_generators), node, edge, np.zeros(net.num_branches), 0.0)


def test_edge_accuracy_tie_counts_congested():
    probs = np.array([[[0.5, 0.5]]])
    congested = np.array([[[0.0, 1.0]]])
    clear = np.array([[[1.0, 0.0]]])
    assert gnn_module._count_correct(probs, congested) == 1
    assert gnn_module._count_correct(probs, clear) == 0


# --- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path, tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=3)
    path = tmp_path / "model.json"
    save_model(result.best_model, path)
    back = load_model(path)
    assert back.kind == "gnn"
    assert back.trained_threshold == 0.95
    for (na, pa), (nb, pb) in zip(result.best_model.parameters(), back.parameters()):
        assert na == nb
        assert np.array_equal(pa, pb)
    topo = to_graph(tri3)
    s = train_split[0]
    assert np.array_equal(
        forward_any(result.best_model, s.node_features[None], s.edge_features[None], topo)[0],
        forward_any(back, s.node_features[None], s.edge_features[None], topo)[0],
    )


@pytest.mark.parametrize("kind, digest", [
    ("gnn", "31b40080985b8dc5b2966981ff0ca0640fb120d96f206a440eb1cf72d763a37e"),
    ("mlp", "d298cf70710ff75058dc0de20195ae7ae96cbc9f16bcec338aa0393aea6dd364"),
], ids=["gnn", "mlp"])
def test_save_model_bytes_pinned(tmp_path, kind, digest):
    # the model file format: the bytes of a fixed untrained tri3-sized model never change
    path = tmp_path / "model.json"
    save_model(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3, kind=kind), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_save_load_gnn_round_trip_bit_identical(tmp_path):
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3)
    w = model.params["layers.0.w_edge"]
    w[0, :4] = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).tiny]
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert list(back.params) == list(model.params)
    for name, array in model.params.items():
        loaded = back.params[name]
        assert loaded.shape == array.shape and loaded.dtype == np.float64
        assert loaded.tobytes() == array.tobytes(), name
        assert loaded.flags.writeable
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_save_model_rename_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3), path)
    old = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_model(init_model(ModelConfig(**SMALL, seed=1), 7, 2, num_buses=3, num_branches=3), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_save_load_mlp_round_trip(tmp_path, tri3):
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3, kind="mlp")
    path = tmp_path / "mlp.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "mlp"
    for (na, pa), (nb, pb) in zip(model.parameters(), back.parameters()):
        assert na == nb and np.array_equal(pa, pb)


def test_mlp_honours_num_layers(tmp_path):
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3, kind="mlp")
    stacks = ["node_layers.0.W", "node_layers.1.W", "edge_layers.0.W", "edge_layers.1.W"]
    assert [name for name in model.params if name.endswith(".W")] == stacks
    path = tmp_path / "mlp.json"
    save_model(model, path)
    back = load_model(path)
    assert [name for name in back.params if name.endswith(".W")] == stacks
    for (na, pa), (nb, pb) in zip(model.parameters(), back.parameters(), strict=True):
        assert na == nb and np.array_equal(pa, pb)


def test_load_model_shape_checked_against_binding(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3), path)
    saved = path.read_text()
    doc = json.loads(saved)
    doc["params"]["layers.0.w_node"] = _blob(_unblob(doc["params"]["layers.0.w_node"])[:-8])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"layers\.0\.w_node holds 1408 bytes; its shape \(23, 8\)"):
        load_model(path)
    doc = json.loads(saved)
    doc["params"]["layers.2.w_edge"] = doc["params"]["layers.1.w_edge"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"found \['layers\.2\.w_edge'\], expected \[\]"):
        load_model(path)
    doc = json.loads(saved)
    del doc["params"]["dense.b_out"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"found \[\], expected \['dense\.b_out'\]"):
        load_model(path)
    doc = json.loads(saved)
    doc["binding"]["node_feature_width"] = 6
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"layers\.0\.w_edge holds 1024 bytes; its shape \(14, 8\) from the "
                                         r"config and binding"):
        load_model(path)
    doc = json.loads(saved)
    doc["normalizer"]["edge_std"] = _blob([1.0])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"normalizer edge_std holds 8 bytes; its shape \(2,\) from the binding"):
        load_model(path)
    doc = json.loads(saved)
    del doc["normalizer"]["edge_mean"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"normalizer arrays do not match the binding: "
                                         r"found \[\], expected \['edge_mean'\]"):
        load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob[:-4] + "*AA=", "not a base64 string"),
    (lambda blob: _blob(_unblob(blob)[:-1]), "holds 56 bytes; its shape (8,)"),
    (lambda blob: _unblob(blob).tolist(), "not a base64 string"),
], ids=["not-base64", "one-float-short", "list"])
def test_load_model_rejects_bad_blob(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3), path)
    doc = json.loads(path.read_text())
    doc["params"]["layers.0.b_node"] = edit(doc["params"]["layers.0.b_node"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert f"{path}: params layers.0.b_node " in str(info.value) and message in str(info.value)


def test_load_version_mismatch(tmp_path, tri3):
    model = init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version 5$"):
        load_model(path)


def _as_format_1(doc, model):
    # arrays nested per layer
    params = doc.pop("params")
    doc["layers"] = [{key: params.get(f"layers.{i}.{key.lower()}") for key in ("W_edge", "b_edge", "W_node", "b_node")}
                     for i in range(2)]
    doc["dense"] = {"W_out": params["dense.w_out"], "b_out": params["dense.b_out"]}


def _as_format_2(doc, model):
    # each array as nested JSON lists
    doc["params"] = {name: array.tolist() for name, array in model.params.items()}


def _as_format_3(doc, model):
    # two channel widths, single-value config fields and the normalizer as JSON lists
    channels = doc["config"].pop("channels")
    doc["config"].update(node_channels=channels, edge_channels=channels, activation="relu", output_classes=2)
    doc["normalizer"] = {name: array.tolist() for name, array in vars(model.normalizer).items()}


@pytest.mark.parametrize("version, rewrite", [(1, _as_format_1), (2, _as_format_2), (3, _as_format_3)],
                         ids=["1", "2", "3"])
def test_model_old_format_rejected(tmp_path, version, rewrite):
    # an older model file is retrained, not converted
    model = init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    rewrite(doc, model)
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"format_version {version}; retrain it with train"):
        load_model(path)


def test_load_corrupt_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt"):
        load_model(path)


def test_loaded_model_binding_enforced(tmp_path, tri3, case14):
    # model bound to the 3-bus graph cannot run on 14-bus features
    model = init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    topo14 = to_graph(case14)
    with pytest.raises(ValueError, match="binding"):
        forward_any(back, np.ones((14, 7))[None], np.ones((20, 2))[None], topo14)
