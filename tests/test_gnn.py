import numpy as np
import pytest

from gridscreen import (
    ModelConfig,
    edge_accuracy,
    fit_normalizer,
    init_mlp,
    init_model,
    label_sample,
    load_model,
    loss_mse,
    predict_congested,
    save_model,
    split_dataset,
    to_graph,
    train,
)
from gridscreen.gnn import _backward_any, _layer_forward_batch, forward_any
from gridscreen.netcase import GraphTopology

SMALL = dict(num_layers=2, node_channels=8, edge_channels=8)


def _zero(model):
    for _, p in model.parameters():
        p[...] = 0.0
    return model


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
    assert (cfg.num_layers, cfg.node_channels, cfg.edge_channels) == (4, 64, 64)
    assert (cfg.learning_rate, cfg.epochs, cfg.batch_size) == (1e-3, 250, 32)


@pytest.mark.parametrize("bad", [
    dict(num_layers=0), dict(learning_rate=0.0), dict(output_classes=3),
    dict(activation="tanh"), dict(batch_size=-1),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        ModelConfig(**bad)


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
    assert not np.array_equal(a.layers[0].w_edge, b.layers[0].w_edge)


# --- layer and model forward ------------------------------------------------


def test_layer_zero_params_zero_outputs(tri3):
    topo = to_graph(tri3)
    model = _zero(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3))
    h, e, _ = _layer_forward_batch(model.layers[0], np.random.default_rng(0).normal(size=(1, 3, 7)),
                                   np.ones((1, 3, 2)), topo)
    assert np.all(h == 0.0) and np.all(e == 0.0)


def test_layer_isolated_node_uses_self_only():
    # 3 nodes but only one edge 0-1; node 2 is isolated
    topo = GraphTopology(
        degree=np.array([1, 1, 0]),
        edge_from=np.array([0]),
        edge_to=np.array([1]),
    )
    model = init_model(ModelConfig(**SMALL, seed=3), 4, 2, num_buses=3, num_branches=1)
    layer = model.layers[0]
    rng = np.random.default_rng(1)
    h = rng.normal(size=(3, 4))
    e = rng.normal(size=(1, 2))
    h1 = _layer_forward_batch(layer, h[None], e[None], topo)[0][0]
    h2 = _layer_forward_batch(layer, np.vstack([h[:2], h[2] * 0 + 99.0])[None], e[None], topo)[0][0]
    # only the isolated node's own row reacts to its feature change
    assert np.array_equal(h1[:2], h2[:2])
    assert not np.array_equal(h1[2], h2[2])
    # and its message sums are empty: update equals stacking zeros
    stacked = np.concatenate([h[2], np.zeros(8), np.zeros(8)])
    expect = np.maximum(stacked @ layer.w_node + layer.b_node, 0.0)
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


def test_mlp_zero_model_outputs_half(tri3):
    model = _zero(init_mlp(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3))
    probs = forward_any(model, np.ones((3, 7))[None], np.ones((3, 2))[None], None)[0]
    assert np.all(probs == 0.5)


def test_mlp_not_equivariant(case14):
    model = init_mlp(ModelConfig(seed=5), 7, 2, num_buses=14, num_branches=20)
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
    model = init_model(ModelConfig(num_layers=2, node_channels=8, edge_channels=8, seed=4),
                       3, 2, num_buses=n, num_branches=n - 1)
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
    model = init_model(ModelConfig(num_layers=2, node_channels=8, edge_channels=8, seed=4),
                       3, 2, num_buses=n, num_branches=n - 1)
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


def test_loss_examples():
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss_mse(labels, labels) == 0.0
    assert loss_mse(np.full((2, 2), 0.5), labels) == pytest.approx(0.25)
    assert loss_mse(np.array([[0.9, 0.1]]), np.array([[1.0, 0.0]])) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        loss_mse(np.zeros((2, 2)), np.zeros((3, 2)))


def _fd_worst(model, xn, xe, y, topo, n_draws, seed=17, h=1e-5):
    grads, _ = _backward_any(model, xn, xe, y, topo)

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


def test_gradients_match_finite_differences(tri3):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=12), 7, 2, num_buses=3, num_branches=3)
    rng = np.random.default_rng(3)
    xn = rng.normal(size=(4, 3, 7))
    xe = rng.normal(size=(4, 3, 2))
    lab = rng.integers(0, 2, (4, 3)).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    assert _fd_worst(model, xn, xe, y, topo, 400) <= 1e-4


def test_mlp_gradients_match_finite_differences(tri3):
    topo = to_graph(tri3)
    model = init_mlp(ModelConfig(**SMALL, seed=12), 7, 2, num_buses=3, num_branches=3)
    rng = np.random.default_rng(3)
    xn = rng.normal(size=(4, 3, 7))
    xe = rng.normal(size=(4, 3, 2))
    lab = rng.integers(0, 2, (4, 3)).astype(float)
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
    grads, loss = _backward_any(model, xn, xe, y, topo)
    assert loss == 0.0
    assert max(np.abs(g).max() for g in grads.values()) <= 1e-6


def test_gradient_paths_wiring(tri3):
    # zeroing the head cuts every layer off from the loss; only the head sees gradient
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=9), 7, 2, num_buses=3, num_branches=3)
    model.w_out[...] = 0.0
    rng = np.random.default_rng(4)
    xn = rng.normal(size=(2, 3, 7))
    xe = rng.normal(size=(2, 3, 2))
    lab = rng.integers(0, 2, (2, 3)).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    grads, _ = _backward_any(model, xn, xe, y, topo)
    assert np.abs(grads["dense.w_out"]).max() > 0
    for name, g in grads.items():
        if name.startswith("layers."):
            assert np.all(g == 0.0), name


def test_backward_empty_batch_error(tri3):
    topo = to_graph(tri3)
    model = init_model(ModelConfig(**SMALL, seed=9), 7, 2, num_buses=3, num_branches=3)
    with pytest.raises(ValueError):
        _backward_any(model, np.zeros((0, 3, 7)), np.zeros((0, 3, 2)), np.zeros((0, 3, 2)), topo)


# --- training ----------------------------------------------------------------


def test_train_zero_epochs_identity(tri3, tri3_dataset):
    train_split, val_split, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    model = init_model(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3,
                       normalizer=fit_normalizer(train_split))
    before = [p.copy() for _, p in model.parameters()]
    result = train(model, tri3, train_split, val_split, threshold=0.95, epochs=0)
    assert len(result.history) == 0
    for (_, p), b in zip(result.model.parameters(), before):
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
        return train(model, tri3, train_split, val_split, threshold=0.95, epochs=5)

    a, b = run(), run()
    assert a.history.train_loss == b.history.train_loss
    for (_, pa), (_, pb) in zip(a.model.parameters(), b.model.parameters()):
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
    best_loss = loss_mse(forward_any(result.best_model, xn, xe, topo), y)
    assert best_loss == pytest.approx(min(result.history.val_loss), abs=1e-12)


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
    return Sample(0, net.base_load(), node, edge, np.zeros(net.num_branches), 0.0)


def test_edge_accuracy_tie_counts_congested():
    probs = np.array([[[0.5, 0.5]]])
    congested = np.array([[[0.0, 1.0]]])
    clear = np.array([[[1.0, 0.0]]])
    assert edge_accuracy(probs, congested) == 1.0
    assert edge_accuracy(probs, clear) == 0.0


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


def test_save_load_mlp_round_trip(tmp_path, tri3):
    model = init_mlp(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3)
    path = tmp_path / "mlp.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "mlp"
    for (na, pa), (nb, pb) in zip(model.parameters(), back.parameters()):
        assert na == nb and np.array_equal(pa, pb)


def test_mlp_honours_num_layers(tmp_path):
    model = init_mlp(ModelConfig(**SMALL, seed=2), 7, 2, num_buses=3, num_branches=3)
    assert len(model.node_layers) == 2 and len(model.edge_layers) == 2
    path = tmp_path / "mlp.json"
    save_model(model, path)
    back = load_model(path)
    assert len(back.node_layers) == 2 and len(back.edge_layers) == 2
    for (na, pa), (nb, pb) in zip(model.parameters(), back.parameters(), strict=True):
        assert na == nb and np.array_equal(pa, pb)


def test_load_model_shape_checked_against_binding(tmp_path):
    import json
    path = tmp_path / "model.json"
    save_model(init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3), path)
    saved = path.read_text()
    doc = json.loads(saved)
    doc["layers"][1]["W_node"] = doc["layers"][1]["W_node"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"layers\.1\.w_node"):
        load_model(path)
    doc = json.loads(saved)
    doc["binding"]["node_feature_width"] = 6
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"do not match the binding.*layers\.0\.w_edge"):
        load_model(path)


def test_load_version_mismatch(tmp_path, tri3):
    model = init_model(ModelConfig(**SMALL, seed=0), 7, 2, num_buses=3, num_branches=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    import json
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
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
