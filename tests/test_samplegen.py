import json

import numpy as np
import pytest

from gridscreen import (
    check_limits,
    extract_features,
    fit_normalizer,
    generate_dataset,
    label_sample,
    parse_case,
    read_dataset,
    serialize_case,
    split_dataset,
    write_dataset,
)
from gridscreen import samplegen
from gridscreen.samplegen import Dataset, Sample


def test_perturb_zero_load_fixed(tri3):
    # tri3 buses 1 and 2 carry no load; bus 3 carries 150 MW
    loads = np.stack([s.load_mw for s in generate_dataset(tri3, 20, 0.1, seed=9).samples])
    assert np.all(loads[:, :2] == 0.0)
    assert np.all(loads[:, 2] != 150.0)


def test_perturb_statistics(case14_dataset, case14):
    # no draw was redrawn, so the loads are the raw Uniform(1-m, 1+m) factors times the base
    assert case14_dataset.redraws == 0 and case14_dataset.magnitude == 0.1
    base = case14.base_load()
    loaded = base != 0.0
    ratios = np.stack([s.load_mw for s in case14_dataset.samples])[:, loaded] / base[loaded]
    assert ratios.min() >= 0.9
    assert ratios.max() <= 1.1
    assert abs(ratios.mean() - 1.0) <= 0.005


def test_perturb_deterministic(tri3):
    # a sample's load draw depends only on (seed, index)
    a = generate_dataset(tri3, 2, 0.2, seed=1).samples
    b = generate_dataset(tri3, 2, 0.2, seed=1).samples
    c = generate_dataset(tri3, 1, 0.2, seed=2).samples
    assert a[0].load_mw.tolist() == b[0].load_mw.tolist()
    assert a[1].load_mw.tolist() == b[1].load_mw.tolist()
    assert a[0].load_mw.tolist() != a[1].load_mw.tolist()
    assert a[0].load_mw.tolist() != c[0].load_mw.tolist()


def test_perturb_magnitude_validation(tri3):
    with pytest.raises(ValueError):
        generate_dataset(tri3, 5, 1.0, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(tri3, 5, -0.1, seed=1)


def test_features_tri3(tri3):
    node, edge = extract_features(tri3, tri3.base_load())
    assert node.shape == (3, 7) and edge.shape == (3, 2)
    assert node[2].tolist() == [150.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0]   # load bus
    assert node[0].tolist() == [0.0, 200.0, 0.0, 2.0, 0.0, 0.0, 1.0]   # slack with generator
    assert node[1].tolist() == [0.0, 200.0, 0.0, 2.0, 0.0, 1.0, 0.0]   # generator bus
    assert edge[1].tolist() == [0.1, 80.0]                             # branch 1-3


def test_features_sum_multiple_generators(tri3_text):
    text = tri3_text.replace("#BRANCH", "2 25.0 10.0 50.0\n#BRANCH")
    net = parse_case(text)
    node, _ = extract_features(net, net.base_load())
    assert node[1, 1] == 250.0   # 200 + 50
    assert node[1, 2] == 10.0


def test_labels_boundary_inclusive():
    net = parse_case(
        "#BASE\n100\n#BUS\n1 3 0\n2 1 50\n#GEN\n1 5 0 100\n#BRANCH\n1 2 0.1 100\n"
    )
    assert label_sample(np.array([80.0]), net, 0.8).tolist() == [1]
    assert label_sample(np.array([79.999999]), net, 0.8).tolist() == [0]
    assert label_sample(np.array([-80.0]), net, 0.8).tolist() == [1]  # two-sided


def test_labels_tri3(tri3):
    labels = label_sample(np.array([10.0, 80.0, 70.0]), tri3, 0.95)
    assert labels.tolist() == [0, 1, 0]


def test_labels_tau_one_marks_binding_only(tri3):
    labels = label_sample(np.array([10.0, 80.0, 70.0]), tri3, 1.0)
    assert labels.tolist() == [0, 1, 0]
    # a binding flow's last bits do not decide its label
    assert label_sample(np.array([10.0, 80.0 - 1e-12, 70.0]), tri3, 1.0).tolist() == [0, 1, 0]
    assert label_sample(np.array([10.0, 80.0 - 1e-3, 70.0]), tri3, 1.0).tolist() == [0, 0, 0]


def test_labels_validation(tri3):
    with pytest.raises(ValueError):
        label_sample(np.zeros(3), tri3, 0.0)
    with pytest.raises(ValueError):
        label_sample(np.zeros(2), tri3, 0.5)


def test_generate_single_unperturbed(tri3):
    ds = generate_dataset(tri3, 1, 0.0, seed=4)
    s = ds.samples[0]
    assert s.load_mw.tolist() == tri3.base_load().tolist()
    assert s.flows_mw == pytest.approx([10.0, 80.0, 70.0], abs=1e-6)
    assert s.objective == pytest.approx(2100.0, abs=1e-6)


def test_generate_deterministic(tri3):
    a = generate_dataset(tri3, 20, 0.1, seed=42)
    b = generate_dataset(tri3, 20, 0.1, seed=42)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.flows_mw.tolist() == sb.flows_mw.tolist()
        assert sa.objective == sb.objective
    assert a.redraws == b.redraws


def test_generate_label_regression(tri3_dataset, tri3):
    """The tight triangle line stays binding across +-10% draws; others never label."""
    labels = np.stack([label_sample(s.flows_mw, tri3, 0.95) for s in tri3_dataset.samples])
    freq = labels.mean(axis=0)
    assert freq[1] > 0.9
    assert freq[0] == 0.0 and freq[2] == 0.0


def test_generate_validation(tri3):
    with pytest.raises(ValueError):
        generate_dataset(tri3, 0, 0.1, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(tri3, 5, 1.2, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(tri3, 5, 0.1, seed=1, threads=0)


def test_generate_infeasible_base_fails_fast(tri3_text):
    net = parse_case(tri3_text.replace("3 1 150.0", "3 1 500.0"))
    with pytest.raises(RuntimeError, match="base-case"):
        generate_dataset(net, 10, 0.1, seed=1)


def test_generate_prefix_stable(tri3):
    # sample i depends only on (seed, i): a longer run reproduces a shorter one
    short = generate_dataset(tri3, 6, 0.1, seed=13)
    long = generate_dataset(tri3, 14, 0.1, seed=13)
    for sa, sb in zip(short.samples, long.samples[:6]):
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.objective == sb.objective


def test_generate_parallel_matches_serial(tri3):
    serial = generate_dataset(tri3, 12, 0.1, seed=3, threads=1)
    parallel = generate_dataset(tri3, 12, 0.1, seed=3, threads=2)
    for sa, sb in zip(serial.samples, parallel.samples):
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.objective == sb.objective


def test_generate_worker_count_capped(tri3, monkeypatch):
    """Workers never exceed the cores or the samples, whatever --threads says."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(samplegen, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(samplegen.os, "cpu_count", lambda: 4)
    reference = generate_dataset(tri3, 6, 0.1, seed=3)
    capped = generate_dataset(tri3, 6, 0.1, seed=3, threads=10_000)
    generate_dataset(tri3, 3, 0.1, seed=3, threads=64)
    generate_dataset(tri3, 1, 0.1, seed=3, threads=64)  # one sample: no pool
    assert started == [4, 3]
    assert [s.objective for s in capped.samples] == [s.objective for s in reference.samples]


def test_stored_flows_within_limits(tri3_dataset, tri3):
    for s in tri3_dataset.samples[:100]:
        assert not check_limits(tri3, s.flows_mw).any_violation


def test_generate_features_from_one_template(tri3, monkeypatch):
    """Features are derived once per dataset; each sample only sets its load column."""
    calls = []
    extract = samplegen.extract_features
    monkeypatch.setattr(samplegen, "extract_features", lambda *a: calls.append(a) or extract(*a))
    ds = generate_dataset(tri3, 8, 0.1, seed=2)
    assert len(calls) == 1
    for s in ds.samples:
        node, edge = extract(tri3, s.load_mw)
        assert s.node_features.tolist() == node.tolist()
        assert s.edge_features is ds.samples[0].edge_features
        assert s.edge_features.tolist() == edge.tolist() and not s.edge_features.flags.writeable


def test_features_finite(tri3_dataset):
    for s in tri3_dataset.samples[:100]:
        assert np.isfinite(s.node_features).all()
        assert np.isfinite(s.edge_features).all()


def _dummy_dataset(n):
    samples = [
        Sample(i, np.zeros(1), np.zeros((1, 7)), np.zeros((1, 2)), np.zeros(1), 0.0)
        for i in range(n)
    ]
    return Dataset(None, 0, 0.1, n, 0, samples)


def test_split_sizes_large_corpus():
    train, val, test = split_dataset(_dummy_dataset(20_000), (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (16_000, 2_000, 2_000)


def test_split_sizes_small_remainder_to_train():
    train, val, test = split_dataset(_dummy_dataset(10), (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    train, val, test = split_dataset(_dummy_dataset(27), (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (23, 2, 2)


def test_split_deterministic_partition():
    ds = _dummy_dataset(50)
    a = split_dataset(ds, (0.8, 0.1, 0.1), seed=9)
    b = split_dataset(ds, (0.8, 0.1, 0.1), seed=9)
    for part_a, part_b in zip(a, b):
        assert [s.sample_id for s in part_a] == [s.sample_id for s in part_b]
    ids = sorted(s.sample_id for part in a for s in part)
    assert ids == list(range(50))


def test_split_errors():
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(_dummy_dataset(10), (0.8, 0.1, 0.2), seed=0)
    with pytest.raises(ValueError, match="too few"):
        split_dataset(_dummy_dataset(5), (0.8, 0.1, 0.1), seed=0)


def test_normalizer_train_stats(tri3_dataset):
    train, _, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    norm = fit_normalizer(train)
    node = np.vstack([norm.apply_node(s.node_features) for s in train])
    # z-scored training columns: zero mean; unit std where not degenerate
    assert np.abs(node.mean(axis=0)).max() <= 1e-9
    live = np.vstack([s.node_features for s in train]).std(axis=0) > 1e-6
    assert node.std(axis=0)[live] == pytest.approx(np.ones(live.sum()), abs=1e-9)


def test_normalizer_constant_column_zeroed(tri3_dataset):
    train, _, _ = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    norm = fit_normalizer(train)
    sample = train[0]
    out = norm.apply_node(sample.node_features)
    # one-hot columns are constant per bus row-set; degree column constant too
    constant_cols = np.vstack([s.node_features for s in train]).std(axis=0) < 1e-12
    assert constant_cols.any()
    assert np.abs(out[:, constant_cols]).max() == 0.0


def test_normalizer_no_leakage(tri3_dataset):
    train, _, test = split_dataset(tri3_dataset, (0.8, 0.1, 0.1), seed=1)
    norm = fit_normalizer(train)
    before = json.dumps(norm.to_dict())
    for s in test:
        norm.apply_node(s.node_features)
        norm.apply_edge(s.edge_features)
    assert json.dumps(norm.to_dict()) == before


def test_normalizer_empty_error():
    with pytest.raises(ValueError):
        fit_normalizer([])


def test_dataset_round_trip(tmp_path, tri3, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    back = read_dataset(path)
    assert back.network == tri3
    assert back.count == tri3_dataset.count
    assert back.seed == tri3_dataset.seed
    assert back.magnitude == tri3_dataset.magnitude
    assert back.redraws == tri3_dataset.redraws
    for sa, sb in zip(tri3_dataset.samples, back.samples):
        assert sa.sample_id == sb.sample_id
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.node_features.tolist() == sb.node_features.tolist()
        assert sa.edge_features.tolist() == sb.edge_features.tolist()
        assert not sb.edge_features.flags.writeable   # shared between samples
        assert sa.flows_mw.tolist() == sb.flows_mw.tolist()
        assert sa.objective == sb.objective


def test_dataset_line_layout(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == tri3_dataset.count + 1
    header = json.loads(lines[0])
    assert header["format_version"] == 2
    assert set(header) == {"format_version", "case", "seed", "magnitude", "count", "redraws"}
    assert header["case"] == serialize_case(tri3_dataset.network)
    row = json.loads(lines[1])
    assert set(row) == {"sample_id", "load_mw", "flows_mw", "objective"}


def test_dataset_version_check(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="format_version"):
        read_dataset(path)


def test_dataset_count_check(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="count"):
        read_dataset(path)


def _rewrite(path, line_no, edit):
    """Apply `edit` to the JSON object on 1-based line `line_no` of a dataset file."""
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line_no - 1])
    edit(doc)
    lines[line_no - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")


def test_dataset_header_missing_key(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    _rewrite(path, 1, lambda header: header.pop("case"))
    with pytest.raises(ValueError, match=r"ds\.jsonl: line 1: missing key\(s\) case"):
        read_dataset(path)


def test_dataset_bad_json_line(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"ds\.jsonl: line 3: invalid JSON"):
        read_dataset(path)


def test_dataset_v1_rejected(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    _rewrite(path, 1, lambda header: header.update(format_version=1))
    with pytest.raises(ValueError, match="format_version 1; regenerate it with gen-data"):
        read_dataset(path)
