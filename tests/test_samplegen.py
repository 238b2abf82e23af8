import dataclasses
import hashlib
import json
import pickle
import re

import numpy as np
import pytest

from gridscreen import (
    build_opf,
    check_limits,
    extract_features,
    fit_normalizer,
    generate_dataset,
    label_sample,
    parse_case,
    read_dataset,
    full_monitored_set,
    serialize_case,
    solve_opf,
    split_dataset,
    write_dataset,
)
from gridscreen import dcopf, samplegen, simplex
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


def test_generate_infeasible_base_fails_fast(tri3_text, monkeypatch):
    """Each batch's first dispatch answers the base load, and an infeasible one raises before any draw is redrawn.

    20 samples make two batches, so two workers really run.
    """
    net = parse_case(tri3_text.replace("3 1 150.0", "3 1 500.0"))

    def no_redraw(key):
        raise AssertionError("a draw was redrawn")

    monkeypatch.setattr(samplegen, "_generator", no_redraw)  # a redraw's generator
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="base-case OPF is infeasible"):
            generate_dataset(net, 20, 0.1, seed=1, threads=threads)


def test_generate_prefix_stable(tri3):
    # sample i depends only on (seed, i): a longer run reproduces a shorter one
    short = generate_dataset(tri3, 6, 0.1, seed=13)
    long = generate_dataset(tri3, 14, 0.1, seed=13)
    for sa, sb in zip(short.samples, long.samples[:6]):
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.objective == sb.objective


def _reference_samples(net, count, magnitude, seed):
    """Per sample, a cold solve of each draw until one is feasible: the loads, dispatches and redraw total."""
    base, everything = net.base_load(), full_monitored_set(net)
    loads, dispatches, redraws = [], [], 0
    for i in range(count):
        gen = samplegen._generator(samplegen.derive_seed(seed, i))
        while True:
            load = base * gen.uniform(1 - magnitude, 1 + magnitude, base.size)
            sol = solve_opf(net, load, everything)
            if sol.status == "optimal":
                break
            redraws += 1
        loads.append(load)
        dispatches.append(sol.p_g)
    return loads, dispatches, redraws


def test_a_sample_still_infeasible_at_the_redraw_cap_is_an_error(tri3, monkeypatch):
    """At +-60% some tri3 draws are infeasible; the first sample whose draws all are, up to the cap, names itself."""
    monkeypatch.setattr(samplegen, "_MAX_REDRAWS_PER_SAMPLE", 2)
    with pytest.raises(RuntimeError, match=r"^sample 77: no feasible load after 2 redraws$"):
        generate_dataset(tri3, 200, 0.6, seed=1)
    # sample 77 is the first whose first two draws are both infeasible
    base, everything = tri3.base_load(), full_monitored_set(tri3)
    for i in range(78):
        gen = samplegen._generator(samplegen.derive_seed(1, i))
        statuses = [solve_opf(tri3, base * gen.uniform(0.4, 1.6, base.size), everything).status for _ in range(2)]
        assert (statuses == ["infeasible"] * 2) == (i == 77)


def test_rekeyed_philox_gives_each_key_its_own_stream():
    """One re-keyed bit generator draws what a new Philox with that key draws, whatever it drew before."""
    bits = np.random.Philox(key=0)
    shared = np.random.Generator(bits)
    for seed in (0, 1, 2**40 + 3, 2**64 - 1):
        for index in (0, 1, 17, 2**63 + 5):
            key = samplegen.derive_seed(seed, index)
            samplegen._rekey(bits, key)
            own = samplegen._generator(key)
            for size in (14, 3):  # a second draw continues mid-buffer
                assert shared.uniform(0.9, 1.1, size).tobytes() == own.uniform(0.9, 1.1, size).tobytes()


def test_derive_seed_rejects_words_outside_64_bits():
    """A seed or index outside [0, 2**64) is an error, not masked into another run's key."""
    assert samplegen.derive_seed(2**64 - 1, 2**64 - 1) == 2**128 - 1
    assert samplegen.derive_seed(3, 5) == 3 << 64 | 5
    # a numpy integer would wrap in the shift, so it is refused like any non-int
    for seed, index in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64), (np.int64(3), 0), (3.0, 0)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            samplegen.derive_seed(seed, index)


def test_generate_parallel_matches_serial(tri3, case14):
    # on case14 the base-case basis answers some samples and not others; on
    # tri3 at +-60% about one draw in seven is infeasible and redrawn
    for net, count, magnitude, seed in ((tri3, 12, 0.1, 3), (case14, 12, 0.1, 3), (tri3, 100, 0.6, 0)):
        serial = generate_dataset(net, count, magnitude, seed=seed, threads=1)
        parallel = generate_dataset(net, count, magnitude, seed=seed, threads=2)
        assert serial.redraws == parallel.redraws == _reference_samples(net, count, magnitude, seed)[2]
        for sa, sb in zip(serial.samples, parallel.samples):
            assert sa.load_mw.tolist() == sb.load_mw.tolist()
            assert sa.p_g.tobytes() == sb.p_g.tobytes()
            assert sa.objective == sb.objective
    assert serial.redraws > 0


def test_every_sample_starts_from_the_base_basis(case14, monkeypatch):
    """Every first draw is answered from the base-case basis in one batch, with dual pivots where that basis misses."""
    net = parse_case(serialize_case(case14))  # its own network, whose base case is not solved yet
    batches, pivoted, solved = [], [], []
    vertices, pivot, solve = simplex.WarmStart.vertices, simplex.WarmStart._pivoted, dcopf.solve_opf

    def recording_vertices(start, rhs):
        answers = vertices(start, rhs)
        batches.append((start, answers))
        return answers

    monkeypatch.setattr(simplex.WarmStart, "vertices", recording_vertices)
    monkeypatch.setattr(simplex.WarmStart, "_pivoted", lambda start, b, x: pivoted.append(b) or pivot(start, b, x))
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1]) or solve(*a))
    ds = generate_dataset(net, 6, 0.3, seed=2)
    # one batch: its first row is the base load, the base-case check's
    assert ds.redraws == 0 and len(batches) == 1
    (start, (base, *answers)), = batches
    assert start is dcopf._warm_start(net, range(net.num_branches)) and len(answers) == 6
    assert base.tobytes() == start.solution.x.tobytes()
    assert [p_g.tobytes() for p_g in answers] == [s.p_g.tobytes() for s in ds.samples]
    assert 0 < len(pivoted) < 6  # the base basis covers some draws and not others
    # the base case was solved by its Network, and the misses were pivoted, not solved cold
    assert solved == []


def test_the_base_case_is_solved_once_per_network(case14, monkeypatch):
    net = parse_case(serialize_case(case14))
    rhs = []
    solve = simplex._solve

    def recording_solve(lp, *args):
        rhs.append(np.concatenate([lp.b_eq, lp.b_ub]).tobytes())
        return solve(lp, *args)

    # the one cold solve path: the base case's warm start and solve_lp both run it
    monkeypatch.setattr(simplex, "_solve", recording_solve)
    generate_dataset(net, 8, 0.3, seed=1)
    generate_dataset(net, 8, 0.3, seed=2)
    lp = build_opf(net, net.base_load(), full_monitored_set(net))
    # the base case alone: every draw is answered from its basis, without a cold solve
    assert rhs == [np.concatenate([lp.b_eq, lp.b_ub]).tobytes()]


@pytest.mark.parametrize("magnitude,name", [(0.1, "tri3"), (0.1, "case14"), (0.3, "tri3"), (0.3, "case14"),
                                            (0.6, "tri3")])
def test_generated_dispatch_equals_cold_solve(magnitude, name, request, monkeypatch):
    """Samples answered from the base-case basis still have the bits of a per-sample cold solve."""
    net = request.getfixturevalue(name)
    pivoted, pivot = [], simplex.WarmStart._pivoted
    monkeypatch.setattr(simplex.WarmStart, "_pivoted", lambda start, b, x: pivoted.append(b) or pivot(start, b, x))
    ds = generate_dataset(net, 150, magnitude, seed=5)
    loads, dispatches, redraws = _reference_samples(net, 150, magnitude, 5)
    assert ds.redraws == redraws
    for s, load, p_g in zip(ds.samples, loads, dispatches):
        assert s.load_mw.tobytes() == load.tobytes()
        assert s.p_g.tobytes() == p_g.tobytes()
    # every draw was dispatched from the base basis; the misses took dual pivots
    assert len(pivoted) < len(ds.samples) + redraws
    if name == "case14" or magnitude == 0.6:  # the base basis is not optimal for every load
        assert len(pivoted) > 0
    if magnitude == 0.6:
        assert redraws > 0


@pytest.mark.parametrize("name,magnitude", [("case14", 0.3), ("tri3", 0.6)])
def test_dataset_bytes_do_not_depend_on_the_batch_size(name, magnitude, request, tmp_path, monkeypatch):
    net = request.getfixturevalue(name)
    count = 40
    write_dataset(generate_dataset(net, count, magnitude, seed=1), tmp_path / "reference.jsonl")
    reference = (tmp_path / "reference.jsonl").read_bytes()
    for batch in (1, 3, count):
        monkeypatch.setattr(samplegen, "_START_BATCH", batch)
        for threads in (1, 2):
            path = tmp_path / f"batch{batch}_threads{threads}.jsonl"
            write_dataset(generate_dataset(net, count, magnitude, seed=1, threads=threads), path)
            assert path.read_bytes() == reference, (batch, threads)
    if name == "tri3":
        assert read_dataset(tmp_path / "reference.jsonl").redraws > 0


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
    monkeypatch.setattr(samplegen, "_START_BATCH", 1)  # workers take whole batches: one per sample
    usable_cpus = samplegen._usable_cpus
    monkeypatch.setattr(samplegen, "_usable_cpus", lambda: 4)
    reference = generate_dataset(tri3, 6, 0.1, seed=3)
    capped = generate_dataset(tri3, 6, 0.1, seed=3, threads=10_000)
    generate_dataset(tri3, 3, 0.1, seed=3, threads=64)
    generate_dataset(tri3, 1, 0.1, seed=3, threads=64)  # one sample: no pool
    assert started == [4, 3]
    assert [s.objective for s in capped.samples] == [s.objective for s in reference.samples]
    # the CPUs this process may use count, not the host's: as under taskset -c 0,1 on 4 CPUs
    monkeypatch.setattr(samplegen, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(samplegen.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(samplegen.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    generate_dataset(tri3, 6, 0.1, seed=3, threads=64)
    assert started == [4, 3, 2]
    monkeypatch.delattr(samplegen.os, "sched_getaffinity")  # a platform without affinity: the host's count
    assert usable_cpus() == 4


def test_stored_flows_within_limits(tri3_dataset, tri3):
    for s in tri3_dataset.samples[:100]:
        assert not check_limits(tri3, s.flows_mw).any_violation


def test_generate_features_from_one_template(tri3, monkeypatch):
    """Features are derived once per Network; each sample only sets its load column of a copy."""
    net = parse_case(serialize_case(tri3))  # a Network with no template derived yet
    calls = []
    extract = samplegen.extract_features
    monkeypatch.setattr(samplegen, "extract_features", lambda *a: calls.append(a[0]) or extract(*a))
    ds = generate_dataset(net, 8, 0.1, seed=2)
    again = generate_dataset(net, 8, 0.1, seed=3)
    assert len(calls) == 1 and calls[0] is net  # one derivation across both datasets
    samples = ds.samples + again.samples
    for s in samples:
        node, edge = extract(net, s.load_mw)
        assert s.node_features.tolist() == node.tolist() and s.node_features.flags.writeable
        assert s.edge_features is samples[0].edge_features
        assert s.edge_features.tolist() == edge.tolist() and not s.edge_features.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        samples[0].edge_features[0, 0] = 0.0
    samples[0].node_features[:] = -1.0  # a sample's own copy: no later sample sees it
    for s in samples[1:] + generate_dataset(net, 8, 0.1, seed=2).samples:
        assert s.node_features.tolist() == extract(net, s.load_mw)[0].tolist()
    other = parse_case(serialize_case(tri3))  # an equal Network derives its own
    generate_dataset(other, 2, 0.1, seed=2)
    assert len(calls) == 2 and calls[1] is other
    assert "_feature_template" not in vars(pickle.loads(pickle.dumps(net)))  # not pickled


def test_features_finite(tri3_dataset):
    for s in tri3_dataset.samples[:100]:
        assert np.isfinite(s.node_features).all()
        assert np.isfinite(s.edge_features).all()


@pytest.mark.parametrize("load,match", [([0.0, 150.0], "length"), ([np.nan, np.inf, 1.0], "non-finite"),
                                        ([0.0, 0.0, np.inf], "non-finite"), ([0.0, -np.inf, 0.0], "non-finite")])
def test_features_reject_a_bad_load(tri3, load, match):
    with pytest.raises(ValueError, match=match):
        extract_features(tri3, np.array(load))


def _dummy_dataset(n):
    samples = [
        Sample(i, np.zeros(1), np.zeros(1), np.zeros((1, 7)), np.zeros((1, 2)), np.zeros(1), 0.0)
        for i in range(n)
    ]
    return Dataset(None, 0, 0.1, 0, samples)


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
    before = {name: array.copy() for name, array in vars(norm).items()}
    for s in test:
        norm.apply_node(s.node_features)
        norm.apply_edge(s.edge_features)
    assert all(np.array_equal(array, before[name]) for name, array in vars(norm).items())


def test_normalizer_empty_error():
    with pytest.raises(ValueError):
        fit_normalizer([])


def test_dataset_round_trip(tmp_path, tri3, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    back = read_dataset(path)
    assert back.network == tri3
    assert len(back.samples) == len(tri3_dataset.samples)
    assert back.seed == tri3_dataset.seed
    assert back.magnitude == tri3_dataset.magnitude
    assert back.redraws == tri3_dataset.redraws
    for sa, sb in zip(tri3_dataset.samples, back.samples):
        assert sa.sample_id == sb.sample_id
        assert sa.load_mw.tolist() == sb.load_mw.tolist()
        assert sa.node_features.tolist() == sb.node_features.tolist()
        assert sa.edge_features.tolist() == sb.edge_features.tolist()
        assert not sb.edge_features.flags.writeable   # shared between samples
        # bit for bit: the stored dispatch, and the flows and objective derived from it
        assert sa.p_g.tobytes() == sb.p_g.tobytes()
        assert sa.flows_mw.tobytes() == sb.flows_mw.tobytes()
        assert np.float64(sa.objective).tobytes() == np.float64(sb.objective).tobytes()


@pytest.mark.parametrize("name", ["case14", "tri3"])
def test_dataset_rows_are_sorted_key_json(tmp_path, request, name):
    """Rows are formatted without the JSON encoder, so each line must be the text json.dumps(row, sort_keys=True) gives.

    An id that is not an int (np.int64, str or bool) would be written
    unquoted as invalid JSON, so it raises before the file changes.
    """
    dataset = generate_dataset(request.getfixturevalue(name), 3, 0.1, seed=2)
    samples = [dataclasses.replace(s, sample_id=i) for s, i in zip(dataset.samples, [0, 7, 2**64 - 1])]
    path = tmp_path / "ds.jsonl"
    write_dataset(dataclasses.replace(dataset, samples=samples), path)
    old = path.read_bytes()
    lines = old.decode("utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == 4
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)
    assert [json.loads(line)["sample_id"] for line in lines[1:]] == [0, 7, 2**64 - 1]
    for bad in (np.int64(7), "7", True):
        samples[1] = dataclasses.replace(samples[1], sample_id=bad)
        with pytest.raises(ValueError, match=re.escape(f"sample_id is not an integer: {bad!r}")):
            write_dataset(dataclasses.replace(dataset, samples=samples), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ds.jsonl"]


def test_dataset_line_layout(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tri3_dataset.samples) + 1
    header = json.loads(lines[0])
    assert header["format_version"] == 3
    assert set(header) == {"format_version", "case", "seed", "magnitude", "count", "redraws"}
    assert header["case"] == serialize_case(tri3_dataset.network)
    row = json.loads(lines[1])
    assert set(row) == {"sample_id", "load_mw", "p_g"}


@pytest.mark.parametrize("name,magnitude,digest,p_g_sums", [
    ("tri3", 0.6, "30cd864d9c093b3e9befd7e8c3515cf54970ae378f10f31877236710edf3effb",  # 4 redraws
     [4763.238375784569, 3763.3102959247326]),
    ("case14", 0.1, "30585d63842ec5e15fb40fb31e4f34e033d84d41f7b2a2c42e956c9eea3f0ef8",
     [15490.982057406489, 32.2684012373742, 0.0, 0.0, 0.0]),
    ("case14", 0.6, "4ad413521f73f2563a34434b8cb7d002c501d4a7829b245daddb950c3d73d116",
     [14705.137527513281, 509.4464414248071, 141.60445045511005, 83.31433246998894, 0.0]),
], ids=["tri3-60", "case14-10", "case14-60"])
def test_write_dataset_pinned(tmp_path, request, name, magnitude, digest, p_g_sums):
    """A fixed draw writes the same header and loads, to the byte, and the same dispatches.

    The header and the loads come from the case and Philox alone, so their
    bytes are pinned.  The dispatches also pass through LAPACK and BLAS,
    whose last bits may differ with the CPU and the BLAS build, so their
    per-generator sums are pinned to 1e-9; the tests against solve_opf
    check their bits.
    """
    path = tmp_path / "ds.jsonl"
    write_dataset(generate_dataset(request.getfixturevalue(name), 60, magnitude, seed=5), path)
    header, *rows = path.read_bytes().splitlines()
    loads = b"".join(json.loads(row)["load_mw"].encode() for row in rows)
    assert hashlib.sha256(header + loads).hexdigest() == digest
    dispatched = np.sum([s.p_g for s in read_dataset(path).samples], axis=0)
    assert dispatched.tolist() == pytest.approx(p_g_sums, rel=1e-9, abs=1e-9)


def test_write_dataset_interrupted_keeps_old_file(tmp_path, tri3_dataset):
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    old = path.read_bytes()
    # the third row cannot be encoded, so the write raises after the header and two rows
    samples = list(tri3_dataset.samples)
    samples[2] = dataclasses.replace(samples[2], p_g=object())
    broken = dataclasses.replace(tri3_dataset, samples=samples)
    with pytest.raises(TypeError, match="float"):
        write_dataset(broken, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["ds.jsonl"]


@pytest.mark.parametrize("layout", ["link", "two-link chain", "dangling link", "linked directory"])
def test_write_dataset_through_symlink(tmp_path, tri3_dataset, layout):
    """Every symlink on the way stays a symlink; the plain file they lead to is replaced, or created."""
    data = tmp_path / "data"
    data.mkdir()
    target = data / "ds.jsonl"
    if layout != "dangling link":
        target.write_text("old\n")
    if layout == "two-link chain":
        links = [tmp_path / "first.jsonl", tmp_path / "last.jsonl"]
        links[1].symlink_to(target)
        links[0].symlink_to(links[1])
        path = links[0]
    elif layout == "linked directory":
        links = [tmp_path / "linked"]
        links[0].symlink_to(data, target_is_directory=True)
        path = links[0] / "ds.jsonl"
    else:
        links = [tmp_path / "link.jsonl"]
        links[0].symlink_to(target)
        path = links[0]
    write_dataset(tri3_dataset, path)
    assert all(link.is_symlink() for link in links)
    assert not target.is_symlink()
    assert len(read_dataset(target).samples) == len(tri3_dataset.samples)
    assert sorted(p.name for p in data.iterdir()) == ["ds.jsonl"]


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


@pytest.mark.parametrize("version", [1, 2])
def test_dataset_v1_rejected(tmp_path, tri3_dataset, version):
    # formats 1 and 2 stored flows and objective, not the dispatch; such a file is regenerated
    path = tmp_path / "ds.jsonl"
    write_dataset(tri3_dataset, path)
    _rewrite(path, 1, lambda header: header.update(format_version=version))
    with pytest.raises(ValueError, match=f"format_version {version}; regenerate it with gen-data"):
        read_dataset(path)
