"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
with the measured numbers.  The heavyweight inputs (the 2,000-sample corpus
and the trained model) are shared module/session fixtures.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from gridscreen import (
    ModelConfig,
    ModelPredictor,
    OraclePredictor,
    check_limits,
    evaluate,
    fit_normalizer,
    init_model,
    label_sample,
    run_ropf,
    solve_opf,
    to_graph,
    train,
)
from gridscreen.cli import main as cli_main
from gridscreen.dcopf import full_monitored_set
from gridscreen.gnn import _backward_batch, forward_any
from gridscreen.netcase import GraphTopology

CASES = Path(__file__).resolve().parents[1] / "cases"
TAUS = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95]


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS  [{detail}]")


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_tri3_oracle(tri3):
    t0 = time.perf_counter()
    sol = solve_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    oracle = oracles.grid_search_opf(tri3, tri3.base_load(), full_monitored_set(tri3), step=0.1)
    elapsed = time.perf_counter() - t0
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2100.0, abs=1e-6)
    assert sol.p_g == pytest.approx([90.0, 60.0], abs=1e-6)
    assert sol.flows == pytest.approx([10.0, 80.0, 70.0], abs=1e-6)
    dispatch, objective = oracle
    assert np.abs(sol.p_g - dispatch).max() <= 0.2
    assert abs(sol.objective - objective) <= 0.2 * sum(g.cost_per_mwh for g in tri3.generators)
    assert elapsed < 1.0
    _report(1, "tri3 oracle", f"objective {sol.objective:.6f}, {elapsed:.3f}s")


# -- 2, 3, 4: shared randomized relaxation suite -------------------------------


@pytest.fixture(scope="module")
def relaxation_suite(tri3, case14):
    rng = np.random.default_rng(2024)
    records = []
    t0 = time.perf_counter()
    for net, count in ((tri3, 300), (case14, 220)):
        base = net.base_load()
        nk = net.num_branches
        done = 0
        while done < count:
            load = base * rng.uniform(0.8, 1.2, base.size)
            full = solve_opf(net, load, full_monitored_set(net))
            if full.status != "optimal":
                continue
            monitored = frozenset(
                int(k) for k in np.flatnonzero(rng.random(nk) < rng.uniform(0.1, 0.9))
            )
            reduced = solve_opf(net, load, monitored)
            assert reduced.status == "optimal"  # relaxation of a feasible problem
            everything = solve_opf(net, load, full_monitored_set(net))
            records.append((net, load, monitored, full, reduced, everything))
            done += 1
    return records, time.perf_counter() - t0


def test_criterion_2_relaxation(relaxation_suite):
    records, elapsed = relaxation_suite
    assert len(records) >= 500
    for net, load, monitored, full, reduced, everything in records:
        assert reduced.objective <= full.objective + 1e-6 * abs(full.objective)
        assert everything.objective == pytest.approx(full.objective, rel=1e-6)
    assert elapsed < 60.0
    _report(2, "relaxation suite", f"{len(records)} pairs, {elapsed:.1f}s")


def test_criterion_3_feasibility_equality(relaxation_suite):
    records, _ = relaxation_suite
    clean = 0
    for net, load, monitored, full, reduced, _ in records:
        audit = check_limits(net, reduced.flows)
        for k in np.flatnonzero(audit.flags):
            assert int(k) not in monitored  # violations only on unmonitored branches
        if not audit.any_violation:
            assert reduced.objective == pytest.approx(full.objective, rel=1e-6)
            clean += 1
    assert clean > 0
    _report(3, "feasibility-equality", f"{clean} violation-free reduced solves matched")


def test_criterion_4_power_balance(relaxation_suite):
    records, _ = relaxation_suite
    worst = 0.0
    n = 0
    for net, load, monitored, full, reduced, everything in records:
        for sol in (full, reduced, everything):
            worst = max(worst, abs(sol.p_g.sum() - load.sum()))
            n += 1
    assert worst <= 1e-6
    _report(4, "power balance", f"worst |sum P_g - sum d| = {worst:.2e} MW over {n} solves")


# -- 5 -------------------------------------------------------------------------


def test_criterion_5_gradient_check(tri3):
    t0 = time.perf_counter()
    topo = to_graph(tri3)
    model = init_model(ModelConfig(num_layers=2, channels=8, seed=21),
                       7, 2, num_buses=3, num_branches=3)
    rng = np.random.default_rng(77)
    xn = rng.normal(size=(6, 3, 7))
    xe = rng.normal(size=(6, 3, 2))
    lab = rng.integers(0, 2, (6, 3)).astype(float)
    y = np.stack([1 - lab, lab], axis=-1)
    grads, _, _ = _backward_batch(model, xn, xe, y, topo, {})

    def loss_at():
        p = forward_any(model, xn, xe, topo)
        return float(np.mean((p - y) ** 2, axis=(1, 2)).mean())

    params = dict(model.parameters())
    names = list(params)
    h = 1e-5
    worst = 0.0
    draws = 2000
    for _ in range(draws):
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
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0
    _report(5, "gradient check", f"{draws} draws, max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 6 -------------------------------------------------------------------------


def test_criterion_6_permutation_equivariance(case14):
    topo = to_graph(case14)
    gnn = init_model(ModelConfig(seed=31), 7, 2, num_buses=14, num_branches=20)
    mlp = init_model(ModelConfig(seed=31), 7, 2, num_buses=14, num_branches=20, kind="mlp")
    rng = np.random.default_rng(123)
    xn = rng.normal(size=(14, 7))
    xe = rng.normal(size=(20, 2))
    base_gnn = forward_any(gnn, xn[None], xe[None], topo)[0]
    base_mlp = forward_any(mlp, xn[None], xe[None], None)[0]
    counterexample = False
    for _ in range(20):
        perm = rng.permutation(14)
        inv = np.argsort(perm)
        topo_p = GraphTopology(
            degree=topo.degree[perm],
            edge_from=inv[topo.edge_from],
            edge_to=inv[topo.edge_to],
        )
        assert np.array_equal(forward_any(gnn, xn[perm][None], xe[None], topo_p)[0], base_gnn)
        if not np.array_equal(forward_any(mlp, xn[perm][None], xe[None], None)[0], base_mlp):
            counterexample = True
    assert counterexample
    _report(6, "permutation equivariance", "20/20 bit-identical; baseline counterexample found")


# -- 7: shared trained model ----------------------------------------------------


@pytest.fixture(scope="module")
def trained14(case14, case14_splits):
    train_split, val_split, test_split = case14_splits
    model = init_model(ModelConfig(seed=0), 7, 2,
                       num_buses=case14.num_buses, num_branches=case14.num_branches,
                       normalizer=fit_normalizer(train_split))
    t0 = time.perf_counter()
    result = train(model, case14, train_split, val_split, threshold=0.95, epochs=120)
    report = evaluate(case14, ModelPredictor(result.best_model, to_graph(case14)),
                      test_split, 0.95)
    elapsed = time.perf_counter() - t0
    return result, report, elapsed


def test_criterion_7_learning_sanity(trained14, case14_splits):
    result, report, elapsed = trained14
    assert len(case14_splits[0]) + len(case14_splits[1]) + len(case14_splits[2]) == 2000
    assert result.history.train_loss[9] < result.history.train_loss[0]
    assert report.edge_prediction_error_pct <= 5.0
    assert elapsed < 600.0
    _report(7, "learning sanity",
            f"loss e1 {result.history.train_loss[0]:.5f} -> e10 "
            f"{result.history.train_loss[9]:.5f}; test error "
            f"{report.edge_prediction_error_pct:.3f}%; {elapsed:.0f}s")


# -- 8 -------------------------------------------------------------------------


def test_criterion_8_threshold_sweep_trends(case14, case14_splits):
    _, _, test_split = case14_splits
    subset = test_split[:150]
    reports = [evaluate(case14, OraclePredictor(case14, tau), subset, tau) for tau in TAUS]
    fractions = [r.pct_lines_monitored for r in reports]
    for lo, hi in zip(fractions[1:], fractions[:-1]):
        assert lo <= hi + 1e-12  # weakly decreasing in tau (oracle-label nesting)
    for r in reports:
        if r.pct_lines_monitored < 100.0:
            assert r.total_ropf_seconds < r.total_full_opf_seconds
            assert r.time_pct < 100.0
    detail = ", ".join(f"{t:.2f}:{f:.1f}%/{r.time_pct:.0f}%t"
                       for t, f, r in zip(TAUS, fractions, reports))
    _report(8, "threshold-sweep trends", detail)


# -- 9 -------------------------------------------------------------------------


def _recompute_overlay(network, predictor, samples, threshold):
    nk = network.num_branches
    type2 = np.zeros(nk, dtype=int)
    viol = np.zeros(nk, dtype=int)
    overlap = np.zeros(nk, dtype=int)
    for s in samples:
        labels = label_sample(s.flows_mw, network, threshold).astype(bool)
        pred = np.zeros(nk, dtype=bool)
        pred[list(predictor.predict(s))] = True
        missed = labels & ~pred
        flags = run_ropf(network, s, frozenset(np.flatnonzero(pred))).violations.flags
        assert not (flags & pred).any()  # violations strictly on unmonitored branches
        type2 += missed
        viol += flags
        overlap += flags & missed
    return type2, viol, overlap


def test_criterion_9_violation_overlay(tri3, tri3_dataset, case14, trained14, case14_splits):
    # trained-model evaluation on the 14-bus system
    result, report, _ = trained14
    predictor = ModelPredictor(result.best_model, to_graph(case14))
    samples = case14_splits[2]
    type2, viol, overlap = _recompute_overlay(case14, predictor, samples[:80], 0.95)
    partial = evaluate(case14, predictor, samples[:80], 0.95)
    assert partial.branch_false_neg == type2.tolist()
    assert partial.branch_violations == viol.tolist()
    assert partial.branch_type2_violation_overlap == overlap.tolist()

    # an intentionally blind predictor on tri3 produces real violations, still consistent
    class Nothing:
        def predict(self, sample):
            return frozenset()

    blind = Nothing()
    t2, vi, ov = _recompute_overlay(tri3, blind, tri3_dataset.samples[:40], 0.95)
    rep = evaluate(tri3, blind, tri3_dataset.samples[:40], 0.95)
    assert rep.branch_false_neg == t2.tolist()
    assert rep.branch_violations == vi.tolist()
    assert rep.branch_type2_violation_overlap == ov.tolist()
    assert vi.sum() > 0  # the check above is not vacuous
    _report(9, "violation/type-2 overlay",
            f"checked {80} model samples + {40} blind samples, "
            f"{int(vi.sum())} violations all unmonitored")


# -- 10 ------------------------------------------------------------------------


def _normalized_bytes(path):
    """Canonical JSON text with every timing field nulled."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: (None if k.endswith("_seconds") or k == "time_pct" else strip(v))
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(json.loads(Path(path).read_text(encoding="utf-8"))), sort_keys=True)


def test_criterion_10_determinism(tmp_path):
    tri3_case = str(CASES / "tri3.case")
    runs = []
    for tag in ("a", "b"):
        work = tmp_path / tag
        work.mkdir()
        data = work / "d.jsonl"
        model = work / "m.json"
        out = work / "eval"
        assert cli_main(["gen-data", "--case", tri3_case, "--samples", "80",
                         "--magnitude", "0.1", "--seed", "5", "--out", str(data)]) == 0
        assert cli_main(["train", "--case", tri3_case, "--data", str(data),
                         "--threshold", "0.95", "--epochs", "6", "--layers", "2",
                         "--channels", "8", "--out", str(model)]) == 0
        assert cli_main(["eval", "--case", tri3_case, "--data", str(data),
                         "--model", str(model), "--out-dir", str(out)]) == 0
        runs.append((data, model, out / "report_095.json"))

    (data_a, model_a, report_a), (data_b, model_b, report_b) = runs
    assert data_a.read_bytes() == data_b.read_bytes()
    assert model_a.read_bytes() == model_b.read_bytes()
    assert _normalized_bytes(report_a) == _normalized_bytes(report_b)
    _report(10, "determinism", "dataset, model byte-identical; report identical (timing excluded)")
