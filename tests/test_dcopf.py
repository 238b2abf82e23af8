import dataclasses
import inspect
import re

import numpy as np
import pytest

import oracles
from gridscreen import dcopf, netcase
from gridscreen import (
    build_opf,
    check_limits,
    full_monitored_set,
    generate_dataset,
    label_sample,
    parse_case,
    run_ropf,
    serialize_case,
    solve_opf,
)
from gridscreen.samplegen import Sample
from gridscreen.simplex import LinearProgram


def test_build_counts_full(tri3):
    problem = build_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    assert problem.num_variables == 2          # one per generator
    assert problem.a_eq.shape == (1, 2)
    assert problem.a_ub.shape == (6, 2)


def test_build_counts_empty_and_single(tri3):
    assert build_opf(tri3, tri3.base_load(), frozenset()).a_ub.shape[0] == 0
    assert build_opf(tri3, tri3.base_load(), {1}).a_ub.shape[0] == 2


def test_build_balance_row(tri3):
    problem = build_opf(tri3, tri3.base_load(), frozenset())
    assert problem.a_eq.tolist() == [[1.0, 1.0]]     # sum of P_g ...
    assert problem.b_eq.tolist() == [150.0]          # ... = sum of load


@pytest.mark.parametrize("name", ["tri3", "case14"])
def test_assembled_lp_is_what_the_checked_constructor_makes(name, request):
    """build_opf's LP has the fields, shapes, dtypes and bits of LinearProgram built from plain lists of them."""
    network = request.getfixturevalue(name)
    load = network.base_load() * 1.05
    for monitored in (full_monitored_set(network), {0}, frozenset()):
        built = build_opf(network, load, monitored)
        fields = [f.name for f in dataclasses.fields(LinearProgram)]
        checked = LinearProgram(**{k: getattr(built, k).tolist() for k in fields})
        for k in fields:
            got, want = getattr(built, k), getattr(checked, k)
            assert got.dtype == want.dtype == np.float64, k
            assert got.shape == want.shape, k
            assert got.tobytes() == want.tobytes(), k
        assert built.a_ub.shape == (2 * len(monitored), network.num_generators)


def test_build_load_length_error(tri3):
    with pytest.raises(ValueError, match="load vector length"):
        build_opf(tri3, np.zeros(4), frozenset())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_load_rejected(tri3, bad):
    load = tri3.base_load()
    load[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        build_opf(tri3, load, full_monitored_set(tri3))


def test_build_monitored_range_error(tri3, tri3_base_sample):
    with pytest.raises(ValueError, match="out of range"):
        build_opf(tri3, tri3.base_load(), {3})
    # int() would turn these into branches 0, 9 and 1; each is named instead
    for entry in (0.9, 9.99, True, np.bool_(True), np.float64(1.0)):
        for monitored in ([entry], [0, entry]):
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {entry!r}")):
                build_opf(tri3, tri3.base_load(), monitored)
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {entry!r}")):
                run_ropf(tri3, tri3_base_sample, monitored)
    # numpy integers are branch indices
    assert build_opf(tri3, tri3.base_load(), np.array([2, 0])).b_ub.tolist() == \
        build_opf(tri3, tri3.base_load(), [0, 2]).b_ub.tolist()


def test_tri3_full_solution(tri3):
    sol = solve_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2100.0, abs=1e-6)
    assert sol.p_g == pytest.approx([90.0, 60.0], abs=1e-6)
    assert sol.flows == pytest.approx([10.0, 80.0, 70.0], abs=1e-6)


def test_tri3_unmonitored_solution(tri3):
    sol = solve_opf(tri3, tri3.base_load(), frozenset())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1500.0, abs=1e-6)
    assert sol.p_g == pytest.approx([150.0, 0.0], abs=1e-6)
    assert sol.flows[1] == pytest.approx(100.0, abs=1e-6)


def test_tri3_overload_infeasible(tri3):
    sol = solve_opf(tri3, np.array([0.0, 0.0, 450.0]), full_monitored_set(tri3))
    assert sol.status == "infeasible"
    assert sol.p_g is None and sol.flows is None


def test_solve_opf_checks_the_load_once(tri3_text, case14, monkeypatch):
    """build_opf checks the load; the flows of the solution, and of samples, skip the check."""
    tri3 = parse_case(tri3_text)  # its own network: a shared one may have solved its base case already
    calls = []
    check = dcopf._check_load
    monkeypatch.setattr(dcopf, "_check_load", lambda *a: calls.append(a) or check(*a))
    load = case14.base_load() * 1.05
    sol = solve_opf(case14, load, full_monitored_set(case14))
    assert len(calls) == 1
    assert sol.flows.tobytes() == dcopf._flows(case14, sol.p_g, load).tobytes()
    calls.clear()
    generate_dataset(tri3, 4, 0.1, seed=1)
    # the base case's build, its dispatch's check and each sample's check, none for the flows
    assert len(calls) == 6


def test_dispatches_have_the_cold_bits(case14, monkeypatch):
    solved, solve = [], dcopf.solve_opf
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1]) or solve(*a))
    # the base basis covers 1.01x and 1x the base load; 1.3x takes dual pivots
    # from it; 9x is infeasible, so the warm start leaves it to a cold solve
    loads = [case14.base_load() * 1.01, case14.base_load() * 9, case14.base_load(), case14.base_load() * 1.3]
    for monitored in (full_monitored_set(case14), {0, 9}, frozenset()):
        solved.clear()
        near, infeasible, same, far = dcopf.dispatches(case14, loads, monitored)
        assert [load.tobytes() for load in solved] == [loads[1].tobytes()]
        assert near.tobytes() == solve_opf(case14, loads[0], monitored).p_g.tobytes()
        assert infeasible is None
        assert same.tobytes() == dcopf._warm_start(case14, sorted(monitored)).solution.x.tobytes()
        assert far.tobytes() == solve_opf(case14, loads[3], monitored).p_g.tobytes()
    assert dcopf.dispatches(case14, [], {0}) == []
    with pytest.raises(ValueError, match="load vector length"):
        dcopf.dispatches(case14, [np.ones(3)], {0})
    with pytest.raises(ValueError, match="out of range"):
        dcopf.dispatches(case14, [], {case14.num_branches})


def test_dispatches_without_a_base_basis_solve_cold(tri3_text):
    """A set whose base-load LP has no optimal basis has no basis to check against: every load is solved cold."""
    net = parse_case(tri3_text.replace("3 1 150.0", "3 1 500.0"))
    assert dcopf._warm_start(net, (0, 1, 2)).solution.status == "infeasible"
    loads = [net.base_load() * 0.3, net.base_load()]
    low, base = dcopf.dispatches(net, loads, full_monitored_set(net))
    assert low.tobytes() == solve_opf(net, loads[0], full_monitored_set(net)).p_g.tobytes()
    assert base is None
    # at 40 MW, line 1-3 cannot carry the third of the base load that it
    # must, so only its own set is infeasible at the base load
    net = parse_case(tri3_text.replace("1 3 0.1 80.0", "1 3 0.1 40.0"))
    assert dcopf._warm_start(net, (1,)).solution.status == "infeasible"
    assert dcopf._warm_start(net, ()).solution.status == "optimal"
    loads = [net.base_load() * 0.5, net.base_load()]
    for monitored in ({1}, {0, 1, 2}):
        low, base = dcopf.dispatches(net, loads, monitored)
        assert low.tobytes() == solve_opf(net, loads[0], monitored).p_g.tobytes()
        assert base is None


def _set_kinds(network, sample, rng) -> list:
    """The monitored sets a screen gives: none, every branch, fixed ones, a random fifth and the oracle's."""
    nk = network.num_branches
    return [frozenset(), full_monitored_set(network), {0, nk - 1}, {0, 1, 2},
            set(np.flatnonzero(rng.random(nk) < 0.2).tolist()),
            *(set(np.flatnonzero(label_sample(sample.flows_mw, network, tau)).tolist()) for tau in (0.7, 0.9))]


@pytest.mark.parametrize("name,magnitude", [("case14", 0.1), ("case14", 0.6), ("tri3", 0.6)])
def test_warm_dispatches_do_not_depend_on_the_sets_before(name, magnitude, request, monkeypatch):
    """Each set's dispatch has the bits of its cold solve, in either order over more sets than a Network keeps."""
    net = parse_case(serialize_case(request.getfixturevalue(name)))  # a Network with no start prepared
    samples = generate_dataset(net, 30, magnitude, seed=3).samples
    rng = np.random.default_rng(3)
    jobs = [(s.load_mw, mon) for s in samples for mon in _set_kinds(net, s, rng)]
    if name == "tri3":  # 3 branches give only 8 sets, so keep fewer
        monkeypatch.setattr(dcopf, "MAX_WARM_STARTS", 3)
    assert len({frozenset(mon) for _, mon in jobs}) > dcopf.MAX_WARM_STARTS
    solved, solve = [], dcopf.solve_opf
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1]) or solve(*a))
    forward = [dcopf.dispatches(net, [load], mon)[0] for load, mon in jobs]
    backward = [dcopf.dispatches(net, [load], mon)[0] for load, mon in reversed(jobs)][::-1]
    assert solved == []  # every answer came from a warm start
    for (load, mon), first, second in zip(jobs, forward, backward):
        assert first.tobytes() == second.tobytes() == solve(net, load, mon).p_g.tobytes()
    # a batch keeps each load's cold bits at its set's first sight, after
    # MAX_WARM_STARTS other sets have evicted the set's start, and once it is prepared again
    batch = [s.load_mw for s in samples[:6]]
    for mon in (full_monitored_set(net), {0, net.num_branches - 1}):
        fresh = parse_case(serialize_case(net))
        key = tuple(sorted(mon))
        others = list(dict.fromkeys(tuple(sorted(m)) for _, m in jobs if set(m) != mon))[:dcopf.MAX_WARM_STARTS]
        cold = [solve(fresh, load, mon).p_g.tobytes() for load in batch]
        assert [p_g.tobytes() for p_g in dcopf.dispatches(fresh, batch, mon)] == cold
        start = fresh._warm_starts[key]
        for other in others:
            dcopf.dispatches(fresh, batch[:1], other)
        assert key not in fresh._warm_starts  # evicted
        assert [p_g.tobytes() for p_g in dcopf.dispatches(fresh, batch, mon)] == cold
        assert fresh._warm_starts[key] is not start  # prepared again
        assert [p_g.tobytes() for p_g in dcopf.dispatches(fresh, batch, mon)] == cold
    assert solved == []


def test_line_flows_zero_injection(tri3):
    assert dcopf._flows(tri3, np.zeros(2), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_line_flows_direct_substitution(tri3):
    flows = dcopf._flows(tri3, np.array([90.0, 60.0]), tri3.base_load())
    assert flows == pytest.approx([10.0, 80.0, 70.0], abs=1e-9)


def test_line_flows_antisymmetric(tri3_text, tri3):
    reversed_text = tri3_text.replace("1 3 0.1 80.0", "3 1 0.1 80.0")
    net_rev = parse_case(reversed_text)
    p_g, load = np.array([90.0, 60.0]), tri3.base_load()
    assert dcopf._flows(net_rev, p_g, load)[1] == -dcopf._flows(tri3, p_g, load)[1]


def test_line_flows_linear(tri3):
    rng = np.random.default_rng(0)
    p1, p2 = rng.normal(size=2), rng.normal(size=2)
    d1, d2 = rng.normal(size=3), rng.normal(size=3)
    lhs = dcopf._flows(tri3, 2.0 * p1 + 0.5 * p2, 2.0 * d1 + 0.5 * d2)
    rhs = 2.0 * dcopf._flows(tri3, p1, d1) + 0.5 * dcopf._flows(tri3, p2, d2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_no_generator_case(tri3):
    # the LP would have no column; a network may still parse without generators
    from dataclasses import replace

    bare = replace(tri3, generators=())
    assert solve_opf(bare, tri3.base_load(), full_monitored_set(tri3)).status == "infeasible"
    sol = solve_opf(bare, np.zeros(3), full_monitored_set(tri3))
    assert sol.status == "optimal" and sol.objective == 0.0
    assert sol.p_g.size == 0 and sol.flows.tolist() == [0.0, 0.0, 0.0]
    # a tiny net load gets the same verdict whichever lines are monitored,
    # as a relaxation must: within the 1e-7 MW tolerance or not
    for net_load, status in ((1e-12, "optimal"), (5e-8, "optimal"), (5e-6, "infeasible")):
        load = np.array([0.0, 0.0, net_load])
        for monitored in (full_monitored_set(tri3), ()):
            assert solve_opf(bare, load, monitored).status == status, (net_load, monitored)


def test_check_limits_at_limit_not_flagged(tri3):
    report = check_limits(tri3, np.array([10.0, 80.0, 70.0]))
    assert not report.any_violation
    assert report.overload_mw.tolist() == [0.0, 0.0, 0.0]


def test_check_limits_overload(tri3):
    report = check_limits(tri3, np.array([50.0, 100.0, 50.0]))
    assert report.flags.tolist() == [False, True, False]
    assert report.overload_mw[1] == pytest.approx(20.0)
    assert report.any_violation


def test_check_limits_validation(tri3):
    with pytest.raises(ValueError):
        check_limits(tri3, np.zeros(2))


def test_check_limits_no_branches_vacuous(tri3):
    # branch-less Network cannot come from the parser; build it directly
    from dataclasses import replace

    bare = replace(tri3, branches=())
    report = check_limits(bare, np.zeros(0))
    assert report.flags.size == 0
    assert not report.any_violation


def test_power_balance_property(tri3, case14):
    rng = np.random.default_rng(5)
    for net in (tri3, case14):
        base = net.base_load()
        for _ in range(25):
            load = base * rng.uniform(0.8, 1.2, base.size)
            sol = solve_opf(net, load, full_monitored_set(net))
            if sol.status != "optimal":
                continue
            assert abs(sol.p_g.sum() - load.sum()) <= 1e-6


def test_relaxation_monotonicity(case14):
    rng = np.random.default_rng(6)
    base = case14.base_load()
    nk = case14.num_branches
    for _ in range(20):
        load = base * rng.uniform(0.9, 1.1, base.size)
        r2 = set(int(k) for k in rng.choice(nk, size=rng.integers(1, nk), replace=False))
        r1 = set(k for k in r2 if rng.random() < 0.5)
        s1 = solve_opf(case14, load, r1)
        s2 = solve_opf(case14, load, r2)
        if s1.status == s2.status == "optimal":
            assert s1.objective <= s2.objective + 1e-6


def test_full_monitoring_equivalence(case14):
    load = case14.base_load() * 1.05
    via_set = solve_opf(case14, load, set(range(case14.num_branches)))
    via_helper = solve_opf(case14, load, full_monitored_set(case14))
    assert via_set.objective == via_helper.objective


def test_feasibility_equality_and_monitored_never_violate(case14):
    rng = np.random.default_rng(7)
    base = case14.base_load()
    rating = case14.rating
    checked_equal = 0
    for _ in range(30):
        load = base * rng.uniform(0.9, 1.1, base.size)
        full = solve_opf(case14, load, full_monitored_set(case14))
        if full.status != "optimal":
            continue
        monitored = set(int(k) for k in np.flatnonzero(rng.random(case14.num_branches) < 0.4))
        reduced = solve_opf(case14, load, monitored)
        assert reduced.status == "optimal"
        # monitored branches always satisfy their limits
        for k in monitored:
            assert abs(reduced.flows[k]) <= rating[k] + 1e-6
        # no violation anywhere -> objectives agree
        if not check_limits(case14, reduced.flows).any_violation:
            assert reduced.objective == pytest.approx(full.objective, rel=1e-6)
            checked_equal += 1
    assert checked_equal > 0


def test_tri3_matches_grid_search_oracle(tri3):
    dispatch, objective = oracles.grid_search_opf(
        tri3, tri3.base_load(), full_monitored_set(tri3), step=0.1
    )
    sol = solve_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    assert np.abs(sol.p_g - dispatch).max() <= 0.2
    assert sol.objective <= objective + 1e-6


def test_oracle_flows_agree_with_line_flows(tri3, case14):
    sol = solve_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    flows = oracles.oracle_flows(tri3, sol.p_g, tri3.base_load())
    assert flows == pytest.approx(sol.flows, abs=1e-7)
    # balanced random dispatches on case14, against the explicit-inverse reference
    rng = np.random.default_rng(8)
    for _ in range(10):
        load = case14.base_load() * rng.uniform(0.9, 1.1, case14.num_buses)
        p_g = rng.dirichlet(np.ones(case14.num_generators)) * load.sum()
        assert np.abs(dcopf._flows(case14, p_g, load) - oracles.oracle_flows(case14, p_g, load)).max() <= 1e-9


def test_ptdf_derived_once_per_network(monkeypatch, case14):
    calls = []

    def counting(network):
        calls.append(network)
        return shift_factors(network)

    shift_factors = netcase._shift_factors
    monkeypatch.setattr(netcase, "_shift_factors", counting)
    net = parse_case(netcase.serialize_case(case14))   # a Network with an empty cache
    rng = np.random.default_rng(3)
    for i in range(10):
        load = net.base_load() * rng.uniform(0.9, 1.1, net.num_buses)
        full = solve_opf(net, load, full_monitored_set(net))
        check_limits(net, full.flows)
        sample = Sample(i, load, full.p_g, None, None, full.flows, full.objective)
        run_ropf(net, sample, {0, 3})
    assert len(calls) == 1 and calls[0] is net


def test_oracle_keeps_its_own_ptdf(case14):
    source = inspect.getsource(oracles)
    assert "gridscreen" not in source and "_shift_factors" not in source
    assert ".ptdf" not in source and "gen_ptdf" not in source
    assert "np.linalg.inv" in source     # the explicit-inverse derivation
    assert np.abs(oracles.ptdf_matrix(case14) - case14.ptdf).max() <= 1e-12


RING4 = """
#BASE
100.0
#BUS
1 3 0.0
2 1 {d2}
3 1 {d3}
4 2 0.0
#GEN
1 {c1} 0.0 {m1}
4 {c2} 0.0 {m2}
#BRANCH
1 2 0.15 {r}
2 3 0.2 {r}
3 4 0.15 {r}
4 1 0.1 {r}
"""


def test_three_generator_matches_grid_search_oracle():
    """3-generator 4-bus case against the exhaustive 0.1 MW mesh."""
    net = parse_case("""
#BASE
100.0
#BUS
1 3 0.0
2 2 18.0
3 1 27.0
4 2 0.0
#GEN
1 6.0 0.0 30.0
2 11.0 0.0 30.0
4 17.0 0.0 30.0
#BRANCH
1 2 0.15 20.0
2 3 0.2 22.0
3 4 0.15 25.0
4 1 0.1 18.0
""")
    monitored = full_monitored_set(net)
    sol = solve_opf(net, net.base_load(), monitored)
    oracle = oracles.grid_search_opf(net, net.base_load(), monitored, step=0.1)
    assert sol.status == "optimal" and oracle is not None
    dispatch, objective = oracle
    assert sol.objective <= objective + 1e-6
    assert objective - sol.objective <= 0.2 * sum(g.cost_per_mwh for g in net.generators)
    assert np.abs(sol.p_g - dispatch).max() <= 0.2


@pytest.mark.parametrize("seed", range(8))
def test_random_ring_matches_grid_search_oracle(seed):
    """Vertex solutions match an exhaustive 0.1 MW dispatch search."""
    rng = np.random.default_rng(seed + 100)
    c1, c2 = rng.choice([4.0, 7.0, 11.0, 16.0], size=2, replace=False)
    net = parse_case(RING4.format(
        d2=round(rng.uniform(10, 40), 1), d3=round(rng.uniform(10, 40), 1),
        c1=c1, c2=c2,
        m1=round(rng.uniform(30, 80), 1), m2=round(rng.uniform(30, 80), 1),
        r=round(rng.uniform(15, 45), 1),
    ))
    monitored = full_monitored_set(net)
    oracle = oracles.grid_search_opf(net, net.base_load(), monitored, step=0.1)
    sol = solve_opf(net, net.base_load(), monitored)
    if oracle is None:
        # grid found nothing; the LP must agree (up to grid resolution)
        assert sol.status == "infeasible"
        return
    dispatch, objective = oracle
    assert sol.status == "optimal"
    assert sol.objective <= objective + 1e-6
    assert objective - sol.objective <= 0.2 * sum(g.cost_per_mwh for g in net.generators)
    assert np.abs(sol.p_g - dispatch).max() <= 0.2
