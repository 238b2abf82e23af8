import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from gridscreen import (
    LinearProgram,
    SimplexIterationLimit,
    build_opf,
    full_monitored_set,
    parse_case,
    serialize_case,
    solve_lp,
)
from gridscreen import dcopf, simplex
from gridscreen.simplex import WarmStart


def lp(c, lower, upper, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    n = len(c)
    return LinearProgram(
        c=np.asarray(c, float),
        lower=np.asarray(lower, float),
        upper=np.asarray(upper, float),
        a_eq=np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, float),
        b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, float),
        a_ub=np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, float),
        b_ub=np.zeros(0) if b_ub is None else np.asarray(b_ub, float),
    )


def test_one_dimensional():
    sol = solve_lp(lp([1.0], [1.0], [2.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_one_dimensional_via_rows():
    # same problem expressed through inequality rows instead of bounds
    sol = solve_lp(lp([1.0], [-np.inf], [np.inf], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 2.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_contradictory_equalities_infeasible():
    sol = solve_lp(lp([0.0], [-np.inf], [np.inf], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(lp([-1.0], [0.0], [np.inf], a_ub=[[-1.0]], b_ub=[0.0]))
    assert sol.status == "unbounded"


def test_no_constraints_bound_minimization():
    sol = solve_lp(lp([2.0, -3.0, 0.0], [-1.0, -1.0, -1.0], [4.0, 5.0, 6.0]))
    assert sol.status == "optimal"
    assert sol.x.tolist() == [-1.0, 5.0, -1.0]


def test_free_variable_equality():
    # free variable pinned only by an equality row
    sol = solve_lp(lp([1.0, 0.0], [0.0, -np.inf], [np.inf, np.inf],
                      a_eq=[[1.0, 1.0]], b_eq=[3.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(3.0, abs=1e-9)


def test_free_column_enters_by_pricing():
    # the start point x0 = 0 satisfies the row, so phase 1 has no artificial
    # and no pass, and the free column enters in phase 2 because its cost
    # prices it in
    sol = solve_lp(lp([1.0], [-np.inf], [np.inf], a_ub=[[-1.0]], b_ub=[2.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-2.0, abs=1e-9)
    assert sol.diagnostics["phase1_iterations"] == 0 and sol.diagnostics["pivots"] == 1


def test_slack_start_keeps_satisfied_rows():
    # only the violated row (x0 + x1 >= 1) starts on an artificial
    sol = solve_lp(lp([1.0, 1.0], [0.0, 0.0], [np.inf, np.inf],
                      a_ub=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], b_ub=[5.0, 5.0, -1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.diagnostics["pivots"] == 1


def test_phase1_verdict_per_row():
    # an artificial is judged against the rhs of its own row, so a row with a
    # large rhs elsewhere cannot make a 5e-6 residual pass as feasible
    for extra_rhs in ([], [1e6]):
        rows = [[1.0]] * len(extra_rhs)
        near = solve_lp(lp([0.0], [0.0], [1.0], a_eq=[[1.0]], b_eq=[1.0 + 1e-9],
                           a_ub=rows, b_ub=extra_rhs))
        far = solve_lp(lp([0.0], [0.0], [1.0], a_eq=[[1.0]], b_eq=[1.0 + 5e-6],
                          a_ub=rows, b_ub=extra_rhs))
        assert (near.status, far.status) == ("optimal", "infeasible"), extra_rhs


def test_fixed_variable_stays_fixed():
    sol = solve_lp(lp([-1.0, -1.0], [0.0, 2.0], [5.0, 2.0],
                      a_ub=[[1.0, 1.0]], b_ub=[4.0]))
    assert sol.status == "optimal"
    assert sol.x[1] == 2.0
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_tri3_opf_lp_objective(tri3):
    sol = solve_lp(build_opf(tri3, tri3.base_load(), full_monitored_set(tri3)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2100.0, abs=1e-6)


def test_iteration_limit_distinct_from_infeasible(tri3):
    # tri3's base-load LP takes 3 iterations; a core held to 2 stops with the limit, not a verdict
    core = simplex._Core(build_opf(tri3, tri3.base_load(), full_monitored_set(tri3)))
    core.max_iterations = 2
    with pytest.raises(SimplexIterationLimit, match="exceeded 2 iterations"):
        core.run_two_phase()


def test_solver_counters_bound_flips():
    # both columns run from lower to upper bound without a basis change
    sol = solve_lp(lp([-1.0, -1.0], [0.0, 0.0], [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0]))
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.diagnostics["bound_flips"] == 2
    assert sol.diagnostics["pivots"] == 0
    assert sol.diagnostics["bland_engaged"] is False


def test_case14_iteration_counts(case14):
    """The shift-factor LP and the slack start keep the solve short; counts repeat on any machine.

    Each LP's (iterations, pivots) is pinned, so a change of pivot path fails here.
    """
    rng = np.random.default_rng(0)
    base = case14.base_load()
    phase1, total, counts = [], [], []
    for _ in range(20):
        load = base * rng.uniform(0.9, 1.1, base.size)
        sol = solve_lp(build_opf(case14, load, full_monitored_set(case14)))
        assert sol.status == "optimal"
        assert sol.diagnostics["refactorizations"] >= 1
        phase1.append(sol.diagnostics["phase1_iterations"])
        total.append(sol.iterations)
        counts.append((sol.iterations, sol.diagnostics["pivots"]))
    assert np.mean(phase1) <= 4
    assert np.mean(total) <= 6
    assert counts == [(2, 1), (3, 2), (2, 1), (2, 1), (2, 1), (3, 2), (3, 2), (2, 1), (2, 1), (2, 1),
                      (2, 1), (3, 2), (2, 1), (2, 1), (3, 2), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1)]


def test_beale_cycling_example_terminates():
    sol = solve_lp(lp(
        [-0.75, 150.0, -0.02, 6.0], [0.0] * 4, [np.inf] * 4,
        a_ub=[[0.25, -60.0, -1.0 / 25.0, 9.0],
              [0.5, -90.0, -1.0 / 50.0, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0],
    ))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def _scipy_optimum(problem) -> float:
    ref = linprog(problem.c, A_ub=problem.a_ub if problem.a_ub.size else None,
                  b_ub=problem.b_ub if problem.b_ub.size else None,
                  A_eq=problem.a_eq if problem.a_eq.size else None,
                  b_eq=problem.b_eq if problem.b_eq.size else None,
                  bounds=list(zip(problem.lower, problem.upper)), method="highs")
    assert ref.status == 0
    return ref.fun


def test_blands_rule_reaches_the_optimum(case14):
    """With Bland's rule engaged from the first degenerate step, Beale's cycling LP and a case14 dispatch LP reach scipy's optimum.

    Both take a degenerate step and then more steps in the same phase, so
    the smallest-index entering and leaving choices run.
    """
    beale = lp([-0.75, 150.0, -0.02, 6.0], [0.0] * 4, [np.inf] * 4,
               a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
               b_ub=[0.0, 0.0, 1.0])
    # a draw within [0, 2] times the base load whose solve takes degenerate steps
    load = case14.base_load() * np.random.default_rng(32).uniform(0.0, 2.0, case14.num_buses)
    dispatch = build_opf(case14, load, full_monitored_set(case14))
    assert _scipy_optimum(beale) == pytest.approx(-0.05, abs=1e-9)
    for problem in (beale, dispatch):
        core = simplex._Core(problem)
        core.bland_threshold = 0
        assert core.run_two_phase() == "optimal" and core.bland_engaged
        x = core._vertex(core.b)[:problem.num_variables]
        assert float(problem.c @ x) == pytest.approx(_scipy_optimum(problem), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("field,bad", [
    ("c", [np.inf, 0.0]),
    ("lower", [1.0, 5.0]),  # lower > upper on second variable
])
def test_container_validation(field, bad):
    kwargs = dict(c=[1.0, 1.0], lower=[0.0, 0.0], upper=[2.0, 2.0])
    if field == "lower":
        kwargs["upper"] = [2.0, 2.0]
        kwargs["lower"] = bad
    else:
        kwargs[field] = bad
    with pytest.raises(ValueError):
        lp(**kwargs)


@pytest.mark.parametrize("field,value,match", [
    ("a_eq", [[1.0, np.nan]], "a_eq"), ("a_eq", [[np.inf, 1.0]], "a_eq"),
    ("b_eq", [np.nan], "b_eq"), ("b_eq", [-np.inf], "b_eq"),
    ("a_ub", [[1.0, -np.inf]], "a_ub"),
    ("b_ub", [np.nan], "b_ub"), ("b_ub", [np.inf], "b_ub"),
    ("lower", [0.0, np.nan], "lower"), ("upper", [np.nan, 2.0], "upper"),
    ("lower", [np.inf, 0.0], "admits no value"), ("upper", [2.0, -np.inf], "admits no value"),
])
def test_container_rejects_non_finite(field, value, match):
    kwargs = dict(c=[1.0, 1.0], lower=[-np.inf, 0.0], upper=[2.0, 2.0],
                  a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, 0.0]], b_ub=[1.0])
    kwargs[field] = value
    with pytest.raises(ValueError, match=match):
        LinearProgram(**kwargs)


def test_container_accepts_infinite_bounds():
    sol = solve_lp(lp([1.0, -1.0], [-np.inf, 0.0], [np.inf, 3.0],
                      a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, 0.0]], b_ub=[1e300]))
    assert sol.status == "optimal"
    assert sol.x.tolist() == pytest.approx([-2.0, 3.0])


def test_optimal_vertex_counts_one_final_factorization():
    # no pivot and no periodic refactorization: the only factorization is
    # the final solve that reads x_B
    sol = solve_lp(lp([1.0, 2.0], [0.0, 0.0], [5.0, 5.0], a_ub=[[1.0, 1.0]], b_ub=[4.0]))
    assert sol.x.tolist() == [0.0, 0.0]
    assert sol.diagnostics["pivots"] == 0
    assert sol.diagnostics["refactorizations"] == 1


def test_wide_case14_draws_keep_scipys_answer(case14):
    """Case14 dispatch LPs within +-60% of the base load keep scipy's status and optimum.

    Each basis a solve reaches is read anew on its tight rows, and each
    read counts as a refactorization.
    """
    rng = np.random.default_rng(32)
    base, everything = case14.base_load(), full_monitored_set(case14)
    problems = [build_opf(case14, base * rng.uniform(0.4, 1.6, base.size), everything) for _ in range(30)]
    most = 0
    for problem in problems:
        sol = solve_lp(problem)
        ref = linprog(problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub, A_eq=problem.a_eq, b_eq=problem.b_eq,
                      bounds=list(zip(problem.lower, problem.upper)), method="highs")
        assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
        optimal = sol.status == "optimal"
        if optimal:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
        most = max(most, sol.diagnostics["refactorizations"])
    assert most > 2


@pytest.mark.parametrize("every", [1, 2])
def test_periodic_refactorization_keeps_the_answer(case14, monkeypatch, every):
    """With the read of an unchanged basis derived afresh at every use of it or every second one, case14 LPs keep their answer.

    A solve keeps its status, the bytes of its vertex and its iteration and
    pivot counts; each forced derivation counts as one more refactorization.
    """
    rng = np.random.default_rng(32)
    base, everything = case14.base_load(), full_monitored_set(case14)
    problems = [build_opf(case14, base * rng.uniform(0.4, 1.6, base.size), everything) for _ in range(30)]
    plain = [solve_lp(problem) for problem in problems]
    uses, forced, read = [0], [0], simplex._Core.read.fget

    def periodic(core):
        uses[0] += 1
        if uses[0] % every == 0 and core._read is not None:
            core._read = None
            forced[0] += 1
        return read(core)

    monkeypatch.setattr(simplex._Core, "read", property(periodic))
    for problem, old in zip(problems, plain):
        forced[0] = 0
        sol = solve_lp(problem)
        assert sol.status == old.status
        if sol.status == "optimal":
            assert sol.x.tobytes() == old.x.tobytes()
        assert (sol.iterations, sol.diagnostics["pivots"]) == (old.iterations, old.diagnostics["pivots"])
        assert sol.diagnostics["refactorizations"] == old.diagnostics["refactorizations"] + forced[0]
    assert forced[0] > 0


def test_dimension_validation():
    with pytest.raises(ValueError):
        lp([1.0, 2.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        lp([1.0], [0.0], [1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])


def _box_lp(c, demand):
    # min c'x over 0 <= x <= (2, 5) with x0 + x1 >= demand
    return lp(c, [0.0, 0.0], [2.0, 5.0], a_ub=[[-1.0, -1.0]], b_ub=[-demand])


def _rhs(problem):
    return np.concatenate([problem.b_eq, problem.b_ub])


def _count_pivots(monkeypatch) -> list:
    """Record every simplex pivot from here on, primal or dual, at the basis exchange each ends on."""
    pivots, pivot = [], simplex._Core._pivot
    monkeypatch.setattr(simplex._Core, "_pivot", lambda core, *a: pivots.append(a) or pivot(core, *a))
    return pivots


def _count_misses(monkeypatch) -> list:
    """Record the rhs of every row a WarmStart's prepared basis misses from here on."""
    misses, pivoted = [], WarmStart._pivoted
    monkeypatch.setattr(WarmStart, "_pivoted", lambda start, b, x: misses.append(b) or pivoted(start, b, x))
    return misses


def test_start_basis_hit_reads_the_vertex_without_a_pivot(case14, monkeypatch):
    rng = np.random.default_rng(4)
    base = case14.base_load()
    start_lp = build_opf(case14, base, full_monitored_set(case14))
    warm_start = WarmStart(start_lp)
    fresh = WarmStart(start_lp)  # no miss seen yet, so its rows alone meet each child first
    start = np.sort(warm_start._prepared.core.basis)
    problems = [build_opf(case14, base * rng.uniform(0.9, 1.1, base.size), full_monitored_set(case14))
                for _ in range(20)]
    batch = warm_start.vertices([_rhs(p) for p in problems])
    pivots, misses = _count_pivots(monkeypatch), _count_misses(monkeypatch)
    hits = 0
    for problem, warm in zip(problems, batch):
        # one row alone gets the answer it gets in the batch
        del pivots[:], misses[:]
        children = len(fresh._children)
        alone = fresh.vertices([_rhs(problem)])[0]
        started_pivots, first_sight = len(pivots), len(fresh._children) > children
        # a cold solve that ends on the same basis reads the same bits
        cold, core = simplex._solve(problem)
        assert warm.tobytes() == alone.tobytes() == cold.x.tobytes()
        if np.array_equal(np.sort(core.basis), start):
            hits += 1
            assert misses == [] and started_pivots == 0
        else:
            assert len(misses) == 1
            if first_sight:
                assert started_pivots > 0  # a child's first sight takes its dual pivot
    assert 0 < hits < 20


def test_start_basis_is_none_unless_optimal_without_artificials():
    """A cold solve that is not optimal, or that leaves an artificial basic, answers None for every row."""
    for problem, status in (
        (lp([0.0], [-np.inf], [np.inf], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]), "infeasible"),
        (lp([-1.0], [0.0], [np.inf], a_ub=[[-1.0]], b_ub=[-1.0]), "unbounded"),
        # a dependent equality row keeps its artificial basic at zero
        (lp([1.0], [0.0], [5.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 1.0]), "optimal"),
    ):
        warm_start = WarmStart(problem)
        assert warm_start.solution.status == solve_lp(problem).status == status
        assert warm_start.vertices([_rhs(problem), _rhs(problem)]) == [None, None]
    box = _box_lp([1.0, 2.0], 1.0)
    warm_start = WarmStart(box)
    core = warm_start._prepared.core
    assert core.basis.tolist() == [0] and core.status[:3].tolist() == [2, 0, 0]
    assert warm_start.vertices([_rhs(box)])[0].tobytes() == warm_start.solution.x.tobytes()


def test_start_basis_miss_gives_the_cold_answer():
    """A basis that is primal infeasible for a row is pivoted to the cold answer."""
    warm_start = WarmStart(_box_lp([1.0, 2.0], 1.0))  # x0 basic, x1 and the slack at 0
    # rows are b_ub = -demand; x0 is above its bound 2, so it leaves there
    # and x1 enters: one dual pivot
    rows = [[-3.0], [-2.5]]
    vertices = warm_start.vertices(rows)
    for (b_ub,), x in zip(rows, vertices):
        assert x.tobytes() == solve_lp(_box_lp([1.0, 2.0], -b_ub)).x.tobytes()


def _prepared(warm_start) -> dict:
    """The arrays a WarmStart derives once from its prepared basis, by name."""
    read = warm_start._prepared.read
    return {"cols": read.cols, "x": read.x, "n_x_n": read.n_x_n, "rows": read.rows, "signs": read.signs,
            "g": read.g, "lb_basic": read.lb, "ub_basic": read.ub,
            "reduced_costs": warm_start._prepared.reduced_costs}


@pytest.mark.parametrize("name", ["case14", "box"])
def test_start_basis_misses_leave_the_prepared_start_alone(name, request, monkeypatch):
    """Rows that hit, miss, hit and miss get their cold bytes, batched or alone, and change no prepared array."""
    if name == "case14":
        case14 = request.getfixturevalue("case14")
        base, everything = case14.base_load(), full_monitored_set(case14)
        start = build_opf(case14, base, everything)
        problems = [build_opf(case14, base * f, everything) for f in (1.01, 1.3, 0.99, 1.25)]
    else:
        start = _box_lp([1.0, 2.0], 1.0)  # x0 basic; x0 above its bound 2 is a miss
        problems = [_box_lp([1.0, 2.0], demand) for demand in (1.5, 3.0, 0.5, 2.5)]
    warm_start = WarmStart(start)
    core = warm_start._prepared.core
    prepared = _prepared(warm_start)
    before = {key: array.copy() for key, array in prepared.items()}
    core_before = [array.copy() for array in (core.basis, core.status, core.b)]
    for key, array in prepared.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    pivots, misses = _count_pivots(monkeypatch), _count_misses(monkeypatch)
    batch = warm_start.vertices([_rhs(p) for p in problems])
    assert len(misses) == 2 and len(pivots) > 0  # the batch meets each child first
    alone = []
    for problem, miss in zip(problems, (False, True, False, True)):
        del misses[:]
        alone.append(warm_start.vertices([_rhs(problem)])[0])
        assert (len(misses) == 1) == miss
    for problem, x, y in zip(problems, batch, alone):
        assert x.tobytes() == y.tobytes() == solve_lp(problem).x.tobytes()
    assert _prepared(warm_start).keys() == before.keys()
    for key, array in _prepared(warm_start).items():
        assert array is prepared[key] and array.tobytes() == before[key].tobytes(), key
    for array, old in zip((core.basis, core.status, core.b), core_before):
        assert array.tobytes() == old.tobytes()


def _draws(network, count, magnitude, seed):
    """The full-set dispatch LPs of `count` loads drawn uniformly within +-magnitude of the base load."""
    rng = np.random.default_rng(seed)
    base, everything = network.base_load(), full_monitored_set(network)
    return [build_opf(network, base * rng.uniform(1 - magnitude, 1 + magnitude, base.size), everything)
            for _ in range(count)]


def test_a_known_child_answers_a_miss_without_a_pivot(case14, monkeypatch):
    """At +-10% every case14 miss takes one dual pivot, so once its child is known it reads the vertex there."""
    problems = _draws(case14, 60, 0.1, 4)
    warm_start = WarmStart(build_opf(case14, case14.base_load(), full_monitored_set(case14)))
    first = warm_start.vertices([_rhs(p) for p in problems[:30]])
    children = dict(warm_start._children)
    assert children and all(child is not None for child in children.values())
    pivots, misses = _count_pivots(monkeypatch), _count_misses(monkeypatch)
    batch = warm_start.vertices([_rhs(p) for p in problems[30:]])
    assert len(misses) > 0 and pivots == []
    alone = [warm_start.vertices([_rhs(p)])[0] for p in problems[30:]]
    assert len(misses) > 2 and pivots == []
    assert warm_start._children == children
    for problem, x, y in zip(problems, first + batch, [None] * 30 + alone):
        cold = solve_lp(problem).x.tobytes()
        assert x.tobytes() == cold and (y is None or y.tobytes() == cold)
    # where a column prices in at the child, a miss it answers is left to a
    # cold solve, as a dual simplex run that ends there leaves it
    warm_start._children = {key: dataclasses.replace(child, prices_in=True) for key, child in children.items()}
    del misses[:]
    answers = warm_start.vertices([_rhs(p) for p in problems[30:]])
    assert sum(x is None for x in answers) == len(misses) > 0


def test_a_miss_past_its_child_pivots_on_as_before(case14, monkeypatch):
    """A case14 miss at +-60% that takes several dual pivots continues from its child with the pivots of a run from the prepared basis.

    A miss that meets its child first takes the child's pivot on a fork of
    the start and every later pivot on a fork of the child, so it takes
    each pivot of the run.  A miss through a child kept before the call
    forks that child, so it takes one pivot fewer: the child's own.
    """
    problems = _draws(case14, 60, 0.6, 2)
    start_lp = build_opf(case14, case14.base_load(), full_monitored_set(case14))
    reference, warm_start = WarmStart(start_lp), WarmStart(start_lp)
    pivots, misses = _count_pivots(monkeypatch), _count_misses(monkeypatch)
    # per sight of a child, first or kept: the misses that pivot past it
    past = {True: 0, False: 0}
    for problem in problems:
        b = _rhs(problem) / reference._prepared.core.scale
        x = reference._prepared.read.vertex(reference._prepared.read.basics(b))
        if reference._prepared.core.leaving(x) is None:
            continue
        # the whole dual simplex run from the prepared basis, as every miss once took it
        del pivots[:]
        run = reference._prepared.fork(b).dual_simplex(x, reference._prepared.reduced_costs)
        run_pivots = len(pivots)
        cold = solve_lp(problem)
        for _ in range(2):
            del pivots[:], misses[:]
            children = len(warm_start._children)
            y = warm_start.vertices([_rhs(problem)])[0]
            assert len(misses) == 1
            if run is None:
                assert y is None
            else:
                assert y.tobytes() == run[:problem.num_variables].tobytes() == cold.x.tobytes()
            first_sight = len(warm_start._children) > children
            # a kept child answers with no pivot, or hands its pivot on to the fork
            assert len(pivots) == (run_pivots if first_sight else max(run_pivots - 1, 0))
            past[first_sight] += run_pivots >= 2
    assert past[True] > 0 and past[False] > 0


def test_a_child_without_an_entering_column_answers_none(tri3_text, monkeypatch):
    """Where a miss's first dual pivot finds no column to enter, its child answers None and dispatches solves cold."""
    net = parse_case(tri3_text)  # its own network, with no warm start prepared yet
    everything = full_monitored_set(net)
    solved, solve = [], dcopf.solve_opf
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1]) or solve(*a))
    # 450 MW and 600 MW exceed the 400 MW the two generators can make
    loads = [net.base_load() * 3, net.base_load() * 4]
    mon = sorted(everything)
    warm_start = dcopf._warm_start(net, mon)
    pivots = _count_pivots(monkeypatch)
    assert warm_start.vertices([_rhs(build_opf(net, load, mon)) for load in loads]) == [None, None]
    assert pivots == [] and list(warm_start._children.values()) == [None]
    assert dcopf.dispatches(net, loads, everything) == [None, None]
    assert [load.tobytes() for load in solved] == [load.tobytes() for load in loads]


def _singular(*args):
    raise simplex.SingularBasisError("basis matrix singular at the vertex read")


def test_a_singular_read_at_the_start_answers_none_for_every_row(case14, monkeypatch):
    """Where the prepared basis reads as singular, every row answers None and dispatches solves each load cold."""
    everything = full_monitored_set(case14)
    loads = [case14.base_load() * f for f in (1.0, 1.05, 1.3)]
    rows = [_rhs(build_opf(case14, load, everything)) for load in loads]
    warm_start = WarmStart(build_opf(case14, case14.base_load(), everything))
    assert all(x is not None for x in warm_start.vertices(rows))
    cold = [dcopf.solve_opf(case14, load, everything).p_g.tobytes() for load in loads]
    monkeypatch.setattr(simplex._VertexRead, "checked_vertex", _singular)
    solved, solve = [], dcopf.solve_opf
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1]) or solve(*a))
    assert warm_start.vertices(rows) == [None] * len(rows)
    assert [p_g.tobytes() for p_g in dcopf.dispatches(case14, loads, everything)] == cold
    assert [load.tobytes() for load in solved] == [load.tobytes() for load in loads]


def test_a_singular_read_at_a_child_answers_none_for_its_row_only(case14, monkeypatch):
    """Where a child's read finds B singular, each miss through it answers None and every hit its cold bytes."""
    problems = _draws(case14, 30, 0.1, 4)
    rows = [_rhs(p) for p in problems]
    warm_start = WarmStart(build_opf(case14, case14.base_load(), full_monitored_set(case14)))
    _, hit = warm_start._prepared.read.checked_vertex(np.array(rows) / warm_start._prepared.core.scale)
    assert 0 < hit.sum() < len(rows)
    read = simplex._VertexRead.checked_vertex

    def singular_at_a_child(self, b):
        # only the reads of the records the start keeps as children are singular
        if any(child is not None and child.read is self for child in warm_start._children.values()):
            _singular()
        return read(self, b)

    monkeypatch.setattr(simplex._VertexRead, "checked_vertex", singular_at_a_child)
    answers = warm_start.vertices(rows)
    assert warm_start._children and all(child is not None for child in warm_start._children.values())
    for problem, x, ok in zip(problems, answers, hit):
        assert x.tobytes() == solve_lp(problem).x.tobytes() if ok else x is None


def test_a_singular_dual_simplex_answers_none(case14, monkeypatch):
    """Where the dual pivots past a child meet a singular basis, that miss answers None and every other row as before."""
    problems = _draws(case14, 60, 0.6, 2)
    rows = [_rhs(p) for p in problems]
    start_lp = build_opf(case14, case14.base_load(), full_monitored_set(case14))
    before = WarmStart(start_lp).vertices(rows)
    warm_start = WarmStart(start_lp)
    ran = []
    monkeypatch.setattr(simplex._Core, "dual_simplex", lambda core, x, d: ran.append(core.b.tobytes()) or _singular())
    answers = warm_start.vertices(rows)
    singular = [(row / warm_start._prepared.core.scale).tobytes() in ran for row in rows]
    assert any(x is not None and hit for x, hit in zip(before, singular))
    for x, y, hit in zip(answers, before, singular):
        assert x is None if hit or y is None else x.tobytes() == y.tobytes()


def test_a_failing_pivot_past_a_child_answers_none_and_the_load_is_solved_cold(case14, monkeypatch):
    """Where a miss's first pivot past its child meets a singular pivot element, that miss answers None and dispatches solves it cold.

    Once a batch has met the first pivot of each of its misses, another
    pass over it pivots only past a child, on a fork of that child's core,
    for a miss whose vertex at the child is not primal feasible.
    """
    net = parse_case(serialize_case(case14))  # a Network with no start prepared
    everything = full_monitored_set(net)
    rng = np.random.default_rng(2)
    loads = [net.base_load() * rng.uniform(0.4, 1.6, net.num_buses) for _ in range(60)]
    cold = [dcopf.solve_opf(net, load, everything).p_g for load in loads]
    cold = [None if p_g is None else p_g.tobytes() for p_g in cold]
    assert [None if p_g is None else p_g.tobytes() for p_g in dcopf.dispatches(net, loads, everything)] == cold
    warm_start = dcopf._warm_start(net, sorted(everything))
    children = dict(warm_start._children)

    continued, inside, failed = [], [], []
    pivot, vertices = simplex._Core._pivot, WarmStart.vertices

    def failing_pivot(core, *args):
        if not inside or any(core is other for other in failed):
            return pivot(core, *args)
        failed.append(core)
        continued.append(core.b.tobytes())
        raise simplex.SingularBasisError("pivot element too small: 0.0")

    def flagged_vertices(start, rhs):
        inside.append(start)
        try:
            return vertices(start, rhs)
        finally:
            inside.pop()

    monkeypatch.setattr(simplex._Core, "_pivot", failing_pivot)
    monkeypatch.setattr(WarmStart, "vertices", flagged_vertices)
    solved, solve = [], dcopf.solve_opf
    monkeypatch.setattr(dcopf, "solve_opf", lambda *a: solved.append(a[1].tobytes()) or solve(*a))
    rhs = dcopf._rhs(net, loads, np.array(sorted(everything)))
    answers = warm_start.vertices(rhs)
    failing = [(row / warm_start._prepared.core.scale).tobytes() in continued for row in rhs]
    assert 0 < len(continued) == sum(failing)
    assert [x is None for x in answers] == [hit or p_g is None for hit, p_g in zip(failing, cold)]
    assert warm_start._children.keys() == children.keys()  # no first pivot was taken again
    assert all(warm_start._children[key] is child for key, child in children.items())

    del solved[:]
    again = dcopf.dispatches(net, loads, everything)
    assert [None if p_g is None else p_g.tobytes() for p_g in again] == cold
    assert solved == [load.tobytes() for load, x in zip(loads, answers) if x is None]


def test_children_are_bounded_read_only_and_leave_the_start_alone(case14, monkeypatch):
    """Misses at +-60% keep at most 2 children per row, each read-only, with no array larger than m * t.

    t, a child's count of basic real columns, is its number of tight rows:
    the child keeps the m x t array G of its vertex read and otherwise
    vectors no longer than a column or a row, so no m x m array.  The
    misses that later pivot on from a kept child leave its core's basis,
    statuses and pivot count as they were.
    """
    warm_start = WarmStart(build_opf(case14, case14.base_load(), full_monitored_set(case14)))
    core = warm_start._prepared.core
    prepared = {key: array.copy() for key, array in _prepared(warm_start).items()}
    core_before = [array.copy() for array in (core.basis, core.status, core.b)]
    problems = _draws(case14, 200, 0.6, 3)
    rows = [_rhs(p) for p in problems]
    first = warm_start.vertices(rows[:100])
    kept = {id(child): (child.core.basis.tobytes(), child.core.status.tobytes(), child.core.pivots)
            for child in warm_start._children.values() if child is not None}
    forks, fork = [], simplex._Prepared.fork

    def recording_fork(record, b):
        forks.append((record, fork(record, b)))
        return forks[-1][1]

    monkeypatch.setattr(simplex._Prepared, "fork", recording_fork)
    for problem, x in zip(problems, first + warm_start.vertices(rows[100:])):
        assert x.tobytes() == solve_lp(problem).x.tobytes()
    # some misses pivot on from a child kept before the second batch
    assert any(id(record) in kept and forked.pivots > record.core.pivots for record, forked in forks)
    children = [child for child in warm_start._children.values() if child is not None]
    assert 1 < len(children) and len(warm_start._children) <= 2 * core.m
    for child in children:
        t = child.read.t
        assert 0 < t < core.m and child.read.g.shape == (core.m, t) and not child.read.g.flags.writeable
        for array in (child.read.cols, child.read.x, child.read.n_x_n, child.read.rows, child.read.signs,
                      child.read.lb, child.read.ub, child.reduced_costs, child.core.basis, child.core.status):
            assert not array.flags.writeable and array.size <= core.m + core.n
        if id(child) in kept:
            assert (child.core.basis.tobytes(), child.core.status.tobytes(), child.core.pivots) == kept[id(child)]
    for key, array in _prepared(warm_start).items():
        assert array.tobytes() == prepared[key].tobytes(), key
    for array, old in zip((core.basis, core.status, core.b), core_before):
        assert array.tobytes() == old.tobytes()


def test_no_prepared_array_is_m_by_m(case14):
    """No array that a prepared case14 start, its core or its children hold has the shape (m, m) of a basis inverse."""
    warm_start = WarmStart(build_opf(case14, case14.base_load(), full_monitored_set(case14)))
    problems = _draws(case14, 200, 0.6, 3)
    warm_start.vertices([_rhs(p) for p in problems])
    children = [child for child in warm_start._children.values() if child is not None]
    assert children
    core = warm_start._prepared.core
    records = [warm_start._prepared, *children]
    holders = [warm_start, core, *records, *(record.read for record in records)]
    arrays = [value for holder in holders for value in vars(holder).values() if isinstance(value, np.ndarray)]
    assert len(arrays) > 10 and (core.m, core.m) not in {array.shape for array in arrays}


def _dense_basics(read, core, b) -> np.ndarray:
    """x_B on read's sorted columns by one dense solve of B x_B = b - N x_N."""
    return np.linalg.solve(core.a[:, read.cols], (b - read.n_x_n).T).T


def _with_negated_balance_row(problem):
    """problem with its equality rows repeated, negated, after them: one artificial stays basic, with sign -1."""
    return dataclasses.replace(problem, a_eq=np.vstack([problem.a_eq, -problem.a_eq]),
                               b_eq=np.concatenate([problem.b_eq, -problem.b_eq]))


@pytest.mark.parametrize("name,magnitude", [("case14", 0.6), ("tri3", 0.3)])
def test_the_tight_row_read_matches_a_dense_solve(name, magnitude, request):
    """The start, its children and a cold solve that keeps a -1 artificial basic read x_B as a dense LAPACK solve does, to 1e-9."""
    network = request.getfixturevalue(name)
    problems = _draws(network, 200, magnitude, 5)
    warm_start = WarmStart(build_opf(network, network.base_load(), full_monitored_set(network)))
    core = warm_start._prepared.core
    warm_start.vertices([_rhs(p) for p in problems])
    children = [child for child in warm_start._children.values() if child is not None]
    assert children
    b = np.array([_rhs(p) for p in problems]) / core.scale
    for read in [warm_start._prepared.read] + [child.read for child in children]:
        dense = _dense_basics(read, core, b)
        assert np.abs(read.basics(b) - dense).max() <= 1e-9 * np.abs(dense).max()
    # the dependent copy of the balance row keeps its artificial basic at zero
    for problem in problems[:10]:
        solution, cold = simplex._solve(_with_negated_balance_row(problem))
        read = simplex._VertexRead(cold)
        artificials = cold.basis[cold.basis >= cold.n_real]
        assert solution.status == "optimal" and cold.a[artificials - cold.n_real, artificials].tolist() == [-1.0]
        assert -1.0 in read.signs.tolist()
        dense = _dense_basics(read, cold, cold.b)
        assert np.abs(read.basics(cold.b) - dense).max() <= 1e-9 * np.abs(dense).max()
        assert np.abs(solution.x - solve_lp(problem).x).max() <= 1e-9 * np.abs(solution.x).max()


def test_each_stacked_row_reads_the_bytes_of_a_single_read():
    """With more tight rows than numpy sums pairwise in one block (8), a stacked read still gives each row its single-read bytes."""
    rng = np.random.default_rng(0)
    n, me, mi = 24, 12, 8
    a_eq, a_ub = rng.normal(0, 1, (me, n)), rng.normal(0, 1, (mi, n))
    x0 = rng.uniform(1, 9, n)
    problem = lp(rng.normal(0, 1, n), np.zeros(n), np.full(n, 10.0), a_eq=a_eq, b_eq=a_eq @ x0,
                 a_ub=a_ub, b_ub=a_ub @ x0 + 1.0)
    warm_start = WarmStart(problem)
    read = warm_start._prepared.read
    assert read.t > 8
    rows = _rhs(problem) * rng.uniform(0.99, 1.01, (20, me + mi))
    b = rows / warm_start._prepared.core.scale
    stacked = read.basics(b)
    for row, x in zip(b, stacked):
        assert x.tobytes() == read.basics(row).tobytes()
    for row, x in zip(rows, warm_start.vertices(rows)):
        assert x.tobytes() == warm_start.vertices([row])[0].tobytes()


def test_a_singular_basis_fails_the_read():
    """Two unit columns on one row, or a singular A_TP, raise SingularBasisError where the read is derived."""
    # x0 and x1 have the same column, so a basis of both leaves A_TP singular
    core = simplex._Core(lp([1.0, 1.0, 1.0], [0.0] * 3, [5.0] * 3, a_eq=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                            b_eq=[2.0, 3.0]))
    core.basis, core.status[:3] = np.array([0, 1]), [simplex._BASIC, simplex._BASIC, simplex._AT_LOWER]
    with pytest.raises(simplex.SingularBasisError, match="singular at the vertex read"):
        simplex._VertexRead(core)
    # row 0's slack (column 2) and its artificial (column 4) cover one row
    core = simplex._Core(lp([1.0, 1.0], [0.0] * 2, [5.0] * 2, a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 1.0]))
    core.basis, core.status[:] = np.array([2, 4]), simplex._AT_LOWER
    core.status[core.basis] = simplex._BASIC
    with pytest.raises(simplex.SingularBasisError, match="cover one row"):
        simplex._VertexRead(core)


def _share_a_row(core):
    """Make core's basis singular: a basic real column gives way to the artificial of a row whose slack is basic."""
    slack = core.basis[(core.basis < core.n_real) & (core.unit_row[core.basis] >= 0)][0]
    r = int(np.flatnonzero(core.unit_row[core.basis] < 0)[0])
    core.status[core.basis[r]] = simplex._AT_LOWER
    core.basis[r] = core.n_real + core.unit_row[slack]
    core.status[core.basis[r]] = simplex._BASIC
    core._read = None  # the basis changed outside _pivot, so drop the read of the old one as _pivot does


def test_a_start_that_keeps_an_artificial_basic_is_not_prepared(case14, monkeypatch):
    """Where the cold solve's basis keeps an artificial basic, prepare_dual answers None before any read, and every row answers None.

    The artificial swapped in shares a row with a basic slack, so that
    basis is also singular, but prepare_dual's basic-artificial check
    returns before a read could find it so.
    """
    start_lp = build_opf(case14, case14.base_load(), full_monitored_set(case14))
    prepare, cores = simplex._Core.prepare_dual, []
    # between the cold solve and the preparation, the basis turns singular
    monkeypatch.setattr(simplex._Core, "prepare_dual",
                        lambda core: cores.append(core) or _share_a_row(core) or prepare(core))
    warm_start = WarmStart(start_lp)
    assert len(cores) == 1 and warm_start.solution.status == "optimal"
    with pytest.raises(simplex.SingularBasisError, match="cover one row"):
        simplex._VertexRead(cores[0])
    assert warm_start._prepared is None
    assert warm_start.vertices([_rhs(start_lp)] * 3) == [None] * 3


def test_an_optimal_cold_solve_gives_a_start_where_no_column_prices_in(case14, tri3):
    """Every optimal cold solve that leaves no artificial basic is prepared, and no column prices in at its basis.

    The start's record reuses the read, costs and tolerance of the cold
    solve's last pricing pass, which found no improving column.  Over the
    random LP suite and case14/tri3 dispatch LPs within +-60% of the base load.
    """
    problems = _draws(case14, 40, 0.6, 5) + _draws(tri3, 40, 0.6, 5)
    for maker, seed in ((_random_problem, 0), (_random_degenerate_problem, 1), (_random_free_column_problem, 2)):
        rng = np.random.default_rng(seed)
        problems += [lp(*maker(rng)) for _ in range(80)]
    prepared = artificial_basic = 0
    for problem in problems:
        solution, core = simplex._solve(problem)
        if solution.status != "optimal":
            continue
        if (core.basis >= core.n_real).any():
            artificial_basic += 1
            continue
        record = core.prepare_dual()
        assert record is not None and record.prices_in is False
        prepared += 1
    assert prepared > len(problems) // 3 and artificial_basic > 0


def test_a_child_whose_read_finds_a_shared_row_is_kept_as_none(case14, monkeypatch):
    """Where the basis a miss's first dual pivot reaches has two unit columns on one row, that child is None and its misses answer None."""
    problems = _draws(case14, 30, 0.1, 4)
    warm_start = WarmStart(build_opf(case14, case14.base_load(), full_monitored_set(case14)))
    start = warm_start._prepared
    _, hit = start.read.checked_vertex(np.array([_rhs(p) for p in problems]) / start.core.scale)
    assert 0 < hit.sum() < len(problems)
    dual_pivot = simplex._Core.dual_pivot
    monkeypatch.setattr(simplex._Core, "dual_pivot", lambda core, *a: dual_pivot(core, *a) and _share_a_row(core) is None)
    answers = warm_start.vertices([_rhs(p) for p in problems])
    assert warm_start._children and all(child is None for child in warm_start._children.values())
    for problem, x, ok in zip(problems, answers, hit):
        assert x.tobytes() == solve_lp(problem).x.tobytes() if ok else x is None


def test_start_vertices_checks_its_rhs():
    problem = _box_lp([1.0, 2.0], 1.0)
    warm_start = WarmStart(problem)
    assert warm_start.vertices(np.zeros((0, 1))) == []
    for bad in ([-1.0], [[-1.0, 0.0]], [[np.inf]], [[np.nan]]):
        with pytest.raises(ValueError):
            warm_start.vertices(bad)


def _random_problem(rng):
    n = int(rng.integers(1, 10))
    me = int(rng.integers(0, min(n, 4) + 1))
    mi = int(rng.integers(0, 8))
    c = rng.normal(0, 5, n).round(2)
    lower = np.where(rng.random(n) < 0.25, -np.inf, rng.uniform(-5, 0, n).round(2))
    upper = np.where(rng.random(n) < 0.25, np.inf, rng.uniform(0.5, 6, n).round(2))
    a_eq = rng.normal(0, 2, (me, n)).round(2)
    b_eq = rng.normal(0, 2, me).round(2)
    a_ub = rng.normal(0, 2, (mi, n)).round(2)
    b_ub = rng.normal(1, 2, mi).round(2)
    return c, lower, upper, a_eq, b_eq, a_ub, b_ub


def _random_degenerate_problem(rng):
    # small integer data with repeated rows/costs provokes degeneracy
    n = int(rng.integers(5, 25))
    me = int(rng.integers(0, 6))
    mi = int(rng.integers(1, 15))
    c = rng.choice([0.0, 1.0, -1.0, 2.0], n)
    lower = np.where(rng.random(n) < 0.3, -np.inf, 0.0)
    upper = np.where(rng.random(n) < 0.3, np.inf, rng.choice([1.0, 2.0], n))
    a_eq = rng.choice([0.0, 0.0, 1.0, -1.0], (me, n))
    b_eq = rng.choice([0.0, 1.0], me)
    a_ub = rng.choice([0.0, 0.0, 1.0, -1.0], (mi, n))
    b_ub = rng.choice([0.0, 1.0, 3.0], mi)
    return c, lower, upper, a_eq, b_eq, a_ub, b_ub


def _random_free_column_problem(rng):
    # mostly free columns, which start nonbasic at 0 and must enter through
    # pricing; equality rows with linear combinations of earlier rows
    # (consistent or not), which leave dependent artificials basic; and
    # inequality rows that the start point violates, which start on an
    # artificial
    n = int(rng.integers(3, 12))
    free = rng.random(n) < 0.6
    c = rng.normal(0, 3, n).round(2)
    lower = np.where(free, -np.inf, rng.uniform(-3, 0, n).round(2))
    upper = np.where(free, np.inf, rng.uniform(0.5, 4, n).round(2))
    base = rng.normal(0, 2, (int(rng.integers(1, n)), n)).round(2)
    b_base = rng.normal(0, 2, base.shape[0]).round(2)
    mix = rng.integers(-1, 2, (int(rng.integers(0, 3)), base.shape[0])).astype(float)
    a_eq = np.vstack([base, mix @ base])
    b_eq = np.concatenate([b_base, mix @ b_base])
    if mix.shape[0] and rng.random() < 0.3:
        b_eq[-1] += 1.0
    mi = int(rng.integers(1, 8))
    a_ub = rng.normal(0, 2, (mi, n)).round(2)
    b_ub = rng.normal(-1, 2, mi).round(2)
    return c, lower, upper, a_eq, b_eq, a_ub, b_ub


@pytest.mark.parametrize("maker,trials,seed", [
    (_random_problem, 250, 0),
    (_random_degenerate_problem, 80, 1),
    (_random_free_column_problem, 250, 2),
])
def test_random_cross_check_against_scipy(maker, trials, seed, monkeypatch):
    """Status and optimum agree with an independent solver; solutions are feasible.

    Each LP is solved cold, and it is also answered from the basis of the
    same LP with a nearby rhs and with a farther one, with or without dual
    pivots; a vertex that warm start gives must agree with the reference too.
    """
    rng = np.random.default_rng(seed)
    perturb = np.random.default_rng(100 + seed)
    farther = np.random.default_rng(200 + seed)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    started = pivoted = 0
    for _ in range(trials):
        c, lower, upper, a_eq, b_eq, a_ub, b_ub = maker(rng)
        problem = lp(c, lower, upper, a_eq, b_eq, a_ub, b_ub)
        warm = []
        for shift, spread in ((perturb, 0.1), (farther, 1.0)):
            other = WarmStart(lp(c, lower, upper, a_eq, b_eq + shift.normal(0, spread, b_eq.size).round(2),
                                 a_ub, b_ub + shift.normal(0, spread, b_ub.size).round(2)))
            pivots = _count_pivots(monkeypatch)
            x = other.vertices([np.concatenate([b_eq, b_ub])])[0]
            monkeypatch.undo()
            started += x is not None and shift is perturb
            pivoted += x is not None and len(pivots) > 0
            warm.append(x)
        mine = solve_lp(problem)
        ref = linprog(
            c,
            A_ub=a_ub if a_ub.size else None, b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.size else None, b_eq=b_eq if b_eq.size else None,
            bounds=list(zip(lower, upper)), method="highs",
        )
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses[expected] += 1
        assert mine.status == expected
        # a start answers only an LP with an optimum
        assert all(x is None for x in warm) or expected == "optimal"
        for x in (mine.x, *warm):
            if x is not None:
                assert float(c @ x) == pytest.approx(ref.fun, rel=1e-7, abs=1e-6)
                if a_eq.size:
                    assert np.abs(a_eq @ x - b_eq).max() < 1e-6
                if a_ub.size:
                    assert (a_ub @ x - b_ub).max() < 1e-6
                assert (lower - x).max() < 1e-9
                assert (x - upper).max() < 1e-9
    # the generator must actually exercise all three outcomes, the start
    # path, and dual pivots on it
    assert min(statuses.values()) > 0
    assert started >= trials // 10
    assert pivoted > 0


def _phase1_record(monkeypatch) -> list:
    """Per solve from here on: phase 1's iterations, its pivots plus bound flips, and whether an artificial ends it basic."""
    records, iterate = [], simplex._Core._iterate

    def recording(core, c, phase):
        moves = core.pivots + core.bound_flips
        status = iterate(core, c, phase)
        if phase == 1:
            records.append((core.iterations, core.pivots + core.bound_flips - moves,
                            bool((core.basis >= core.n_real).any())))
        return status

    monkeypatch.setattr(simplex._Core, "_iterate", recording)
    return records


def test_phase1_stops_when_no_artificial_is_basic(case14, monkeypatch):
    """Phase 1 ends as soon as no artificial is basic: each of its iterations then pivots or flips a bound.

    Only a phase 1 that ends with an artificial basic (infeasible, or one
    left at zero) spends a pass on pricing alone.
    """
    records = _phase1_record(monkeypatch)
    problems = []
    rng = np.random.default_rng(8)
    base = case14.base_load()
    for _ in range(20):
        load = base * rng.uniform(0.9, 1.1, base.size)
        full = build_opf(case14, load, full_monitored_set(case14))
        flows = dcopf._flows(case14, solve_lp(full).x, load)
        problems.append(full)
        for tau in (0.5, 0.9, 0.99):
            problems.append(build_opf(case14, load, np.flatnonzero(np.abs(flows) >= tau * case14.rating)))
    case14_problems = len(problems)
    for maker, seed in ((_random_problem, 0), (_random_degenerate_problem, 1), (_random_free_column_problem, 2)):
        rng = np.random.default_rng(seed)
        problems += [lp(*maker(rng)) for _ in range(80)]
    del records[:]
    solutions = [solve_lp(problem) for problem in problems]
    assert len(records) == len(solutions)
    stopped = 0
    for k, ((iterations, moves, artificial_basic), sol) in enumerate(zip(records, solutions)):
        assert sol.diagnostics["phase1_iterations"] == iterations
        if artificial_basic:
            assert iterations == moves + 1
        else:
            assert iterations == moves
            stopped += 1
        if k < case14_problems:
            assert sol.status == "optimal" and not artificial_basic
    assert case14_problems < stopped < len(solutions)
