import numpy as np
import pytest
from scipy.optimize import linprog

from gridscreen import (
    LinearProgram,
    SimplexIterationLimit,
    build_opf,
    full_monitored_set,
    solve_lp,
)


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
    # and the free column enters in phase 2 because its cost prices it in
    sol = solve_lp(lp([1.0], [-np.inf], [np.inf], a_ub=[[-1.0]], b_ub=[2.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-2.0, abs=1e-9)
    assert sol.diagnostics["phase1_iterations"] == 1 and sol.diagnostics["pivots"] == 1


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
    problem = build_opf(tri3, tri3.base_load(), full_monitored_set(tri3))
    with pytest.raises(SimplexIterationLimit):
        solve_lp(problem, max_iterations=2)
    # only None selects the default budget; a budget below one is an input error
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            solve_lp(problem, max_iterations=bad)


def test_solver_counters_bound_flips():
    # both columns run from lower to upper bound without a basis change
    sol = solve_lp(lp([-1.0, -1.0], [0.0, 0.0], [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0]))
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.diagnostics["bound_flips"] == 2
    assert sol.diagnostics["pivots"] == 0
    assert sol.diagnostics["bland_engaged"] is False


def test_case14_iteration_counts(case14):
    """The shift-factor LP and the slack start keep the solve short; counts repeat on any machine."""
    rng = np.random.default_rng(0)
    base = case14.base_load()
    phase1, total = [], []
    for _ in range(20):
        load = base * rng.uniform(0.9, 1.1, base.size)
        sol = solve_lp(build_opf(case14, load, full_monitored_set(case14)))
        assert sol.status == "optimal"
        assert sol.diagnostics["refactorizations"] >= 1
        phase1.append(sol.diagnostics["phase1_iterations"])
        total.append(sol.iterations)
    assert np.mean(phase1) <= 4
    assert np.mean(total) <= 6


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


def test_dimension_validation():
    with pytest.raises(ValueError):
        lp([1.0, 2.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        lp([1.0], [0.0], [1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])


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
def test_random_cross_check_against_scipy(maker, trials, seed):
    """Status and optimum agree with an independent solver; solutions are feasible."""
    rng = np.random.default_rng(seed)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(trials):
        c, lower, upper, a_eq, b_eq, a_ub, b_ub = maker(rng)
        problem = lp(c, lower, upper, a_eq, b_eq, a_ub, b_ub)
        mine = solve_lp(problem)
        ref = linprog(
            c,
            A_ub=a_ub if a_ub.size else None, b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.size else None, b_eq=b_eq if b_eq.size else None,
            bounds=list(zip(lower, upper)), method="highs",
        )
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert mine.status == expected
        statuses[mine.status] += 1
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-6)
            if a_eq.size:
                assert np.abs(a_eq @ mine.x - b_eq).max() < 1e-6
            if a_ub.size:
                assert (a_ub @ mine.x - b_ub).max() < 1e-6
            assert (lower - mine.x).max() < 1e-9
            assert (mine.x - upper).max() < 1e-9
    # the generator must actually exercise all three outcomes
    assert min(statuses.values()) > 0
