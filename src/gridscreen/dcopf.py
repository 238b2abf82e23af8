"""DC optimal power flow: LP assembly, solve, branch flows, limit checks.

Variables are generator outputs (MW) and bus voltage angles (radians, slack
pinned to zero).  Nodal balance rows are scaled to per-unit for conditioning;
flow-limit rows are written in MW.  The reduced variant keeps flow limits
only for a monitored subset of branches, while flows are always computed for
every branch afterwards so violations can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcase import Network
from .simplex import LinearProgram, solve_lp

#: default tolerance (MW) for violation reporting, two orders above solver feasibility
REPORT_TOL_MW = 1e-6


@dataclass(frozen=True)
class DispatchSolution:
    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    p_g: np.ndarray | None           # per-generator MW
    theta: np.ndarray | None         # per-bus radians, slack = 0
    flows: np.ndarray | None         # per-branch MW, all branches
    objective: float | None          # sum of cost * output


@dataclass(frozen=True)
class ViolationReport:
    flags: np.ndarray                # per-branch bool
    overload_mw: np.ndarray          # |flow| - rating where positive, else 0
    any_violation: bool


def full_monitored_set(network: Network) -> frozenset[int]:
    return frozenset(range(network.num_branches))


def _check_monitored(network: Network, monitored) -> list[int]:
    mon = sorted(set(int(k) for k in monitored))
    if mon and (mon[0] < 0 or mon[-1] >= network.num_branches):
        raise ValueError(f"monitored branch index out of range: {mon}")
    return mon


def build_opf(network: Network, load_mw: np.ndarray, monitored) -> LinearProgram:
    """Assemble the dispatch LP with flow limits only for monitored branches.

    Variables are ordered [P_g for each generator, theta for each bus].
    """
    load = np.asarray(load_mw, dtype=float)
    if load.shape != (network.num_buses,):
        raise ValueError(f"load vector length {load.size} != number of buses {network.num_buses}")
    mon = _check_monitored(network, monitored)

    ng, nb, nk = network.num_generators, network.num_buses, network.num_branches
    base = network.base_mva
    n = ng + nb
    ef, et = network.branch_endpoints()
    x = network.branch_reactance()

    c = np.zeros(n)
    lower = np.empty(n)
    upper = np.empty(n)
    for gi, gen in enumerate(network.generators):
        c[gi] = gen.cost_per_mwh
        lower[gi] = gen.p_min_mw
        upper[gi] = gen.p_max_mw
    lower[ng:], upper[ng:] = -np.inf, np.inf
    lower[ng + network.slack_index] = upper[ng + network.slack_index] = 0.0

    # nodal balance in per-unit: sum(P_g)/base + incoming - outgoing flows = d/base
    a_eq = np.zeros((nb, n))
    b_eq = load / base
    for gi, gen in enumerate(network.generators):
        a_eq[network.bus_index[gen.bus], gi] = 1.0 / base
    for k in range(nk):
        f, t, sus = ef[k], et[k], 1.0 / x[k]
        # flow_pu[k] = (theta_f - theta_t) / x_k, leaves f, enters t
        a_eq[f, ng + f] -= sus
        a_eq[f, ng + t] += sus
        a_eq[t, ng + f] += sus
        a_eq[t, ng + t] -= sus

    # |flow| <= rating, in MW, one row per side per monitored branch
    a_ub = np.zeros((2 * len(mon), n))
    b_ub = np.empty(2 * len(mon))
    for row, k in enumerate(mon):
        f, t = ef[k], et[k]
        coef = base / x[k]
        a_ub[2 * row, ng + f] = coef
        a_ub[2 * row, ng + t] = -coef
        b_ub[2 * row] = network.branches[k].rate_a_mw
        a_ub[2 * row + 1, ng + f] = -coef
        a_ub[2 * row + 1, ng + t] = coef
        b_ub[2 * row + 1] = network.branches[k].rate_a_mw

    return LinearProgram(
        c=c, lower=lower, upper=upper,
        a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
    )


def line_flows(network: Network, theta: np.ndarray) -> np.ndarray:
    """Branch flows in MW from bus angles: (theta_from - theta_to)/x * base."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (network.num_buses,):
        raise ValueError(f"theta length {theta.size} != number of buses {network.num_buses}")
    ef, et = network.branch_endpoints()
    return (theta[ef] - theta[et]) / network.branch_reactance() * network.base_mva


def solve_opf(network: Network, load_mw: np.ndarray, monitored) -> DispatchSolution:
    """Solve the (reduced) OPF; flows are populated for all branches."""
    lp = build_opf(network, load_mw, monitored)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return DispatchSolution(status=sol.status, p_g=None, theta=None, flows=None, objective=None)
    ng = network.num_generators
    p_g = sol.x[:ng]
    theta = sol.x[ng:]
    return DispatchSolution(
        status="optimal",
        p_g=p_g,
        theta=theta,
        flows=line_flows(network, theta),
        objective=sol.objective,
    )


def check_limits(network: Network, flows: np.ndarray, tolerance_mw: float = REPORT_TOL_MW) -> ViolationReport:
    """Flag branches whose |flow| exceeds the rating by more than tolerance_mw."""
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (network.num_branches,):
        raise ValueError(f"flows length {flows.size} != number of branches {network.num_branches}")
    if tolerance_mw < 0:
        raise ValueError("tolerance must be >= 0")
    rating = network.branch_rating()
    over = np.abs(flows) - rating
    flags = over > tolerance_mw
    return ViolationReport(
        flags=flags,
        overload_mw=np.where(flags, over, 0.0),
        any_violation=bool(flags.any()),
    )
