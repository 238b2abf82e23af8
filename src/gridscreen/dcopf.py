"""DC optimal power flow: LP assembly, solve, branch flows, limit checks.

The LP is the shift-factor (PTDF) form (Stott, Jardim & Alsac, "DC power flow
revisited", IEEE TPWRS 2009): its variables are the generator outputs in MW,
with one balance row and two rows per monitored branch, so the reduced
variant, which limits only a monitored subset, shrinks with that subset.
The PTDF and the other constants of the LP are derived once per Network
(see netcase.Network), so a build only slices the monitored rows and
multiplies the PTDF by the load.  Flows are computed for every branch
afterwards so violations can be audited.
"""

from __future__ import annotations

import time
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
    flows: np.ndarray | None         # per-branch MW, all branches
    objective: float | None          # sum of cost * output
    solve_seconds: float             # wall time of solve_lp alone


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


def _check_load(network: Network, load_mw) -> np.ndarray:
    load = np.asarray(load_mw, dtype=float)
    if load.shape != (network.num_buses,):
        raise ValueError(f"load vector length {load.size} != number of buses {network.num_buses}")
    if not np.isfinite(load).all():
        raise ValueError("load vector has a non-finite value")
    return load


def build_opf(network: Network, load_mw: np.ndarray, monitored) -> LinearProgram:
    """Assemble the dispatch LP with flow limits only for monitored branches.

    The variables are the generator outputs P_g.  One equality row holds
    sum(P_g) = sum(load).  With S = network.gen_ptdf and f0 = network.ptdf @
    load, the flows are S P_g - f0, and the inequality rows are
    S_M P_g - f0_M <= rating_M over the monitored rows M, then their
    negations.  Every constant but f0 is derived once per Network.
    """
    load = _check_load(network, load_mw)
    mon = _check_monitored(network, monitored)
    # all rows of f0, so each LP row matches line_flows to the bit
    shift, base_flow, rating = network.gen_ptdf[mon], (network.ptdf @ load)[mon], network.rating[mon]
    return LinearProgram(
        c=network.gen_cost, lower=network.gen_p_min, upper=network.gen_p_max,
        a_eq=np.ones((1, network.num_generators)), b_eq=[load.sum()],
        a_ub=np.vstack([shift, -shift]),
        b_ub=np.concatenate([rating + base_flow, rating - base_flow]),
    )


def line_flows(network: Network, p_g: np.ndarray, load_mw: np.ndarray) -> np.ndarray:
    """Branch flows in MW: PTDF @ (generation - load) per bus, the slack taking any imbalance."""
    p_g = np.asarray(p_g, dtype=float)
    if p_g.shape != (network.num_generators,):
        raise ValueError(f"p_g length {p_g.size} != number of generators {network.num_generators}")
    return network.gen_ptdf @ p_g - network.ptdf @ _check_load(network, load_mw)


def solve_opf(network: Network, load_mw: np.ndarray, monitored) -> DispatchSolution:
    """Build, solve and read back the (reduced) OPF; flows cover all branches.

    Only solve_lp is timed.  Without generators the LP has no column, so it
    is feasible only for zero net load that the monitored ratings admit.
    """
    lp = build_opf(network, load_mw, monitored)
    t0 = time.perf_counter()
    sol = solve_lp(lp)
    seconds = time.perf_counter() - t0
    if sol.status != "optimal":
        return DispatchSolution(status=sol.status, p_g=None, flows=None, objective=None, solve_seconds=seconds)
    return DispatchSolution(status=sol.status, p_g=sol.x, flows=line_flows(network, sol.x, load_mw),
                            objective=sol.objective, solve_seconds=seconds)


def check_limits(network: Network, flows: np.ndarray, tolerance_mw: float = REPORT_TOL_MW) -> ViolationReport:
    """Flag branches whose |flow| exceeds the rating by more than tolerance_mw."""
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (network.num_branches,):
        raise ValueError(f"flows length {flows.size} != number of branches {network.num_branches}")
    if tolerance_mw < 0:
        raise ValueError("tolerance must be >= 0")
    over = np.abs(flows) - network.rating
    flags = over > tolerance_mw
    return ViolationReport(
        flags=flags,
        overload_mw=np.where(flags, over, 0.0),
        any_violation=bool(flags.any()),
    )
