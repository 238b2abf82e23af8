"""DC optimal power flow: LP assembly, solve, branch flows, limit checks.

The LP is the shift-factor (PTDF) form (Stott, Jardim & Alsac, "DC power flow
revisited", IEEE TPWRS 2009): its variables are the generator outputs in MW,
with one balance row and two rows per monitored branch, so the reduced
variant, which limits only a monitored subset, shrinks with that subset.
The PTDF and the other constants of the LP are derived once per Network
(see netcase.Network), so a build only slices the monitored rows and
multiplies the PTDF by the load.  Flows are computed for every branch
afterwards so violations can be audited.  dispatches owns the start policy
of every dispatch, for any monitored set: dual pivots from the basis of
that set's LP at the base load (network.warm_start), else solve cold.
solve_opf is the cold path.
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
    solve_seconds: float             # wall time of solve_opf's solve_lp alone (the cold path)


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
    rhs = _rhs(network, load, mon)
    shift = network.gen_ptdf[mon]
    return LinearProgram(
        c=network.gen_cost, lower=network.gen_p_min, upper=network.gen_p_max,
        a_eq=np.ones((1, network.num_generators)), b_eq=rhs[:1],
        a_ub=np.vstack([shift, -shift]), b_ub=rhs[1:],
    )


def _rhs(network: Network, load: np.ndarray, mon: list[int]) -> np.ndarray:
    """The dispatch LP's [b_eq; b_ub] at a checked load: sum(load), then rating + f0 and rating - f0 over mon."""
    # all rows of f0, so each LP row matches _flows to the bit
    base_flow, rating = (network.ptdf @ load)[mon], network.rating[mon]
    return np.concatenate([[load.sum()], rating + base_flow, rating - base_flow])


def dispatches(network: Network, loads, monitored) -> list[np.ndarray | None]:
    """The dispatch at each of `loads` with limits on the `monitored` branches only, or None where a load is infeasible.

    Every load is answered in one batch from the monitored set's warm
    start (network.warm_start), prepared from the set's LP at the base load
    on the set's first sight: a load that basis covers needs no pivot, any
    other takes a few dual simplex pivots.  Only the loads the warm start
    leaves unanswered, which include every infeasible one, are solved cold
    by solve_opf.  So each dispatch has the bits of its own cold solve,
    whatever else is in the batch and whatever sets came before.
    """
    mon = _check_monitored(network, monitored)
    checked = [_check_load(network, load) for load in loads]
    if not checked:
        return []
    answers = network.warm_start(mon).vertices([_rhs(network, load, mon) for load in checked])
    return [solve_opf(network, load, mon).p_g if p_g is None else p_g
            for load, p_g in zip(checked, answers)]


def _flows(network: Network, p_g: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Branch flows in MW: PTDF @ (generation - load) per bus at a checked load, the slack taking any imbalance."""
    return network.gen_ptdf @ p_g - network.ptdf @ load


def solve_opf(network: Network, load_mw: np.ndarray, monitored) -> DispatchSolution:
    """Build, solve and read back the (reduced) OPF; flows cover all branches.

    This is the cold path, behind dispatches' fallback and the solve
    command; only solve_lp is timed.  Without generators the LP has no
    column, so it is feasible only for zero net load that the monitored
    ratings admit.
    """
    load = np.asarray(load_mw, dtype=float)
    lp = build_opf(network, load, monitored)  # checks the load
    t0 = time.perf_counter()
    sol = solve_lp(lp)
    seconds = time.perf_counter() - t0
    if sol.status != "optimal":
        return DispatchSolution(status=sol.status, p_g=None, flows=None, objective=None, solve_seconds=seconds)
    return DispatchSolution(status=sol.status, p_g=sol.x, flows=_flows(network, sol.x, load),
                            objective=sol.objective, solve_seconds=seconds)


def check_limits(network: Network, flows: np.ndarray) -> ViolationReport:
    """Flag branches whose |flow| exceeds the rating by more than REPORT_TOL_MW."""
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (network.num_branches,):
        raise ValueError(f"flows length {flows.size} != number of branches {network.num_branches}")
    over = np.abs(flows) - network.rating
    flags = over > REPORT_TOL_MW
    return ViolationReport(
        flags=flags,
        overload_mw=np.where(flags, over, 0.0),
        any_violation=bool(flags.any()),
    )
