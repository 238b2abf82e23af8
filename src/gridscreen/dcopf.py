"""DC optimal power flow: LP assembly, solve, branch flows, limit checks.

The LP is the shift-factor (PTDF) form (Stott, Jardim & Alsac, "DC power flow
revisited", IEEE TPWRS 2009): its variables are the generator outputs in MW,
with one balance row and two rows per monitored branch, so the reduced
variant, which limits only a monitored subset, shrinks with that subset.
The PTDF and the other constants of the LP are derived once per Network
(see netcase.Network), so a build only slices the monitored rows and
multiplies the PTDF by the load.  Flows are computed for every branch
afterwards so violations can be audited.

This module owns the start policy of every dispatch, for any monitored
set.  On a set's first sight _warm_start builds the set's LP at the base
load and prepares its solved basis (simplex.WarmStart); dispatches answers
each load by dual pivots from it, else solves cold.  A Network keeps the
starts of at most MAX_WARM_STARTS sets and drops the least recently used
first.  solve_opf is the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcase import Network
from .simplex import LinearProgram, WarmStart, solve_lp

#: default tolerance (MW) for violation reporting, two orders above solver feasibility
REPORT_TOL_MW = 1e-6

#: monitored sets whose warm start a Network keeps; the least recently used goes first
MAX_WARM_STARTS = 8


@dataclass(frozen=True)
class DispatchSolution:
    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    p_g: np.ndarray | None           # per-generator MW
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
    """The distinct branch indices of `monitored` in ascending order; ValueError on a non-integer entry or one out of range.

    A float or a bool is not a branch index, even where int() would take it.
    """
    entries = list(monitored)
    for entry in entries:
        # a plain int passes the first test alone, which keeps the check cheap per dispatch
        if type(entry) is not int and (isinstance(entry, bool) or not isinstance(entry, (int, np.integer))):
            raise ValueError(f"monitored branch index must be an integer, got {entry!r}")
    mon = sorted(set(map(int, entries)))
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
    rows = np.array(_check_monitored(network, monitored), dtype=int)
    rhs = _rhs(network, [load], rows)[0]
    shift = network.gen_ptdf[rows]
    return LinearProgram(
        c=network.gen_cost, lower=network.gen_p_min, upper=network.gen_p_max,
        a_eq=np.ones((1, network.num_generators)), b_eq=rhs[:1],
        a_ub=np.vstack([shift, -shift]), b_ub=rhs[1:],
    )


def _rhs(network: Network, loads: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The dispatch LP's [b_eq; b_ub] at each checked load, one row per load: sum(load), then rating + f0 and rating - f0 over rows.

    build_opf and dispatches both build their rows here, so a dispatch
    reads the rhs its cold solve would.
    """
    rating, k = network.rating[rows], rows.size
    out = np.empty((len(loads), 1 + 2 * k))
    for row, load in zip(out, loads):
        # all rows of f0, so each LP row matches _flows to the bit
        base_flow = (network.ptdf @ load)[rows]
        row[0] = load.sum()
        np.add(rating, base_flow, out=row[1:1 + k])
        np.subtract(rating, base_flow, out=row[1 + k:])
    return out


def _warm_start(network: Network, mon) -> WarmStart:
    """The WarmStart of the dispatch LP at the base load with limits on `mon` only.

    `mon` holds distinct branch indices in ascending order, as
    _check_monitored returns them.  A set's first sight builds and solves
    its LP and prepares the basis; later calls return the same start until
    MAX_WARM_STARTS other sets have been used since.  Its .solution is that
    LP's cold solve; where the LP has no optimal basis, the start answers
    None for every load.
    """
    key = tuple(mon)
    starts = network._warm_starts
    start = starts.pop(key, None)
    if start is None:
        start = WarmStart(build_opf(network, network.base_load(), key))
        if len(starts) >= MAX_WARM_STARTS:
            del starts[next(iter(starts))]
    starts[key] = start  # reinserted, so the dict runs from least to most recently used
    return start


def dispatches(network: Network, loads, monitored) -> list[np.ndarray | None]:
    """The dispatch at each of `loads` with limits on the `monitored` branches only, or None where a load is infeasible.

    Every load is answered in one batch from the monitored set's warm
    start (_warm_start): a load that its base-load basis covers needs no
    pivot, any other takes a few dual simplex pivots.  Only the loads the
    warm start leaves unanswered, which include every infeasible one, are
    solved cold by solve_opf.  So each dispatch has the bits of its own
    cold solve, whatever else is in the batch and whatever sets came
    before.
    """
    mon = _check_monitored(network, monitored)
    checked = [_check_load(network, load) for load in loads]
    if not checked:
        return []
    answers = _warm_start(network, mon).vertices(_rhs(network, checked, np.array(mon, dtype=int)))
    return [solve_opf(network, load, mon).p_g if p_g is None else p_g
            for load, p_g in zip(checked, answers)]


def _flows(network: Network, p_g: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Branch flows in MW: PTDF @ (generation - load) per bus at a checked load, the slack taking any imbalance."""
    return network.gen_ptdf @ p_g - network.ptdf @ load


def solve_opf(network: Network, load_mw: np.ndarray, monitored) -> DispatchSolution:
    """Build, solve and read back the (reduced) OPF; flows cover all branches.

    This is the cold path, behind dispatches' fallback and the solve
    command.  Without generators the LP has no column, so it is feasible
    only for zero net load that the monitored ratings admit.
    """
    load = np.asarray(load_mw, dtype=float)
    sol = solve_lp(build_opf(network, load, monitored))  # the build checks the load
    if sol.status != "optimal":
        return DispatchSolution(status=sol.status, p_g=None, flows=None, objective=None)
    return DispatchSolution(status=sol.status, p_g=sol.x, flows=_flows(network, sol.x, load), objective=sol.objective)


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
