"""Independent brute-force references for the dispatch solver tests.

Everything here goes through injection-shift sensitivities computed with
plain linear algebra (reduced Laplacian inverse), never through the simplex
path under test.
"""

from __future__ import annotations

import numpy as np


def ptdf_matrix(network) -> np.ndarray:
    """(K, N) sensitivity of each branch flow to a 1 MW bus injection."""
    nb, nk = network.num_buses, network.num_branches
    ef, et = network.branch_endpoints()
    sus = 1.0 / network.branch_reactance()
    lap = np.zeros((nb, nb))
    for k in range(nk):
        f, t = ef[k], et[k]
        lap[f, f] += sus[k]
        lap[t, t] += sus[k]
        lap[f, t] -= sus[k]
        lap[t, f] -= sus[k]
    keep = [i for i, bus in enumerate(network.buses) if bus.bus_type != "slack"]
    linv = np.zeros((nb, nb))
    linv[np.ix_(keep, keep)] = np.linalg.inv(lap[np.ix_(keep, keep)])
    ptdf = np.zeros((nk, nb))
    for k in range(nk):
        ptdf[k] = sus[k] * (linv[ef[k]] - linv[et[k]])
    return ptdf


def oracle_flows(network, p_g, load) -> np.ndarray:
    """Branch flows for a balanced dispatch, via PTDF only."""
    inj = -np.asarray(load, dtype=float)
    for gi, gen in enumerate(network.generators):
        inj[network.bus_index[gen.bus]] += p_g[gi]
    return ptdf_matrix(network) @ inj


def grid_search_opf(network, load, monitored, step=0.1):
    """Exhaustive min-cost dispatch at fixed resolution; None if no feasible point.

    Handles 2- and 3-generator networks (the last generator output is fixed
    by power balance).
    """
    load = np.asarray(load, dtype=float)
    total = float(load.sum())
    gens = network.generators
    ptdf = ptdf_matrix(network)
    gbus = [network.bus_index[g.bus] for g in gens]
    costs = np.array([g.cost_per_mwh for g in gens])
    rate = network.rating
    mon = sorted(monitored)

    def axis(g):
        return np.arange(g.p_min_mw, g.p_max_mw + step / 2, step)

    if len(gens) == 2:
        g0 = axis(gens[0])
        grid = np.column_stack([g0, total - g0])
    elif len(gens) == 3:
        g0, g1 = np.meshgrid(axis(gens[0]), axis(gens[1]), indexing="ij")
        g0, g1 = g0.ravel(), g1.ravel()
        grid = np.column_stack([g0, g1, total - g0 - g1])
    else:
        raise NotImplementedError("oracle supports 2 or 3 generators")

    ok = np.ones(grid.shape[0], dtype=bool)
    for gi, gen in enumerate(gens):
        ok &= (grid[:, gi] >= gen.p_min_mw - 1e-9) & (grid[:, gi] <= gen.p_max_mw + 1e-9)
    if not ok.any():
        return None
    grid = grid[ok]

    inj = -np.tile(load, (grid.shape[0], 1))
    for gi in range(len(gens)):
        inj[:, gbus[gi]] += grid[:, gi]
    flows = inj @ ptdf.T
    feasible = np.ones(grid.shape[0], dtype=bool)
    for k in mon:
        feasible &= np.abs(flows[:, k]) <= rate[k] + 1e-9
    if not feasible.any():
        return None
    cost = grid @ costs
    cost[~feasible] = np.inf
    best = int(np.argmin(cost))
    return grid[best], float(cost[best])
