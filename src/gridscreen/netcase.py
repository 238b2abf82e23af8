"""Grid case model: parse a MATPOWER-style text case into an immutable Network.

The accepted format is a restricted table format, not MATLAB source.  Sections
are introduced by the header lines ``#BASE``, ``#BUS``, ``#GEN`` and
``#BRANCH``; rows are whitespace-separated numeric columns, every value
finite and every id and bus type a whole number; ``%`` starts a comment
line.  Anything outside this subset is a parse error with the line number
reported.

A Network also derives, once, the read-only arrays the dispatch LP reads on
every sample: the shift factors (PTDF), their generator-bus columns, the
branch ratings and the generator cost and bound vectors.  It also keeps,
per monitored set, the base-load dispatch LP solved and its basis prepared
as a warm start (at most MAX_WARM_STARTS sets), from which
dcopf.dispatches answers every load for that set.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

BUS_TYPE_LOAD = "load"
BUS_TYPE_GENERATOR = "generator"
BUS_TYPE_SLACK = "slack"

# per section: its column count, and how many leading columns are ids or types
_SECTION_COLUMNS = {"#BASE": (1, 0), "#BUS": (3, 2), "#GEN": (4, 1), "#BRANCH": (4, 2)}

#: monitored sets whose warm start a Network keeps; the least recently used goes first
MAX_WARM_STARTS = 8


class CaseError(ValueError):
    """Raised for malformed or invalid case text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Bus:
    id: int                 # external bus number, preserved for reporting
    bus_type: str           # "load" | "generator" | "slack"
    base_load_mw: float


@dataclass(frozen=True)
class Branch:
    from_bus: int           # external ids
    to_bus: int
    reactance_pu: float
    rate_a_mw: float


@dataclass(frozen=True)
class Generator:
    bus: int                # external id
    cost_per_mwh: float
    p_min_mw: float
    p_max_mw: float


@dataclass(frozen=True)
class Network:
    """Validated grid model with dense 0-based internal indices.

    ``buses``, ``branches`` and ``generators`` are ordered tuples; all
    derived index maps refer to positions in those tuples.

    The cached properties below, the table of warm starts among them, are
    derived on first use and then shared; the arrays are read-only.
    cached_property stores them in the instance
    ``__dict__``, so they stay out of ``__eq__``, ``serialize_case`` and
    ``fingerprint``, and ``__getstate__`` leaves them out of a pickle (an
    unpickled array would be writable again); ``dataclasses.replace`` gives
    a Network of its own.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    # internal index maps, derived in parse_case
    bus_index: dict[int, int] = field(repr=False)           # external id -> dense index
    slack_index: int = field(repr=False, default=0)

    @property
    def num_buses(self) -> int:
        return len(self.buses)

    @property
    def num_branches(self) -> int:
        return len(self.branches)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def branch_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Internal (from, to) index arrays aligned to branch order."""
        f = np.array([self.bus_index[b.from_bus] for b in self.branches], dtype=int)
        t = np.array([self.bus_index[b.to_bus] for b in self.branches], dtype=int)
        return f, t

    def base_load(self) -> np.ndarray:
        return np.array([b.base_load_mw for b in self.buses], dtype=float)

    def branch_reactance(self) -> np.ndarray:
        return np.array([b.reactance_pu for b in self.branches], dtype=float)

    def fingerprint(self) -> str:
        """Stable content hash of the serialized case."""
        return hashlib.sha256(serialize_case(self).encode("utf-8")).hexdigest()

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def rating(self) -> np.ndarray:
        """(K,) branch ratings in MW."""
        return _read_only(np.array([b.rate_a_mw for b in self.branches], dtype=float))

    @cached_property
    def ptdf(self) -> np.ndarray:
        """(K, N) MW flow on each branch per MW injected at a bus and withdrawn at the slack."""
        return _read_only(_shift_factors(self))

    @cached_property
    def gen_ptdf(self) -> np.ndarray:
        """(K, G) the PTDF columns of the generator buses, in generator order."""
        return _read_only(self.ptdf[:, [self.bus_index[gen.bus] for gen in self.generators]])

    @cached_property
    def gen_cost(self) -> np.ndarray:
        """(G,) generator cost per MWh."""
        return _read_only(np.array([gen.cost_per_mwh for gen in self.generators], dtype=float))

    @cached_property
    def gen_p_min(self) -> np.ndarray:
        """(G,) generator lower limits in MW."""
        return _read_only(np.array([gen.p_min_mw for gen in self.generators], dtype=float))

    @cached_property
    def gen_p_max(self) -> np.ndarray:
        """(G,) generator upper limits in MW."""
        return _read_only(np.array([gen.p_max_mw for gen in self.generators], dtype=float))

    @cached_property
    def _warm_starts(self) -> OrderedDict:
        """Per monitored set (a tuple of branch indices), its warm start, least recently used first."""
        return OrderedDict()

    def warm_start(self, monitored):
        """simplex.WarmStart of the dispatch LP at the base load with limits on `monitored` only.

        `monitored` holds distinct branch indices in ascending order, as
        dcopf checks them.  A set's first sight builds and solves its LP
        and prepares the basis; later calls return the same start until
        MAX_WARM_STARTS other sets have been used since.  Its .solution is
        that LP's cold solve; where the LP has no optimal basis, the start
        answers None for every load.
        """
        key = tuple(monitored)
        starts = self._warm_starts
        start = starts.get(key)
        if start is not None:
            starts.move_to_end(key)
            return start
        from .dcopf import build_opf  # dcopf imports this module
        from .simplex import WarmStart
        start = starts[key] = WarmStart(build_opf(self, self.base_load(), key))
        if len(starts) > MAX_WARM_STARTS:
            starts.popitem(last=False)
        return start


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _shift_factors(network: Network) -> np.ndarray:
    """(K, N) shift factors from one solve on the slack-reduced susceptance matrix."""
    ef, et = network.branch_endpoints()
    unit = np.eye(network.num_buses)
    incidence = unit[ef] - unit[et]
    weighted = incidence / network.branch_reactance()[:, None]
    keep = np.arange(network.num_buses) != network.slack_index
    susceptance = incidence[:, keep].T @ weighted[:, keep]
    ptdf = np.zeros_like(incidence)
    ptdf[:, keep] = np.linalg.solve(susceptance, weighted[:, keep].T).T
    return ptdf


@dataclass(frozen=True)
class GraphTopology:
    """Bus connectivity derived from a Network.

    ``degree`` counts every incident branch, parallel ones included, so it
    is usable as a node feature.  The (K, N) 0/1 incidence matrices of the
    branch ends are cached properties: derived on first use, then shared,
    read-only.
    """

    degree: np.ndarray      # per-bus incident branch count
    edge_from: np.ndarray   # internal from-bus index per branch
    edge_to: np.ndarray     # internal to-bus index per branch

    @cached_property
    def incidence_from(self) -> np.ndarray:
        """(K, N) 1 where a branch leaves a bus."""
        return _read_only(np.eye(self.degree.size)[self.edge_from])

    @cached_property
    def incidence_to(self) -> np.ndarray:
        """(K, N) 1 where a branch enters a bus."""
        return _read_only(np.eye(self.degree.size)[self.edge_to])


def _parse_row(parts: list[str], expected: int, integers: int, line_no: int) -> list:
    """A row's values, each finite; its first `integers` columns (ids and types) must be whole and come back as int."""
    if len(parts) != expected:
        raise CaseError(f"expected {expected} columns, got {len(parts)}", line_no)
    values = []
    for col, tok in enumerate(parts, start=1):
        try:
            value = float(tok)
        except ValueError:
            raise CaseError(f"column {col}: not a number: {tok!r}", line_no) from None
        if not math.isfinite(value):
            raise CaseError(f"column {col}: not a finite number: {tok!r}", line_no)
        if col <= integers:
            if not value.is_integer():
                raise CaseError(f"column {col}: not an integer: {tok!r}", line_no)
            value = int(value)
        values.append(value)
    return values


def parse_case(text: str) -> Network:
    """Parse case text into a validated Network.

    Raises CaseError on syntax problems or invariant violations (duplicate
    bus ids, unknown endpoints, missing/multiple slack, self loops,
    non-positive reactance or rating, disconnected graph).
    """
    sections: dict[str, list[tuple[int, list]]] = {k: [] for k in _SECTION_COLUMNS}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("#"):
            if line not in _SECTION_COLUMNS:
                raise CaseError(f"unknown section header {line!r}", line_no)
            current = line
            continue
        if current is None:
            raise CaseError("data before any section header", line_no)
        sections[current].append((line_no, _parse_row(line.split(), *_SECTION_COLUMNS[current], line_no)))

    if not sections["#BASE"]:
        raise CaseError("missing #BASE section")
    if len(sections["#BASE"]) > 1:
        raise CaseError("multiple #BASE rows", sections["#BASE"][1][0])
    base_line, (base_mva,) = sections["#BASE"][0]
    if base_mva <= 0:
        raise CaseError(f"base MVA must be positive, got {base_mva}", base_line)

    if not sections["#BUS"]:
        raise CaseError("missing #BUS section")

    # Bus table: id, type(1=load, 2=generator, 3=slack), load_mw.  The slack
    # flag comes from the file; load/generator is re-derived from generator
    # placement below.
    raw_buses: list[tuple[int, int, float]] = []
    seen_ids: set[int] = set()
    slack_ids: list[int] = []
    for line_no, (bid, btype, load) in sections["#BUS"]:
        if bid <= 0:
            raise CaseError(f"bus id must be positive, got {bid}", line_no)
        if btype not in (1, 2, 3):
            raise CaseError(f"bus type must be 1, 2 or 3, got {btype}", line_no)
        if bid in seen_ids:
            raise CaseError(f"duplicate bus id {bid}", line_no)
        if load < 0:
            raise CaseError(f"bus {bid}: load must be >= 0, got {load}", line_no)
        seen_ids.add(bid)
        if btype == 3:
            slack_ids.append(bid)
        raw_buses.append((bid, btype, load))
    if len(slack_ids) == 0:
        raise CaseError("no slack bus (type 3) in #BUS section")
    if len(slack_ids) > 1:
        raise CaseError(f"multiple slack buses: {slack_ids}")

    bus_index = {bid: i for i, (bid, _, _) in enumerate(raw_buses)}

    generators: list[Generator] = []
    gen_buses: set[int] = set()
    for line_no, (gbus, cost, pmin, pmax) in sections["#GEN"]:
        if gbus not in bus_index:
            raise CaseError(f"generator references unknown bus {gbus}", line_no)
        if cost < 0:
            raise CaseError(f"generator cost must be >= 0, got {cost}", line_no)
        if pmin < 0 or pmax < pmin:
            raise CaseError(f"generator limits must satisfy 0 <= pmin <= pmax, got [{pmin}, {pmax}]", line_no)
        generators.append(Generator(bus=gbus, cost_per_mwh=cost, p_min_mw=pmin, p_max_mw=pmax))
        gen_buses.add(gbus)

    branches: list[Branch] = []
    for line_no, (fb, tb, x, rate) in sections["#BRANCH"]:
        if fb not in bus_index:
            raise CaseError(f"branch references unknown bus {fb}", line_no)
        if tb not in bus_index:
            raise CaseError(f"branch references unknown bus {tb}", line_no)
        if fb == tb:
            raise CaseError(f"self-loop branch {fb}->{tb}", line_no)
        if x <= 0:
            raise CaseError(f"branch {fb}-{tb}: reactance must be positive, got {x}", line_no)
        if rate <= 0:
            raise CaseError(f"branch {fb}-{tb}: rating must be positive, got {rate}", line_no)
        branches.append(Branch(from_bus=fb, to_bus=tb, reactance_pu=x, rate_a_mw=rate))

    # connectivity over undirected adjacency; a branch-less case is degenerate
    if not branches:
        raise CaseError("degenerate case: no branches")
    neighbors: dict[int, set[int]] = {bid: set() for bid in bus_index}
    for br in branches:
        neighbors[br.from_bus].add(br.to_bus)
        neighbors[br.to_bus].add(br.from_bus)
    stack = [raw_buses[0][0]]
    reached: set[int] = set()
    while stack:
        bid = stack.pop()
        if bid in reached:
            continue
        reached.add(bid)
        stack.extend(neighbors[bid] - reached)
    if reached != set(bus_index):
        missing = sorted(set(bus_index) - reached)
        raise CaseError(f"disconnected graph: buses {missing} unreachable from bus {raw_buses[0][0]}")

    buses = tuple(
        Bus(
            id=bid,
            bus_type=(
                BUS_TYPE_SLACK if bid == slack_ids[0]
                else BUS_TYPE_GENERATOR if bid in gen_buses
                else BUS_TYPE_LOAD
            ),
            base_load_mw=load,
        )
        for bid, _, load in raw_buses
    )
    return Network(
        base_mva=base_mva,
        buses=buses,
        branches=tuple(branches),
        generators=tuple(generators),
        bus_index=bus_index,
        slack_index=bus_index[slack_ids[0]],
    )


def serialize_case(network: Network) -> str:
    """Render a Network back to case text; parse_case(serialize_case(n)) == n."""
    type_code = {BUS_TYPE_LOAD: 1, BUS_TYPE_GENERATOR: 2, BUS_TYPE_SLACK: 3}
    lines = ["#BASE", repr(network.base_mva), "#BUS"]
    for bus in network.buses:
        lines.append(f"{bus.id} {type_code[bus.bus_type]} {bus.base_load_mw!r}")
    lines.append("#GEN")
    for gen in network.generators:
        lines.append(f"{gen.bus} {gen.cost_per_mwh!r} {gen.p_min_mw!r} {gen.p_max_mw!r}")
    lines.append("#BRANCH")
    for br in network.branches:
        lines.append(f"{br.from_bus} {br.to_bus} {br.reactance_pu!r} {br.rate_a_mw!r}")
    return "\n".join(lines) + "\n"


def to_graph(network: Network) -> GraphTopology:
    """Derive per-bus degree and the directed edge list."""
    nb = network.num_buses
    edge_from, edge_to = network.branch_endpoints()
    degree = np.bincount(edge_from, minlength=nb) + np.bincount(edge_to, minlength=nb)
    return GraphTopology(degree=degree, edge_from=edge_from, edge_to=edge_to)
