"""Bounded-variable revised primal simplex.

Solves  min c'x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  lb <= x <= ub,
where any bound may be infinite.  Free variables are handled natively by the
bounded-variable mechanics (no variable splitting); fixed variables
(lb == ub) never enter the basis.

Starting basis (Maros, Computational Techniques of the Simplex Method,
2003, ch. 9): nonbasic variables sit at a finite bound (free ones at 0, from
where ordinary pricing lets them enter).  An inequality row that this point
satisfies keeps its own slack basic; equality rows and violated inequality
rows get an artificial whose sign makes it nonnegative, so phase 1 starts
feasible.  Artificials that start nonbasic are fixed at zero and never enter.

Two phases: the basic artificials are driven to zero under a
sum-of-infeasibilities objective, then the true objective is optimized.
Phase 1 stops as soon as no artificial is basic: its duals are then 0 and
no column prices in, so a pricing pass could only confirm optimality.
The LP is infeasible when an artificial ends phase 1 above 1e-7 times
max(1, |b|) of its own row, so the verdict does not depend on other rows.
Pricing is Dantzig (most negative reduced cost); the ratio test takes the
largest pivot among near-ties, and Bland's smallest-index rule engages after
3*(#vars + #rows) consecutive degenerate steps so cycling cannot occur.
The iteration budget is max(2000, 50*(#vars + #rows)) of the standard
form; a solve that spends it raises SimplexIterationLimit, which is
distinct from infeasibility.

B is factorized one way, on its tight rows (_VertexRead, the small
working basis of Koberstein 2005): the basic slacks and artificials each
cover their own row, so B x_B = b - N x_N reduces to a t x t system over
the t rows they leave.  A core derives that read once per change of basis
or status (a pivot or a bound flip) and takes from it all that the primal
and dual pivots need: x_B, B^-1 times a column (the ratio test), a row of
B^-1 (a dual pivot's alpha, an artificial's drive-out), the duals c_B
B^-1 (pricing) and, from the read of the last pricing pass, the optimal
vertex.  No m x m inverse is formed or updated, and each derivation of a
read counts as a refactorization.  Each solution reports iteration,
pivot, bound-flip and refactorization counts.  An
iteration is a pivot, a bound flip or a pricing pass that finds no
improving column, so a phase 1 that ends with no artificial basic counts
just its pivots and flips (phase1_iterations is 0 when the slack start
has no artificial); phase 2, and a phase 1 that leaves an artificial
basic, end on one pass that only prices.  An LP without rows (bounds
only) or without columns (constant rows) runs through the same two
phases.

Warm start (Koberstein, The dual simplex method, 2005; Maros 2003, the
dual chapters): WarmStart(lp) solves lp cold, through the same two phases
as solve_lp, and keeps the core that solve ends on to answer lp under
other right-hand sides, so the optimal basis never leaves this module.  A
new rhs leaves A, c, the bounds and the row scaling alone (the core keeps
its row scale, which divides each new rhs), so the optimal basis's read
and its one pricing pass (no column may improve), both the cold solve's
last, serve every rhs, and the basis stays dual feasible for every rhs.
The preparation keeps
one read-only record of that basis (_Prepared), which every read reuses:
its vertex read (B's columns in ascending order, the m x t array that maps
the tight rows' rhs to x_B, the nonbasic values and N x_N, the basic
bounds), the reduced costs a miss's first dual pivot reads, and whether a
column prices in.  So one warm answer costs only its arithmetic:
WarmStart.vertices(rhs) scales the rhs rows and, in one call of the read,
reads x_B for all of them with a product and a sum over t per basic value,
checks that x_B is finite and checks it against the bounds.  A row whose
x_B lies within its bounds to 1e-9 (tighter than phase 1's 1e-7 per row)
is answered with no pivot.  Every other row (a miss) runs bounded dual
simplex pivots from the prepared state: the most infeasible basic
variable leaves at the bound it violates, the column with the smallest
|d/alpha| among those that move it toward that bound enters (ties to the
largest |alpha|), so every reduced cost keeps its sign.  A row where no
column can enter, where _DUAL_PIVOT_CAP pivots do not reach a primal
feasible basis, or whose basis the read finds singular, answers None; so
does every row when the cold solve is not optimal, leaves an artificial
basic, or ends on a basis that the read finds singular or that is not
optimal.  The caller solves such a row cold, so only the
two-phase primal judges infeasibility.

A miss's first dual pivot reads the leaving row of B^-1, a, the prepared
reduced costs and the prepared core's statuses, never the rhs, so the
basis it reaches (a child) is a function of the leaving row and its
direction alone.  Each start keeps the child of every (row, direction) a
miss has met, at most 2 per row: a record of the same type, built by the
same constructor on its first sight from the copy of the core that took
the pivot, which also holds the entering column.  No record holds an
m x m array: its largest is the read's m x t one, t being the child's
tight rows (2 on case14, about 16 on ring14x8's 353 rows).  A pivot that
finds no column to enter keeps None, and so does a child whose read finds
its basis singular.  A later miss with the same
first pivot reads its vertex against the child, and a vertex within
bounds there is answered as a hit is, with no pivot.
Any other miss pivots on: on the child's first sight from the pivoted
copy, later from a fresh copy on which the child's one pivot is replayed
through the basis exchange that ends every pivot, primal or dual
(_Core._pivot: the leaving variable rests at the bound it returns to, the
entering column turns basic), and which then reads through the child's
own read.  So a miss that pivots past its child takes the pivots it would
take without children, and every miss reads the bits it would read
without.

Every vertex, cold or warm, the cold solve's own and the one after each
dual pivot included, is read by the same tight-row read, with B's columns
in ascending index order, so its bits depend on the basic set and the
nonbasic statuses, not on the path that reached them.  Reading x_B
calls no BLAS or LAPACK routine, and each basic value's t terms are
summed in one contiguous run, so each item of a stacked read has the bits
of a single read.  So a warm vertex has the bits of a cold solve that
ends on the same basis.

A LinearProgram rejects NaN anywhere, infinities outside the bounds and
bounds out of order when it is built, checking array by array and naming
the array at fault, so a bad input fails there rather than mid-solve.  An
LP that dcopf.build_opf assembles from a checked network and load takes
the same checks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3      # nonbasic free variable, held at value 0
_FIXED = 4     # lb == ub, never eligible to enter

# per status: may a nonbasic column at that status rise, or fall
_CAN_INCREASE = np.array([True, False, False, True, False])
_CAN_DECREASE = np.array([False, True, False, True, False])

_DEGEN_STEP = 1e-9
_START_PRIMAL_TOL = 1e-9
_DUAL_PIVOT_CAP = 50


class SimplexIterationLimit(RuntimeError):
    """Iteration budget exhausted before reaching a terminal status."""


class SingularBasisError(RuntimeError):
    """Basis matrix singular, or its read non-finite."""


@dataclass
class LinearProgram:
    """Canonical LP container: min c'x, A_eq x = b_eq, A_ub x <= b_ub, lb <= x <= ub."""

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.c.size
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.b_ub = np.asarray(self.b_ub, dtype=float)
        # with no column a matrix has no row length, so its rhs gives the row count
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(self.b_eq.size if n == 0 else -1, n)
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(self.b_ub.size if n == 0 else -1, n)
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bounds length must match objective length")
        if self.b_eq.size != self.a_eq.shape[0] or self.b_ub.size != self.a_ub.shape[0]:
            raise ValueError("constraint matrix/rhs dimensions inconsistent")
        if not np.isfinite(self.c).all():
            raise ValueError("objective coefficients must be finite")
        # an infinite b_ub would make a basic slack infinite; drop the row instead
        for name in ("a_eq", "b_eq", "a_ub", "b_ub"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry")
        # a bound may be infinite, where a column has no limit on that side
        for name in ("lower", "upper"):
            if np.isnan(getattr(self, name)).any():
                raise ValueError(f"{name} has a NaN entry")
        if (self.lower == np.inf).any() or (self.upper == -np.inf).any():
            raise ValueError("a lower bound of +inf or an upper bound of -inf admits no value")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def num_variables(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP, reporting optimal/infeasible/unbounded faithfully.

    Raises SimplexIterationLimit when the iteration budget, which grows
    with the LP's size, runs out (distinct from infeasibility) and
    SingularBasisError on an unrecoverable basis.
    """
    return _solve(lp)[0]


def _solve(lp: LinearProgram) -> tuple[LpSolution, _Core]:
    """The two-phase cold solve of lp: its solution and the core it ends on."""
    core = _Core(lp)
    status = core.run_two_phase()
    x = None
    if status == "optimal":
        # the read of the last pricing pass reads the vertex too
        x = core._vertex(core.b)[:lp.num_variables]
    return LpSolution(
        status=status,
        x=x,
        objective=None if x is None else float(lp.c @ x),
        iterations=core.iterations,
        diagnostics=core.diagnostics(),
    ), core


class WarmStart:
    """One LP solved cold, its optimal basis prepared to answer that LP under other right-hand sides.

    .solution is the cold solve's LpSolution, as solve_lp returns it.
    When that solve is not optimal, leaves an artificial basic, or ends on
    a basis whose vertex read finds it singular, or that lets a column
    price in, every row answers None.
    """

    def __init__(self, lp: LinearProgram):
        self._rows = lp.a_eq.shape[0] + lp.a_ub.shape[0]
        self._variables = lp.num_variables
        self.solution, core = _solve(lp)
        # the prepared basis every read reuses; read-only, so a miss's dual
        # pivots, which run on a copy of the core, leave it be
        self._prepared = core.prepare_dual() if self.solution.status == "optimal" else None
        self._core = None if self._prepared is None else core
        # per (leaving row, direction) of a miss's first dual pivot: the
        # basis it reaches, or None where it cannot pivot
        self._children: dict[tuple[int, float], _Prepared | None] = {}

    def vertices(self, rhs) -> list[np.ndarray | None]:
        """Per row of the (S, #rows) array rhs, which stands for [b_eq; b_ub]: the optimal vertex, or None.

        lp's own rhs is not read.  A vertex has the bits that solve_lp
        would return if its cold solve ended on the same basis.  None means
        that the caller must solve that row cold: its LP may be infeasible.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != self._rows:
            raise ValueError(f"rhs must be a batch of rows of length {self._rows}, got shape {rhs.shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs has a non-finite entry")
        if self._prepared is None:
            return [None] * len(rhs)
        b_rows = rhs / self._core.scale
        try:
            x_rows, hit = self._prepared.read.checked_vertex(b_rows)
        except SingularBasisError:
            return [None] * len(rhs)
        return [x[:self._variables] if ok else self._pivoted(b, x) for b, x, ok in zip(b_rows, x_rows, hit)]

    def _pivoted(self, b: np.ndarray, x: np.ndarray) -> np.ndarray | None:
        """The optimal vertex for rhs b by dual pivots from the prepared basis, whose vertex for b is x; or None.

        The first pivot depends on its leaving row and direction alone, so
        the basis it reaches is kept as a child: a later miss with the same
        first pivot reads its vertex there, and pivots on only if that
        vertex is not primal feasible.
        """
        r, rise = key = self._core.leaving(x)
        core = None
        if key not in self._children:
            core = self._copy(b)
            pivoted = core.dual_pivot(r, rise, self._prepared.reduced_costs)
            try:
                self._children[key] = _Prepared.of(core, int(core.basis[r])) if pivoted else None
            except SingularBasisError:
                self._children[key] = None
        child = self._children[key]
        if child is None:
            return None
        try:
            x, hit = child.read.checked_vertex(b)
            if hit:
                return None if child.prices_in else x[:self._variables]
            if core is None:
                # replay the child's pivot on a fresh copy through the same
                # exchange as its first sight; the basis and statuses it
                # reaches are the child's, and so is their read
                core = self._copy(b)
                core._pivot(r, child.entering, rise < 0)
                core._read = child.read
            x = core.dual_simplex(x, child.reduced_costs)
        except SingularBasisError:
            return None
        return None if x is None else x[:self._variables]

    def _copy(self, b: np.ndarray) -> _Core:
        """A copy of the prepared core for rhs b, whose pivots leave the prepared one alone."""
        core = copy.copy(self._core)
        core.b, core.basis, core.status = b, core.basis.copy(), core.status.copy()
        return core


@dataclass(frozen=True)
class _Prepared:
    """A dual-feasible basis readied to answer right-hand sides, read-only and free of any rhs.

    It keeps what answering a rhs there needs: the vertex read (with the
    basic bounds), the reduced costs and whether a column prices in; a
    child, the basis one dual pivot reaches from the start, also keeps the
    column that entered, so its pivot can be replayed.
    """

    read: _VertexRead
    reduced_costs: np.ndarray
    prices_in: bool
    entering: int | None = None

    @staticmethod
    def of(core: _Core, entering: int | None = None) -> _Prepared:
        """The record of core's current basis: a start's, or with entering set, a child's.

        SingularBasisError where the vertex read finds that basis singular.
        No record holds an m x m array: the read keeps an m x t one.
        """
        read = core.read
        d = core.c - read.duals(core.c) @ core.a
        d.flags.writeable = False
        return _Prepared(read, d, bool(core._improving(d, _dual_tol(core.c)).size), entering)


def _dual_tol(c: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.abs(c).max(initial=0.0)))


class _Core:
    """Simplex engine on lp's standard-form system a x (+ artificials) = b.

    A core is built from its LP, rhs and slack start included.  Its basis
    is read through one _VertexRead (self.read), derived anew after each
    pivot or bound flip.  Once the two phases end optimal, prepare_dual
    readies the core for WarmStart, whose copies run dual_simplex for
    their own rhs.
    """

    def __init__(self, lp: LinearProgram):
        """The standard form of lp and its slack start.

        The rows are [A_eq; A_ub] with one slack (bounds [0, inf)) per
        inequality row, equilibrated so coefficient magnitudes are <= 1 per
        row, with a 1e-12 floor; an all-zero row, as every row of a
        zero-column LP is, keeps scale 1 so its rhs is judged as given.
        self.scale is that row scale, which divides a rhs into self.b.  The
        matrix also holds one artificial column per row, after the slacks;
        the costs are lp.c on the real columns and 0 on every other column.
        """
        n = lp.num_variables
        me, mi = lp.a_eq.shape[0], lp.a_ub.shape[0]
        m = me + mi
        a = np.zeros((m, n + mi + m))
        a_real = a[:, :n]
        a_real[:me], a_real[me:] = lp.a_eq, lp.a_ub
        row_max = np.abs(a_real).max(axis=1, initial=0.0)
        self.scale = np.where(row_max > 0.0, np.maximum(row_max, 1e-12), 1.0)
        a_real /= self.scale[:, None]
        rows = np.arange(m)
        # row me + i's slack is column n + i; row i's artificial is n_real + i
        a[rows[me:], n - me + rows[me:]] = 1.0
        # the row each slack or artificial (a unit column) covers; -1 for a real column
        self.unit_row = np.concatenate([np.full(n, -1), rows[me:], rows])
        self.lb = np.zeros(n + mi + m)
        self.ub = np.full(n + mi + m, np.inf)
        self.lb[:n], self.ub[:n] = lp.lower, lp.upper
        self.c = np.zeros(n + mi + m)
        self.c[:n] = lp.c
        self.a, self.b = a, np.concatenate([lp.b_eq, lp.b_ub]) / self.scale
        self.m, self.n = a.shape
        self.n_real = n_real = n + mi
        self.max_iterations = max(2000, 50 * (self.n + self.m))
        self.iterations = 0
        self.phase1_iterations = 0
        self.pivots = 0
        self.bound_flips = 0
        self.refactorizations = 0
        self.bland_engaged = False
        self.bland_threshold = 3 * (self.n + self.m)

        # every column starts nonbasic at a finite bound, lower first, or
        # free at 0; lb == ub makes it fixed
        lb, ub = self.lb[:n_real], self.ub[:n_real]
        lo_finite, hi_finite = np.isfinite(lb), np.isfinite(ub)
        status = np.where(lo_finite, _AT_LOWER, np.where(hi_finite, _AT_UPPER, _FREE))
        status[lb == ub] = _FIXED
        x_nb = np.where(lo_finite, lb, np.where(hi_finite, ub, 0.0))

        # slack start: an inequality row that the nonbasic start point
        # satisfies keeps its slack basic and its artificial stays fixed at
        # 0; every other row starts on an artificial oriented to be >= 0
        resid = self.b - a[:, :n_real] @ x_nb
        satisfied = resid >= 0
        slack_start = (rows >= me) & satisfied
        signs = np.where(satisfied, 1.0, -1.0)
        a[rows, n_real + rows] = signs
        self.status = np.concatenate([status, np.where(slack_start, _FIXED, _BASIC)])
        self.basis = np.where(slack_start, n - me + rows, n_real + rows)
        self.status[self.basis] = _BASIC
        self._read = None

    def prepare_dual(self) -> _Prepared | None:
        """Ready this core, optimal after run_two_phase, for dual_simplex: the record of its basis, or None if it cannot.

        It cannot while an artificial is basic, when the read finds B
        singular, or when a column prices in.  The record reuses the read
        of the solve's last pricing pass.  The artificials stay fixed at 0,
        so dual pivots never let one enter.
        """
        if (self.basis >= self.n_real).any():
            return None
        try:
            prepared = _Prepared.of(self)
        except SingularBasisError:
            return None
        self.pivots = 0
        return None if prepared.prices_in else prepared

    def dual_simplex(self, x: np.ndarray, d: np.ndarray) -> np.ndarray | None:
        """Bounded dual simplex pivots from a dual-feasible basis with reduced costs d, whose vertex for self.b is x.

        Returns the optimal vertex, read by _vertex, or None where no
        column can enter (the LP may be infeasible), where _DUAL_PIVOT_CAP
        pivots do not reach a primal feasible basis, or where a column
        prices in at the end.
        """
        while True:
            leaving = self.leaving(x)
            if leaving is None:
                return None if self._improving(d, _dual_tol(self.c)).size else x
            if self.pivots >= _DUAL_PIVOT_CAP or not self.dual_pivot(*leaving, d):
                return None
            x, d = self._vertex(self.b), self.c - self.read.duals(self.c) @ self.a

    def leaving(self, x: np.ndarray) -> tuple[int, float] | None:
        """The dual pivot's leaving row for vertex x, the most infeasible, and the sign of its return to the bound it violates.

        None when every basic value lies within its bounds to _START_PRIMAL_TOL.
        """
        x_b = x[self.basis]
        infeasibility = np.maximum(self.lb[self.basis] - x_b, x_b - self.ub[self.basis])
        r = int(np.argmax(infeasibility))
        if infeasibility[r] <= _START_PRIMAL_TOL:
            return None
        return r, 1.0 if x[self.basis[r]] < self.lb[self.basis[r]] else -1.0

    def dual_pivot(self, r: int, rise: float, d: np.ndarray) -> bool:
        """One bounded dual pivot under reduced costs d: row r's basic variable leaves, moving by rise.

        False if no column can enter.  The pivot reads row r of B^-1, a,
        the statuses and d, never the rhs.
        """
        # the leaving variable returns to the bound it violates; a unit
        # step of nonbasic column j moves it by -alpha_j
        alpha = self.read.row(r) @ self.a
        toward = -rise * alpha
        piv_tol = 1e-9 * max(1.0, float(np.abs(alpha).max()))
        entering = ((_CAN_INCREASE[self.status] & (toward > piv_tol))
                    | (_CAN_DECREASE[self.status] & (toward < -piv_tol))).nonzero()[0]
        if entering.size == 0:
            return False
        # the smallest |d/alpha| keeps every reduced cost's sign; near
        # ties go to the largest |alpha|
        ratios = np.abs(d[entering] / alpha[entering])
        tied = entering[ratios <= ratios.min() + 1e-12]
        # the leaving variable rests at the bound it returns to
        self._pivot(r, int(tied[np.argmax(np.abs(alpha[tied]))]), rise < 0)
        return True

    @property
    def read(self) -> _VertexRead:
        """The vertex read of the current basis, derived on first use after each change of basis or status.

        Each derivation counts as a refactorization; SingularBasisError
        where the read finds B singular.
        """
        if self._read is None:
            self._read = _VertexRead(self)
            self.refactorizations += 1
        return self._read

    def diagnostics(self) -> dict:
        return {
            "phase1_iterations": self.phase1_iterations,
            "pivots": self.pivots,
            "bound_flips": self.bound_flips,
            "refactorizations": self.refactorizations,
            "bland_engaged": self.bland_engaged,
        }

    def _improving(self, d: np.ndarray, dual_tol: float) -> np.ndarray:
        """Columns whose reduced cost d lets them enter and lower the objective."""
        status = self.status
        return ((_CAN_INCREASE[status] & (d < -dual_tol)) | (_CAN_DECREASE[status] & (d > dual_tol))).nonzero()[0]

    def _nonbasic_values(self, cols) -> np.ndarray:
        """The values of the nonbasic columns cols: at lower or fixed, lb; at upper, ub; free, 0."""
        s = self.status[cols]
        return np.where(s == _AT_UPPER, self.ub[cols], np.where(s == _FREE, 0.0, self.lb[cols]))

    def run_two_phase(self) -> str:
        c1 = np.zeros(self.n)
        c1[self.n_real:] = 1.0
        # phase 1 ends optimal or raises: its objective is bounded below
        self._iterate(c1, phase=1)
        self.phase1_iterations = self.iterations
        art_rows = (self.basis >= self.n_real).nonzero()[0]
        if art_rows.size:
            # each basic artificial is judged against the rhs of its own row
            own_b = self.b[self.basis[art_rows] - self.n_real]
            x_art = self.read.basics(self.b)[self.read.at[art_rows]]
            if np.any(np.abs(x_art) > 1e-7 * np.maximum(1.0, np.abs(own_b))):
                return "infeasible"
            self._drive_out_artificials(art_rows)
        # artificials are pinned at zero for phase 2
        self.lb[self.n_real:] = 0.0
        self.ub[self.n_real:] = 0.0
        art_status = self.status[self.n_real:]
        art_status[art_status != _BASIC] = _FIXED
        self._read = None  # the artificials' bounds and statuses changed
        return self._iterate(self.c, phase=2)

    def _drive_out_artificials(self, art_rows: np.ndarray):
        """Pivot a real column into each of art_rows, whose basic artificial is at zero, where one can enter."""
        for r in art_rows:
            row = self.read.row(r) @ self.a[:, : self.n_real]
            candidates = ((np.abs(row) > 1e-7) & (self.status[: self.n_real] != _BASIC)).nonzero()[0]
            if candidates.size == 0:
                continue  # dependent row; artificial stays basic at zero
            # the artificial rests at 0, where phase 2 fixes it
            self._pivot(r, int(candidates[np.argmax(np.abs(row[candidates]))]), False)

    def _pivot(self, r: int, q: int, at_upper: bool):
        """The basis exchange every pivot ends on, primal or dual: column q turns basic at row r.

        The variable it replaces rests at its upper bound or its lower one
        (fixed where they meet).  The read of the old basis is dropped.
        """
        j = self.basis[r]
        self.status[j] = _FIXED if self.lb[j] == self.ub[j] else _AT_UPPER if at_upper else _AT_LOWER
        self.status[q] = _BASIC
        self.basis[r] = q
        self.pivots += 1
        self._read = None

    def _iterate(self, c: np.ndarray, phase: int) -> str:
        dual_tol = _dual_tol(c)
        degen_run = 0
        bland = False
        while True:
            if phase == 1 and (self.basis < self.n_real).all():
                # no basic artificial: y = 0 and no column prices in, so
                # a pricing pass could only confirm optimality
                return "optimal"
            if self.iterations >= self.max_iterations:
                raise SimplexIterationLimit(
                    f"simplex exceeded {self.max_iterations} iterations (phase {phase})"
                )
            self.iterations += 1

            read = self.read
            d = c - read.duals(c) @ self.a
            idx = self._improving(d, dual_tol)
            if idx.size == 0:
                return "optimal"
            if bland:
                q = int(idx[0])
            else:
                q = int(idx[np.argmax(np.abs(d[idx]))])
            direction = 1.0 if d[q] < 0 else -1.0

            w = read.column(self.a[:, q])
            delta = -direction * w  # rate of change of each basic value per unit step
            x_basic = read.basics(self.b)[read.at]

            # ratio test over the rows that can block: basic variables moving
            # toward a finite bound; within 1e-12 of the minimum step the
            # largest |w| leaves (under Bland's rule, the smallest index)
            piv_tol = 1e-9 * max(1.0, float(np.abs(w).max(initial=0.0)))
            lo = self.lb[self.basis]
            hi = self.ub[self.basis]
            falling = (delta < -piv_tol) & np.isfinite(lo)
            blocking = (falling | ((delta > piv_tol) & np.isfinite(hi))).nonzero()[0]
            t_limit = np.inf
            leave_row = -1
            if blocking.size:
                bound = np.where(falling[blocking], lo[blocking], hi[blocking])
                steps = np.maximum((bound - x_basic[blocking]) / delta[blocking], 0.0)
                t_limit = float(steps.min())
                tied = blocking[steps <= t_limit + 1e-12]
                if bland:
                    leave_row = int(tied[np.argmin(self.basis[tied])])
                else:
                    leave_row = int(tied[np.argmax(np.abs(w[tied]))])

            gap = self.ub[q] - self.lb[q]
            if gap <= t_limit and np.isfinite(gap):
                # bound flip, no basis change
                t = gap
                self.status[q] = _AT_UPPER if self.status[q] == _AT_LOWER else _AT_LOWER
                self.bound_flips += 1
                self._read = None
            elif leave_row < 0:
                if phase == 1:
                    raise SingularBasisError("phase-1 direction unbounded: numerical failure")
                return "unbounded"
            else:
                t = t_limit
                self._pivot(leave_row, q, delta[leave_row] > 0)

            if t <= _DEGEN_STEP:
                degen_run += 1
                if degen_run > self.bland_threshold:
                    bland = True
                    self.bland_engaged = True
            else:
                degen_run = 0
                bland = False

    def _vertex(self, b: np.ndarray) -> np.ndarray:
        """The current basis's vertex for rhs b, or for each row of a stacked b, by the current read."""
        return self.read.vertex(self.read.basics(b))


class _VertexRead:
    """A basis's one factorization: what reading its vertex, and pivoting from it, needs of that basis alone, derived once and read-only.

    The tight-row read (Koberstein 2005's small working basis, here over
    a dense B): B's columns, in ascending index order, are the structural
    ones P and then the unit ones U (slacks and artificials, coefficient s = +-1),
    each of which covers its own row.  The t rows that no unit column
    covers, T, fix x_P by the t x t system A_TP x_P = r_T, where
    r = b - N x_N; each unit column then takes what its row leaves,
    x_u = s (r_u - A_uP x_P).  So x_B = G r_T, plus s r_U on U's rows, with
    G = [A_TP^-1; -s A_UP A_TP^-1] the m x t array derived once.  A read
    takes no BLAS or LAPACK call, only a product and a sum over t per basic
    value, so each item of a stacked read has the bits of a single read,
    and the bits depend on the basic set and the nonbasic statuses, not on
    the row each column was pivoted into.  The same G, rows and signs give
    B^-1 times a column, a row of B^-1 and the duals c_B B^-1, the last two
    as y = v G on T and s v on U's rows; at is the place in cols of each
    basis row's column, for results in the core's basis order.
    """

    def __init__(self, core: _Core):
        """The read of core's current basis; SingularBasisError where B is singular.

        B is singular exactly when two unit columns cover one row, so that
        A_TP is not square, or when A_TP is singular.
        """
        self.cols = np.sort(core.basis)
        # the place in cols of each basis row's column
        self.at = np.searchsorted(self.cols, core.basis)
        nonbasic = (core.status != _BASIC).nonzero()[0]
        # the vertex with its nonbasic values in place; basic entries are overwritten per read
        self.x = np.zeros(core.n)
        self.x[nonbasic] = x_nb = core._nonbasic_values(nonbasic)
        self.n_x_n = core.a[:, nonbasic] @ x_nb
        self.lb, self.ub = core.lb[self.cols], core.ub[self.cols]
        covered = core.unit_row[self.cols]
        unit = covered >= 0
        p, u_rows = self.cols[~unit], covered[unit]
        tight = np.ones(core.m, dtype=bool)
        tight[u_rows] = False
        t_rows = tight.nonzero()[0]
        if t_rows.size != p.size:
            raise SingularBasisError("two unit columns of the basis cover one row")
        a_p = core.a[:, p]
        try:
            # a basis of unit columns alone, as every slack start is, has no A_TP to invert
            a_tp_inv = np.linalg.inv(a_p[t_rows]) if p.size else np.zeros((0, 0))
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix singular at the vertex read") from None
        self.t = p.size
        # r's rows in x_B's order: T for P's values, then the row each unit column covers
        self.rows = np.concatenate([t_rows, u_rows])
        self.signs = core.a[u_rows, self.cols[unit]]
        self.g = np.concatenate([a_tp_inv, -self.signs[:, None] * (a_p[u_rows] @ a_tp_inv)])
        if not np.isfinite(self.g).all():
            raise SingularBasisError("basis inverse non-finite at the vertex read")
        for array in (self.cols, self.at, self.x, self.n_x_n, self.lb, self.ub, self.rows, self.signs, self.g):
            array.flags.writeable = False

    def basics(self, b: np.ndarray) -> np.ndarray:
        """x_B, in self.cols order, for rhs b or for each row of a stacked b."""
        x_basic = self._solve(b - self.n_x_n)
        if not np.isfinite(x_basic).all():
            raise SingularBasisError("basic values non-finite at the vertex read")
        return x_basic

    def column(self, column: np.ndarray) -> np.ndarray:
        """B^-1 column, in the basis's row order."""
        return self._solve(column)[self.at]

    def row(self, r: int) -> np.ndarray:
        """Row r of B^-1, r being a row of the basis: the duals of a unit cost on that row's column alone."""
        unit = np.zeros(self.cols.size)
        unit[self.at[r]] = 1.0
        return self._left(unit)

    def duals(self, c: np.ndarray) -> np.ndarray:
        """The duals c_B B^-1 of the column costs c."""
        return self._left(c[self.cols])

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """B^-1 r, in self.cols order, for r or for each row of a stacked r."""
        r = r[..., self.rows]
        # laid out in C order, each basic value's t terms are contiguous, so
        # its sum runs as in a single read whatever the stack's shape
        x = np.multiply(r[..., None, :self.t], self.g, order="C").sum(axis=-1)
        x[..., self.t:] += self.signs * r[..., self.t:]
        return x

    def _left(self, v: np.ndarray) -> np.ndarray:
        """v B^-1 for v in self.cols order: G's rows weighted by v on T, and s v on the rows U covers."""
        y = np.empty(self.rows.size)
        y[self.rows[:self.t]] = v @ self.g
        y[self.rows[self.t:]] = self.signs * v[self.t:]
        return y

    def vertex(self, x_basic: np.ndarray) -> np.ndarray:
        """The vertex whose basic values, in self.cols order, are x_basic (stacked or not)."""
        x = np.empty(x_basic.shape[:-1] + self.x.shape)
        x[...] = self.x
        x[..., self.cols] = x_basic
        return x

    def checked_vertex(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex for rhs b (stacked or not) and whether its basic values lie within their bounds to _START_PRIMAL_TOL."""
        x_basic = self.basics(b)
        infeasibility = np.maximum(self.lb - x_basic, x_basic - self.ub)
        return self.vertex(x_basic), infeasibility.max(axis=-1, initial=-np.inf) <= _START_PRIMAL_TOL
