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
The LP is infeasible when an artificial ends phase 1 above 1e-7 times
max(1, |b|) of its own row, so the verdict does not depend on other rows.
Pricing is Dantzig (most negative reduced cost); the ratio test takes the
largest pivot among near-ties, and Bland's smallest-index rule engages after
3*(#vars + #rows) consecutive degenerate steps so cycling cannot occur.  The
basis inverse is maintained by pivot updates and refactorized periodically.
The optimal vertex is read with one final solve of B x_B = b - N x_N on the
optimal basis, with no inverse formed; that solve counts as a
refactorization.  Each solution reports iteration, pivot, bound-flip and
refactorization counts.  An LP without rows (bounds only) or without
columns (constant rows) runs through the same two phases.

A LinearProgram rejects NaN anywhere and infinities outside the bounds when
it is built, so a bad input fails there rather than mid-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3      # nonbasic free variable, held at value 0
_FIXED = 4     # lb == ub, never eligible to enter

_REFACTOR_EVERY = 100
_DEGEN_STEP = 1e-9


class SimplexIterationLimit(RuntimeError):
    """Iteration budget exhausted before reaching a terminal status."""


class SingularBasisError(RuntimeError):
    """Basis matrix numerically singular even after refactorization retry."""


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


def solve_lp(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve an LP, reporting optimal/infeasible/unbounded faithfully.

    Raises SimplexIterationLimit when the pivot budget runs out (distinct
    from infeasibility) and SingularBasisError on an unrecoverable basis.
    max_iterations=None uses a budget that grows with the LP's size.
    """
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1 or None, got {max_iterations}")
    n = lp.num_variables
    me, mi = lp.a_eq.shape[0], lp.a_ub.shape[0]
    m = me + mi

    # standard form rows [A_eq; A_ub], one slack per inequality row,
    # equilibrated so coefficient magnitudes are <= 1 per row, with a 1e-12
    # floor; an all-zero row, as every row of a zero-column LP is, keeps
    # scale 1 so its rhs is judged as given
    a_rows = np.vstack([lp.a_eq, lp.a_ub])
    b = np.concatenate([lp.b_eq, lp.b_ub])
    row_max = np.abs(a_rows).max(axis=1, initial=0.0)
    scale = np.where(row_max > 0.0, np.maximum(row_max, 1e-12), 1.0)
    a_rows = a_rows / scale[:, None]
    b = b / scale

    n_slack = mi
    n_total = n + n_slack
    a = np.zeros((m, n_total))
    a[:, :n] = a_rows
    a[me:, n:] = np.eye(mi)
    lb = np.concatenate([lp.lower, np.zeros(mi)])
    ub = np.concatenate([lp.upper, np.full(mi, np.inf)])
    slack_cols = np.concatenate([np.full(me, -1), np.arange(n, n_total)])

    core = _Core(a, b, lb, ub, slack_cols, max_iterations)
    status = core.run_two_phase(np.concatenate([lp.c, np.zeros(mi)]))
    if status != "optimal":
        return LpSolution(status=status, iterations=core.iterations, diagnostics=core.diagnostics())

    x_full = core.solution()
    x = x_full[:n]
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.c @ x),
        iterations=core.iterations,
        diagnostics=core.diagnostics(),
    )


class _Core:
    """Simplex engine on the standard-form system a x (+ artificials) = b.

    slack_cols[i] is the column of row i's slack (a unit column with bounds
    [0, inf)), or -1 for an equality row.
    """

    def __init__(self, a, b, lb, ub, slack_cols, max_iterations):
        self.m, n_real = a.shape
        self.n_real = n_real
        rows = np.arange(self.m)
        art = n_real + rows
        # artificial columns appended after real+slack columns
        self.a = np.hstack([a, np.zeros((self.m, self.m))])
        self.b = b
        self.lb = np.concatenate([lb, np.zeros(self.m)])
        self.ub = np.concatenate([ub, np.full(self.m, np.inf)])
        self.n = self.a.shape[1]
        if max_iterations is None:
            max_iterations = max(2000, 50 * (self.n + self.m))
        self.max_iterations = max_iterations
        self.iterations = 0
        self.phase1_iterations = 0
        self.pivots = 0
        self.bound_flips = 0
        self.refactorizations = 0
        self.bland_engaged = False
        self.bland_threshold = 3 * (self.n + self.m)

        # every column starts nonbasic at a finite bound, lower first, or
        # free at 0; lb == ub makes it fixed
        lo_finite, hi_finite = np.isfinite(self.lb), np.isfinite(self.ub)
        self.status = np.where(lo_finite, _AT_LOWER, np.where(hi_finite, _AT_UPPER, _FREE))
        self.status[self.lb == self.ub] = _FIXED
        x_nb = np.where(lo_finite, self.lb, np.where(hi_finite, self.ub, 0.0))[:n_real]

        # slack start: an inequality row that the nonbasic start point
        # satisfies keeps its slack basic and its artificial stays fixed at
        # 0; every other row starts on an artificial oriented to be >= 0
        resid = b - a @ x_nb
        slack_start = (slack_cols >= 0) & (resid >= 0)
        signs = np.where(resid >= 0, 1.0, -1.0)
        self.a[rows, art] = signs
        self.status[art] = np.where(slack_start, _FIXED, _BASIC)
        self.basis = np.where(slack_start, slack_cols, art)
        self.status[self.basis] = _BASIC
        self.binv = np.diag(signs)  # inverse of the initial +/-1 diagonal basis
        self.x_basic = np.abs(resid)
        self.pivots_since_refactor = 0

    def diagnostics(self) -> dict:
        return {
            "phase1_iterations": self.phase1_iterations,
            "pivots": self.pivots,
            "bound_flips": self.bound_flips,
            "refactorizations": self.refactorizations,
            "bland_engaged": self.bland_engaged,
        }

    def _nonbasic_values(self, cols) -> np.ndarray:
        s = self.status[cols]
        at_lb = (s == _AT_LOWER) | (s == _FIXED)
        return np.where(at_lb, self.lb[cols], np.where(s == _AT_UPPER, self.ub[cols], 0.0))

    def _recompute_basics(self):
        nonbasic = np.flatnonzero(self.status != _BASIC)
        x_nb = self._nonbasic_values(nonbasic)
        rhs = self.b - self.a[:, nonbasic] @ x_nb
        self.x_basic = self.binv @ rhs

    def _refactorize(self):
        bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.solve(bmat, np.eye(self.m))
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix singular at refactorization") from None
        if not np.all(np.isfinite(self.binv)):
            raise SingularBasisError("basis inverse non-finite after refactorization")
        self.refactorizations += 1
        self.pivots_since_refactor = 0
        self._recompute_basics()

    def run_two_phase(self, c_real: np.ndarray) -> str:
        c1 = np.zeros(self.n)
        c1[self.n_real:] = 1.0
        status = self._iterate(c1, phase=1)
        self.phase1_iterations = self.iterations
        if status != "optimal":
            # a bounded-below phase-1 objective cannot be unbounded
            raise SingularBasisError("phase-1 terminated abnormally: " + status)
        # each basic artificial is judged against the rhs of its own row
        art_rows = np.flatnonzero(self.basis >= self.n_real)
        own_b = self.b[self.basis[art_rows] - self.n_real]
        if np.any(np.abs(self.x_basic[art_rows]) > 1e-7 * np.maximum(1.0, np.abs(own_b))):
            return "infeasible"
        self._drive_out_artificials()
        # artificials are pinned at zero for phase 2
        self.lb[self.n_real:] = 0.0
        self.ub[self.n_real:] = 0.0
        nonbasic_art = (self.status != _BASIC) & (np.arange(self.n) >= self.n_real)
        self.status[nonbasic_art] = _FIXED
        c2 = np.concatenate([c_real, np.zeros(self.m)])
        return self._iterate(c2, phase=2)

    def _drive_out_artificials(self):
        for r in np.flatnonzero(self.basis >= self.n_real):
            j = self.basis[r]
            row = self.binv[r, :] @ self.a[:, : self.n_real]
            candidates = np.flatnonzero(
                (np.abs(row) > 1e-7) & (self.status[: self.n_real] != _BASIC)
            )
            if candidates.size == 0:
                continue  # dependent row; artificial stays basic at zero
            q = candidates[np.argmax(np.abs(row[candidates]))]
            w = self.binv @ self.a[:, q]
            self.status[q] = _BASIC
            self.status[j] = _FIXED
            self._pivot(r, q, w)
        self._recompute_basics()

    def _pivot(self, r: int, q: int, w: np.ndarray):
        piv = w[r]
        if abs(piv) < 1e-12:
            raise SingularBasisError(f"pivot element too small: {piv!r}")
        pivot_row = self.binv[r, :] / piv
        self.binv -= np.outer(w, pivot_row)
        self.binv[r, :] = pivot_row
        self.basis[r] = q
        self.pivots += 1
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= _REFACTOR_EVERY:
            self._refactorize()

    def _iterate(self, c: np.ndarray, phase: int) -> str:
        dual_tol = 1e-8 * max(1.0, float(np.abs(c).max(initial=0.0)))
        degen_run = 0
        bland = False
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexIterationLimit(
                    f"simplex exceeded {self.max_iterations} iterations (phase {phase})"
                )
            self.iterations += 1

            y = c[self.basis] @ self.binv
            if not np.all(np.isfinite(y)) or not np.all(np.isfinite(self.x_basic)):
                # updated inverse drifted; rebuild once from scratch before giving up
                self._refactorize()
                y = c[self.basis] @ self.binv
                if not np.all(np.isfinite(y)) or not np.all(np.isfinite(self.x_basic)):
                    raise SingularBasisError("non-finite iterate after refactorization retry")
            d = c - y @ self.a
            can_increase = (self.status == _AT_LOWER) | (self.status == _FREE)
            can_decrease = (self.status == _AT_UPPER) | (self.status == _FREE)
            improving = (can_increase & (d < -dual_tol)) | (can_decrease & (d > dual_tol))
            idx = np.flatnonzero(improving)
            if idx.size == 0:
                return "optimal"
            if bland:
                q = int(idx[0])
            else:
                q = int(idx[np.argmax(np.abs(d[idx]))])
            direction = 1.0 if d[q] < 0 else -1.0

            w = self.binv @ self.a[:, q]
            delta = -direction * w  # rate of change of each basic value per unit step

            # ratio test over the rows that can block: basic variables moving
            # toward a finite bound; within 1e-12 of the minimum step the
            # largest |w| leaves (under Bland's rule, the smallest index)
            piv_tol = 1e-9 * max(1.0, float(np.abs(w).max(initial=0.0)))
            lo = self.lb[self.basis]
            hi = self.ub[self.basis]
            falling = (delta < -piv_tol) & np.isfinite(lo)
            blocking = np.flatnonzero(falling | ((delta > piv_tol) & np.isfinite(hi)))
            t_limit = np.inf
            leave_row = -1
            if blocking.size:
                bound = np.where(falling[blocking], lo[blocking], hi[blocking])
                steps = np.maximum((bound - self.x_basic[blocking]) / delta[blocking], 0.0)
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
                self.x_basic += t * delta
                self.status[q] = _AT_UPPER if self.status[q] == _AT_LOWER else _AT_LOWER
                self.bound_flips += 1
            elif leave_row < 0:
                if phase == 1:
                    raise SingularBasisError("phase-1 direction unbounded: numerical failure")
                return "unbounded"
            else:
                t = t_limit
                entering_value = self._nonbasic_values([q])[0] + direction * t
                leaving = self.basis[leave_row]
                di = delta[leave_row]
                new_status = _AT_LOWER if di < 0 else _AT_UPPER
                if self.lb[leaving] == self.ub[leaving]:
                    new_status = _FIXED
                self.x_basic += t * delta
                self.x_basic[leave_row] = entering_value
                self.status[leaving] = new_status
                self.status[q] = _BASIC
                self._pivot(leave_row, q, w)

            if t <= _DEGEN_STEP:
                degen_run += 1
                if degen_run > self.bland_threshold:
                    bland = True
                    self.bland_engaged = True
            else:
                degen_run = 0
                bland = False

    def solution(self) -> np.ndarray:
        """The optimal vertex: nonbasic values at their bounds, x_B from one solve with B.

        The solve is the solution's factorization of the basis and counts
        as a refactorization; no inverse is formed.
        """
        x = np.empty(self.n)
        nonbasic = np.flatnonzero(self.status != _BASIC)
        x[nonbasic] = self._nonbasic_values(nonbasic)
        rhs = self.b - self.a[:, nonbasic] @ x[nonbasic]
        try:
            x_basic = np.linalg.solve(self.a[:, self.basis], rhs)
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix singular at the final solve") from None
        if not np.all(np.isfinite(x_basic)):
            raise SingularBasisError("basic values non-finite at the final solve")
        self.refactorizations += 1
        x[self.basis] = x_basic
        return x
