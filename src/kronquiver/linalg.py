"""Exact rational linear algebra: Fraction determinant, inverse and rank,
integer lattice solving, interval propagation, LP bounds and LP dual
certificates for integer boxes, and a two-phase simplex over the rationals.

Elimination runs on integer rows: a row is a pair ``(a, d)`` of a list of
ints and a denominator ``d > 0``, meaning ``a / d``, kept in lowest terms
(``_row`` builds one from int or Fraction values).  ``det_frac`` and ``rank``
read one fraction-free Bareiss forward pass, ``_bareiss``, and ``inverse`` is
the adjugate over ``det_frac``; both simplex phases are built on the
Gauss-Jordan step ``_pivot``.  ``Fraction`` appears only at the edges
(inputs, the simplex ratio test, LP values and points, ``inverse`` entries
and determinants).  ``lp_box`` prices every objective into one phase 1
tableau, and ``dual_certificate`` solves the dual LP of one side of a cone
section with ``solve_lp``.  ``solve_integer_system`` uses unimodular integer
column operations instead.  ``propagate_box`` takes sparse rows
``(terms, r)``, meaning ``sum(c * x[i] for i, c in terms) >= r``, whose terms
are the nonzero ``(index, coeff)`` pairs only: a zero coefficient would
divide by zero.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_mul(a, b):
    """Product of two matrices given as lists of rows."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row(values):
    """The integer row ``(a, d)`` of int or Fraction ``values``: ``d`` is the
    lcm of their denominators, so ``a / d`` is already in lowest terms."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _norm(a, d):
    """The row ``a / d`` in lowest terms with a positive denominator."""
    g = -math.gcd(d, *a) if d < 0 else math.gcd(d, *a)
    return (a, d) if g == 1 else ([x // g for x in a], d // g)


def _clear(row, prow, c):
    """``row - row[c] * prow`` on integer rows, where ``prow`` is 1 in
    column ``c``."""
    (b, e), (ra, rd) = row, prow
    f = b[c]
    return _norm([x * rd - f * y for x, y in zip(b, ra)], e * rd)


def _pivot(t, r, c):
    """Gauss-Jordan step on the integer rows ``t``: scale row ``r`` so that it
    is 1 in column ``c``, then clear column ``c`` from every other row.  Rows
    are replaced, never edited."""
    a = t[r][0]
    prow = t[r] = _norm(a, a[c])
    for i, row in enumerate(t):
        if i != r and row[0][c]:
            t[i] = _clear(row, prow, c)


def _bareiss(m):
    """Bareiss's fraction-free forward pass on the rows of ``m`` scaled to
    integers, skipping a column with no pivot left: each step divides exactly
    by the previous pivot.  Returns the rank, the sign of the row swaps, the
    last pivot and the product of the row scales."""
    rows = [_row(row) for row in m]
    a = [r for r, _ in rows]
    rk, sign, prev = 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rk, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        if piv != rk:
            a[rk], a[piv] = a[piv], a[rk]
            sign = -sign
        p, top = a[rk][c], a[rk]
        for r in range(rk + 1, len(a)):
            f = a[r][c]
            a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
        rk += 1
    return rk, sign, prev, math.prod(d for _, d in rows)


def det_frac(m) -> Fraction:
    """Exact determinant of a square matrix with integer or Fraction entries:
    the last pivot of the Bareiss pass, signed by its row swaps and with the
    row scales divided back out, or 0 when the rank falls short."""
    rk, sign, last, scale = _bareiss(m)
    return Fraction(sign * last, scale) if rk == len(m) else Fraction(0)


def rank(m):
    """Rank of a matrix with integer or Fraction entries."""
    return _bareiss(m)[0]


def inverse(m):
    """Inverse of a square matrix as Fraction rows: the adjugate over
    ``det_frac``, each entry a signed minor; raises ZeroDivisionError when
    the matrix is singular."""
    det = det_frac(m)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    n = len(m)
    cols = [[row[:i] + row[i + 1:] for row in m] for i in range(n)]  # m without column i
    return [[(-1) ** (i + j) * det_frac(cols[i][:j] + cols[i][j + 1:]) / det for j in range(n)]
            for i in range(n)]


def _ext_gcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def solve_integer_system(eq_rows, rhs):
    """Solve E x = b over the integers.

    ``eq_rows`` is a list of integer rows, ``rhs`` the integer right-hand
    sides.  Returns one integer solution ``x0`` as a tuple, or ``None`` when
    no integer solution exists (including the rationally infeasible case).
    """
    m = len(eq_rows)
    n = len(eq_rows[0]) if m else 0
    h = [list(row) for row in eq_rows]
    u = identity(n)

    def colop_combine(r, j, k):
        # Column ops making h[r][j] = gcd and h[r][k] = 0, tracked in u.
        a, b = h[r][j], h[r][k]
        g, s, t = _ext_gcd(a, b)
        p, q = -(b // g), a // g
        for rows in (h, u):
            for row in rows:
                rj, rk = row[j], row[k]
                row[j] = s * rj + t * rk
                row[k] = p * rj + q * rk

    pivots = []  # (row, col)
    col = 0
    for r in range(m):
        if col >= n:
            break
        j0 = next((j for j in range(col, n) if h[r][j]), None)
        if j0 is None:
            continue
        for j in range(j0 + 1, n):
            if h[r][j]:
                colop_combine(r, j0, j)
        if j0 != col:
            for rows in (h, u):
                for row in rows:
                    row[col], row[j0] = row[j0], row[col]
        pivots.append((r, col))
        col += 1

    # Forward-substitute pivot variables; a non-divisible step means no
    # integer solution, a mismatched pivot-free row means no solution at all.
    y = [0] * n
    piv_of_row = dict(pivots)
    for r in range(m):
        acc = rhs[r] - sum(h[r][j] * y[j] for j in range(col) if h[r][j])
        if r in piv_of_row:
            c = piv_of_row[r]
            if acc % h[r][c]:
                return None
            y[c] += acc // h[r][c]
        elif acc != 0:
            return None

    return tuple(sum(u[i][j] * y[j] for j in range(col)) for i in range(n))


# ---------------------------------------------------------------------------
# Integer boxes: interval propagation and exact LP bounds.  Bounds are ints
# or None (=inf).

def propagate_box(rows, lower, upper, max_rounds=None):
    """Tighten per-variable integer bounds against rows ``a . x >= r``.

    ``rows`` is a list of sparse rows ``(terms, r)``: ``terms`` holds the
    ``(index, coeff)`` pairs of the row's nonzero coefficients, each index at
    most once.  A zero coefficient is not allowed: it would divide by zero.
    Returns ``(lower, upper)`` lists (entries may stay None) or ``None`` when
    a row is provably unsatisfiable.  Sound: never cuts off an integer
    solution.

    One pass over a row's terms sums its slack ``a . x - r`` with each term at
    its best side of the box and lists the terms whose best side is open.  A
    row with two or more open terms bounds nothing; with one it bounds that
    term; with none a negative slack is infeasible, and otherwise it bounds
    every term.
    """
    lo = list(lower)
    hi = list(upper)
    if max_rounds is None:
        max_rounds = 4 * (len(lo) + 1)
    for _ in range(max_rounds):
        changed = False
        for terms, r in rows:
            slack = -r
            open_terms = []
            for i, a in terms:
                b = hi[i] if a > 0 else lo[i]
                if b is None:
                    open_terms.append((i, a))
                else:
                    slack += a * b
            if len(open_terms) > 1:
                continue
            if not open_terms and slack < 0:
                return None
            # a*x_i >= a*b - slack, with b the best side of x_i (0 for the open
            # term, which the slack leaves out); dividing by a rounds inward.
            for i, a in open_terms or terms:
                if a > 0:
                    bound = (0 if open_terms else hi[i]) - slack // a
                    if lo[i] is None or bound > lo[i]:
                        lo[i] = bound
                        changed = True
                else:
                    bound = (0 if open_terms else lo[i]) + slack // -a
                    if hi[i] is None or bound < hi[i]:
                        hi[i] = bound
                        changed = True
                if lo[i] is not None and hi[i] is not None and lo[i] > hi[i]:
                    return None
        if not changed:
            break
    return lo, hi


def lp_box(ge_rows, ge_rhs, eq_rows, eq_rhs, lo, hi):
    """Fill each None side of the box ``lo``/``hi``, in place, with the exact
    optimum of its coordinate over the rows, rounded inward, coordinate by
    coordinate and min before max.  Returns the first status that is not
    optimal, leaving the sides from it on None, or BOUNDED.  One phase 1
    serves every side, and a box with no None side costs no LP."""
    if None not in lo and None not in hi:
        return BOUNDED
    feasible = _phase1(len(lo), ge_rows, ge_rhs, eq_rows, eq_rhs)
    if feasible is None:
        return INFEASIBLE
    for i in range(len(lo)):
        objective = [int(j == i) for j in range(len(lo))]
        for sense, side, inward in (("min", lo, math.ceil), ("max", hi, math.floor)):
            if side[i] is None:
                res = _phase2(*feasible, objective, sense)
                if res.status != OPTIMAL:
                    return res.status
                side[i] = inward(res.value)
    return BOUNDED


# ---------------------------------------------------------------------------
# Exact LP: two-phase simplex with Bland's rule, free variables.

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"
BOUNDED = "bounded"


class LPResult(NamedTuple):
    status: str
    value: Fraction | None = None
    point: tuple | None = None


def _simplex(t, basis, first, stop):
    """Minimize the objective in the last row of the tableau ``t`` by Bland's
    rule, pricing columns ``first`` to ``stop - 1``.  Only the first
    ``len(basis)`` rows are constraints, and a row whose basic column lies
    below ``first`` defines a free variable: it never leaves.  Signs read off
    a row's integers, and a ratio within one row drops its denominator."""
    while True:
        obj = t[-1][0]
        enter = next((j for j in range(first, stop) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        # Least ratio, ties to the least basic column (Bland).
        ratios = [(Fraction(a[-1], a[enter]), basis[i], i)
                  for i, (a, _) in enumerate(t[:len(basis)])
                  if a[enter] > 0 and basis[i] >= first]
        if not ratios:
            return UNBOUNDED
        leave = min(ratios)[2]
        _pivot(t, leave, enter)
        basis[leave] = enter


def _phase1(n, ge_rows, ge_rhs, eq_rows, eq_rhs):
    """Phase 1 on ``ge_rows . x >= ge_rhs`` and ``eq_rows . x = eq_rhs`` in n
    free variables.  Returns the constraint rows of a feasible tableau, their
    basis and the first artificial column, or None when infeasible.  Columns:
    the free variables, one surplus per >= row, then one artificial per row
    that no free variable was pivoted into."""
    ge = list(zip(ge_rows, ge_rhs))
    rows = ge + list(zip(eq_rows, eq_rhs))
    m = len(rows)
    width = n + len(ge)
    t = [_row([*coeffs, *(-(i == k) for k in range(len(ge))), b])
         for i, (coeffs, b) in enumerate(rows)]

    # Pivot every free variable into the basis.  Its column is then zero in
    # every other row, so the rows left over constrain the surplus columns
    # alone, and a free column that found no row is zero in all of them.
    basis = [None] * m
    for j in range(n):
        r = next((i for i in range(m) if basis[i] is None and t[i][0][j]), None)
        if r is not None:
            _pivot(t, r, j)
            basis[r] = j
    rest = [i for i in range(m) if basis[i] is None]
    for i, (a, d) in enumerate(t):
        if basis[i] is None and a[-1] < 0:
            a = [-v for v in a]
        t[i] = (a[:-1] + [0] * len(rest) + a[-1:], d)

    # Minimize the sum of artificials, starting from them as basis; an
    # artificial's unit entry in a row over d is d.
    stop = width + len(rest)
    t.append(([0] * width + [1] * len(rest) + [0], 1))
    for k, i in enumerate(rest):
        t[i][0][width + k] = t[i][1]
        _pivot(t, i, width + k)
        basis[i] = width + k
    _simplex(t, basis, n, stop)
    if t.pop()[0][-1] != 0:
        return None

    # Drive leftover artificials out of the basis where possible.
    for i in rest:
        if basis[i] >= width:
            enter = next((j for j in range(n, width) if t[i][0][j]), None)
            if enter is not None:
                _pivot(t, i, enter)
                basis[i] = enter
    return t, basis, width


def _phase2(t, basis, width, objective, sense):
    """Optimize one objective over a ``_phase1`` tableau, priced into a shallow
    copy; the tableau stays reusable because ``_pivot`` replaces rows and
    never edits them."""
    n = len(objective)
    obj = _row([-c if sense == "max" else c for c in objective]
               + [0] * (len(t[0][0]) - n if t else 1))
    for row, j in zip(t, basis):
        if obj[0][j]:
            obj = _clear(obj, row, j)
    t, basis = t + [obj], basis[:]

    # A nonbasic free column touches only the free rows, so a nonzero reduced
    # cost there moves the objective without bound.  Artificial columns stay
    # out: pricing stops at ``width``.
    if any(obj[0][:n]) or _simplex(t, basis, n, width) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    basic = {j: Fraction(a[-1], d) for (a, d), j in zip(t, basis)}
    point = [basic.get(j, Fraction(0)) for j in range(n)]
    return LPResult(OPTIMAL, dot(objective, point), tuple(point))


def solve_lp(objective, ge_rows, ge_rhs, eq_rows=(), eq_rhs=(), sense="max"):
    """Exact LP over free rational variables with ``ge_rows . x >= ge_rhs`` and
    ``eq_rows . x = eq_rhs``; ``point`` is a tuple of Fractions when optimal."""
    feasible = _phase1(len(objective), ge_rows, ge_rhs, eq_rows, eq_rhs)
    return LPResult(INFEASIBLE) if feasible is None else _phase2(*feasible, objective, sense)


def dual_certificate(ge_rows, eq_rows, eq_rhs, i, sense):
    """Integer LP dual certificate for the ``sense`` side of coordinate ``i``
    over the cone section ``ge_rows . x >= 0``, ``eq_rows . x = eq_rhs``.

    Solves the dual LP with ``solve_lp`` and returns ``(y, z, d)``: integer
    tuples and a positive common denominator with ``E^T y - d e_i = s A^T z``
    and ``z >= 0``, where ``s`` is 1 for ``"max"`` and -1 for ``"min"``.  Then
    ``d x_i <= y . b`` (max) or ``d x_i >= y . b`` (min) for every point of
    every section with the same rows and any right-hand side ``b``, with
    equality at an optimum for ``eq_rhs``.  Returns None when that side of the
    section is unbounded or the section is empty.
    """
    s = 1 if sense == "max" else -1
    m, k = len(eq_rows), len(ge_rows)
    # Columns of the dual: the multipliers y, then z.  One row per coordinate.
    rows = [[row[j] for row in eq_rows] + [-s * row[j] for row in ge_rows]
            for j in range(len(eq_rows[0]) if eq_rows else len(ge_rows[0]))]
    z_rows = [[int(c == m + r) for c in range(m + k)] for r in range(k)]
    res = solve_lp(list(eq_rhs) + [0] * k, z_rows, [0] * k, rows,
                   [int(j == i) for j in range(len(rows))],
                   sense="min" if s == 1 else "max")
    if res.status != OPTIMAL:
        return None
    d = math.lcm(*(v.denominator for v in res.point))
    scaled = tuple(int(v * d) for v in res.point)
    return scaled[:m], scaled[m:], d


def lp_feasible(ge_rows, ge_rhs, eq_rows=(), eq_rhs=()):
    """Exact feasibility of a mixed >=/= rational system (phase 1 only)."""
    n = len(ge_rows[0]) if ge_rows else (len(eq_rows[0]) if eq_rows else 0)
    return _phase1(n, ge_rows, ge_rhs, eq_rows, eq_rhs) is not None
