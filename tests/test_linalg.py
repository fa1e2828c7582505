import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from kronquiver import engine, lattice, linalg
from kronquiver.linalg import (BOUNDED, INFEASIBLE, OPTIMAL, UNBOUNDED, det_frac,
                               dot, dual_certificate, identity, inverse, lp_box,
                               lp_feasible,
                               mat_mul, propagate_box, rank,
                               solve_integer_system, solve_lp)
from kronquiver.partitions import partitions_of, partitions_to_weight


def laplace_det(m):
    """Reference determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


# ---------------------------------------------------------------------------
# Free columns in solve_lp.

def test_variable_in_no_row_with_a_cost_is_unbounded():
    # x1 appears in no constraint; x0 is boxed.
    res = solve_lp([0, 1], [[1, 0], [-1, 0]], [0, -3], sense="max")
    assert res.status == UNBOUNDED
    res = solve_lp([0, 1], [[1, 0], [-1, 0]], [0, -3], sense="min")
    assert res.status == UNBOUNDED


def test_variable_in_no_row_without_a_cost_is_optimal():
    res = solve_lp([1, 0], [[1, 0], [-1, 0]], [0, -3], sense="max")
    assert res.status == OPTIMAL
    assert res.value == 3 and res.point[0] == 3


def test_no_rows_at_all():
    assert solve_lp([0, 0], [], []).status == OPTIMAL
    assert solve_lp([0, 1], [], []).status == UNBOUNDED


def test_equality_only_system():
    # x + y = 3, x - y = 1 pins (2, 1); the third row is redundant.
    eq = [[1, 1], [1, -1], [2, 0]]
    rhs = [3, 1, 4]
    for sense in ("min", "max"):
        res = solve_lp([5, -2], [], [], eq, rhs, sense=sense)
        assert res.status == OPTIMAL
        assert res.point == (2, 1) and res.value == 8
    # One equality in two variables leaves a free line.
    assert solve_lp([1, 0], [], [], [[1, 1]], [3]).status == UNBOUNDED
    res = solve_lp([1, 1], [], [], [[1, 1]], [3], sense="min")
    assert res.status == OPTIMAL and res.value == 3


def test_inconsistent_equality_pair_is_infeasible():
    res = solve_lp([1, 0], [], [], [[1, 1], [2, 2]], [1, 3])
    assert res.status == INFEASIBLE
    res = solve_lp([0, 0], [[1, 0]], [0], [[1, -1], [1, -1]], [0, Fraction(1, 2)])
    assert res.status == INFEASIBLE


def brute_force_optimum(objective, ge, ge_rhs, eq, eq_rhs, sense):
    """Best objective over the vertices: every choice of tight >= rows that,
    with the equalities, gives a nonsingular square system, solved with
    ``inverse``.  None when no vertex is feasible."""
    n = len(objective)
    best = None
    for tight in combinations(range(len(ge)), n - len(eq)):
        a = [ge[i] for i in tight] + eq
        b = [ge_rhs[i] for i in tight] + eq_rhs
        try:
            inv = inverse(a)
        except ZeroDivisionError:
            continue
        x = [dot(row, b) for row in inv]
        if any(dot(r, x) < h for r, h in zip(ge, ge_rhs)):
            continue
        if any(dot(r, x) != h for r, h in zip(eq, eq_rhs)):
            continue
        value = dot(objective, x)
        if best is None or (value > best if sense == "max" else value < best):
            best = value
    return best


def random_bounded_lps():
    """300 seeded LPs in 2-3 variables, each inside a box: ``(objective, ge,
    ge_rhs, eq, eq_rhs, sense)``."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 3)
        # A box keeps every instance bounded, so a feasible one has a vertex.
        ge = [[int(i == j) * s for j in range(n)] for i in range(n) for s in (1, -1)]
        ge_rhs = [-rng.randint(1, 4) for _ in ge]
        for _ in range(rng.randint(0, 4)):
            ge.append([rng.randint(-3, 3) for _ in range(n)])
            ge_rhs.append(rng.randint(-4, 2))
        eq, eq_rhs = [], []
        if rng.random() < 0.3:
            row = [rng.randint(-2, 2) for _ in range(n - 1)] + [rng.randint(1, 2)]
            eq.append(row)
            eq_rhs.append(rng.randint(-2, 2))
        objective = [rng.randint(-3, 3) for _ in range(n)]
        yield objective, ge, ge_rhs, eq, eq_rhs, rng.choice(["min", "max"])


def test_random_bounded_lps_match_the_best_vertex():
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for objective, ge, ge_rhs, eq, eq_rhs, sense in random_bounded_lps():
        res = solve_lp(objective, ge, ge_rhs, eq, eq_rhs, sense=sense)
        best = brute_force_optimum(objective, ge, ge_rhs, eq, eq_rhs, sense)
        if best is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL and res.value == best
            assert dot(objective, res.point) == best
            assert all(dot(r, res.point) >= h for r, h in zip(ge, ge_rhs))
            assert all(dot(r, res.point) == h for r, h in zip(eq, eq_rhs))
        seen[res.status] += 1
    assert min(seen.values()) > 10, seen


def test_phase1_rows_are_integer_rows_in_lowest_terms():
    # A tableau row is (a, d), meaning a / d: ints, d > 0, gcd(d, *a) == 1.
    feasible = 0
    for objective, ge, ge_rhs, eq, eq_rhs, sense in random_bounded_lps():
        res = linalg._phase1(len(objective), ge, ge_rhs, eq, eq_rhs)
        if res is None:
            continue
        feasible += 1
        for a, d in res[0]:
            assert all(type(x) is int for x in (*a, d))
            assert d > 0 and math.gcd(d, *a) == 1, (a, d)
    assert feasible > 100


# The (row, column) sequence of every _pivot over the 22 irredundancy LPs of
# the rank-3 cone rows, then diagnose on each l = 2 sigma-section with
# |mu| = |nu| <= 5: Bland's rule must pick the same pivots whatever the
# tableau's number representation.
PIVOTS_PINNED = 1621
PIVOTS_SHA1 = "57e6471200dad394c0fa31d098364cac8b4469df"


def test_pivot_sequence_is_pinned(monkeypatch):
    rows = engine._cone(3).row_vectors()
    lps = [[rows[i] for i in range(len(rows)) if i != r] + [tuple(-x for x in rows[r])]
           for r in range(len(rows))]
    sections = [engine.section_for(partitions_to_weight(mu, nu, 2)) for n in range(1, 6)
                for mu in partitions_of(n, max_length=2)
                for nu in partitions_of(n, max_length=2)]
    pivots = []
    pivot = linalg._pivot
    monkeypatch.setattr(linalg, "_pivot", lambda t, r, c: pivots.append((r, c)) or pivot(t, r, c))
    assert len(lps) == 22 and all(lp_feasible(ge, [1] * len(ge)) for ge in lps)
    assert len(sections) == 27
    assert all(lattice.diagnose(s) == BOUNDED for s in sections)
    assert len(pivots) == PIVOTS_PINNED
    assert hashlib.sha1(repr(pivots).encode()).hexdigest() == PIVOTS_SHA1


# ---------------------------------------------------------------------------
# lp_box: one phase 1 per call, the same box as one solve_lp per side.

def box_by_solve_lp(ge, ge_rhs, eq, eq_rhs, lo, hi):
    """Reference: fill the open sides with one full solve_lp each."""
    for i in range(len(lo)):
        objective = [int(j == i) for j in range(len(lo))]
        for sense, side, inward in (("min", lo, math.ceil), ("max", hi, math.floor)):
            if side[i] is None:
                res = solve_lp(objective, ge, ge_rhs, eq, eq_rhs, sense=sense)
                if res.status != OPTIMAL:
                    return res.status
                side[i] = inward(res.value)
    return BOUNDED


def test_lp_box_matches_one_solve_lp_per_side(monkeypatch):
    calls = []
    phase1 = linalg._phase1
    monkeypatch.setattr(linalg, "_phase1", lambda *a: calls.append(a) or phase1(*a))
    rng = random.Random(23)
    seen = {BOUNDED: 0, UNBOUNDED: 0, INFEASIBLE: 0}
    no_rows = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        ge = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        ge_rhs = [rng.randint(-4, 3) for _ in ge]
        eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.choice([0, 0, 1, 2]))]
        eq_rhs = [rng.randint(-3, 3) for _ in eq]
        no_rows += not ge and not eq
        # Some sides already filled, as propagation leaves them.
        lo = [None if rng.random() < 0.7 else rng.randint(-3, 0) for _ in range(n)]
        hi = [None if rng.random() < 0.7 else rng.randint(0, 3) for _ in range(n)]
        closed = None not in lo + hi
        want_lo, want_hi = list(lo), list(hi)
        want = box_by_solve_lp(ge, ge_rhs, eq, eq_rhs, want_lo, want_hi)
        calls.clear()
        status = lp_box(ge, ge_rhs, eq, eq_rhs, lo, hi)
        assert (status, lo, hi) == (want, want_lo, want_hi), (ge, ge_rhs, eq, eq_rhs)
        assert len(calls) == (0 if closed else 1)
        seen[status] += 1
    assert min(seen.values()) > 30 and no_rows > 10, (seen, no_rows)


def test_dual_certificate_proves_the_optimum_of_each_side():
    # On random cone sections A x >= 0, E x = b, each side with a finite
    # optimum has an integer certificate E^T y - d e_i = s A^T z, z >= 0, whose
    # bound y.b / d is that optimum; an unbounded or empty side has none.
    rng = random.Random(29)
    seen = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        ge = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.choice([0, 1, 1, 2]))]
        eq_rhs = [rng.randint(-3, 3) for _ in eq]
        for i in range(n):
            for sense, s in (("min", -1), ("max", 1)):
                want = solve_lp([int(j == i) for j in range(n)], ge, [0] * len(ge),
                                eq, eq_rhs, sense=sense)
                cert = dual_certificate(ge, eq, eq_rhs, i, sense)
                seen[want.status] += 1
                if want.status != OPTIMAL:
                    assert cert is None
                    continue
                y, z, d = cert
                assert d > 0 and min(z, default=0) >= 0
                for j in range(n):
                    assert (dot(y, [row[j] for row in eq]) - d * (j == i)
                            == s * dot(z, [row[j] for row in ge]))
                assert Fraction(dot(y, eq_rhs), d) == want.value
    assert min(seen.values()) > 20, seen


def test_lp_feasible_runs_phase_1_alone(monkeypatch):
    def no_phase2(*args):
        raise AssertionError("phase 2 ran")

    monkeypatch.setattr(linalg, "_phase2", no_phase2)
    assert lp_feasible([[1, 0], [0, 1]], [1, 1]) is True
    assert lp_feasible([[1, 0], [-1, 0]], [1, 0]) is False
    assert lp_feasible([], [], [[1, 1], [2, 2]], [1, 3]) is False
    assert lp_feasible([], []) is True


# ---------------------------------------------------------------------------
# det_frac, inverse, rank.

def test_det_frac_small_cases():
    assert det_frac([]) == 1
    assert det_frac([[0, 1], [1, 0]]) == -1
    assert det_frac([[2, 1], [1, 1]]) == 1
    assert det_frac([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]) \
        == Fraction(1, 60)
    assert det_frac([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0
    assert det_frac([[0, 0], [0, 0]]) == 0


def test_det_frac_matches_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(k)]
             for _ in range(k)]
        if rng.random() < 0.3:
            m[-1] = [2 * x for x in m[0]]
        assert det_frac(m) == laplace_det(m)


def test_det_frac_on_large_integer_entries():
    # Bareiss divides exactly by the previous pivot: check it against cofactor
    # expansion with a zero leading entry (a row swap) and singular matrices.
    rng = random.Random(7)
    for k in range(60):
        size = rng.randint(5, 6)
        m = [[rng.randint(-10**6, 10**6) for _ in range(size)] for _ in range(size)]
        if k % 2:
            m[0][0] = 0
        if k % 5 == 0:
            i, j = rng.sample(range(1, size), 2)
            m[j] = list(m[i])
        want = laplace_det(m)
        assert det_frac(m) == want
        assert (want == 0) == (k % 5 == 0)


def test_inverse_of_integer_and_fraction_matrices():
    assert inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    m = [[Fraction(1, 2), 0, 1], [0, 3, Fraction(-1, 3)], [1, 1, 1]]
    inv = inverse(m)
    assert mat_mul(m, inv) == identity(3)
    assert mat_mul(inv, m) == identity(3)
    assert det_frac(inv) == 1 / det_frac(m)
    # a zero leading entry needs a row swap
    assert inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("m", [
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]],
])
def test_inverse_of_singular_matrix_raises(m):
    with pytest.raises(ZeroDivisionError):
        inverse(m)


def test_rank():
    assert rank([]) == 0
    assert rank([[0, 0, 0]]) == 0
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 2
    assert rank(identity(4)) == 4


def random_sparse_matrices(seed, count):
    """Random Fraction matrices of at most 5 x 5, about 30% zeros, some with
    a dependent last row."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[0 if rng.random() < 0.3 else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.25:
            m[-1] = [x - 2 * y for x, y in zip(m[0], m[-2])]
        yield m


def test_rank_is_the_largest_nonzero_minor():
    for m in random_sparse_matrices(5, 300):
        want = max((k for k in range(1, min(len(m), len(m[0])) + 1)
                    for rows in combinations(m, k) for cols in combinations(range(len(m[0])), k)
                    if laplace_det([[row[j] for j in cols] for row in rows])), default=0)
        assert rank(m) == want, m


def test_inverse_times_matrix_is_identity():
    for m in random_sparse_matrices(5, 300):
        if len(m) != len(m[0]):
            continue
        if laplace_det(m) == 0:
            with pytest.raises(ZeroDivisionError):
                inverse(m)
        else:
            assert mat_mul(inverse(m), m) == identity(len(m)), m


# ---------------------------------------------------------------------------
# propagate_box and solve_integer_system against brute force.

def test_propagate_box_never_cuts_off_an_integer_solution():
    rng = random.Random(11)
    pruned = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))]
        # The brute-force box; a side given as None is open, so the points
        # checked are some of the solutions, never outside them.
        lo = [rng.randint(-4, 0) for _ in range(n)]
        hi = [rng.randint(0, 4) for _ in range(n)]
        given_lo = [None if rng.random() < 0.3 else v for v in lo]
        given_hi = [None if rng.random() < 0.3 else v for v in hi]
        points = [x for x in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
                  if all(dot(a, x) >= r for a, r in rows)]
        # The same rows in the sparse form propagate_box takes.
        sparse = [(tuple((i, c) for i, c in enumerate(a) if c), r) for a, r in rows]
        for max_rounds in (None, 1, 6):
            box = propagate_box(sparse, given_lo, given_hi, max_rounds=max_rounds)
            if box is None:
                assert points == [], (rows, given_lo, given_hi)
                pruned += max_rounds is None
                continue
            new_lo, new_hi = box
            for x in points:
                assert all(b is None or b <= v for b, v in zip(new_lo, x))
                assert all(b is None or v <= b for b, v in zip(new_hi, x))
    assert pruned > 20


def test_propagate_box_tightens_a_copy():
    lower, upper = [0, 0], [3, 3]
    # x0 - x1 >= 1 as the sparse row ((index, coeff), ...), r.
    assert propagate_box([(((0, 1), (1, -1)), 1)], lower, upper) == ([1, 0], [3, 2])
    assert (lower, upper) == ([0, 0], [3, 3])


def test_solve_integer_system_solves_or_proves_no_solution():
    rng = random.Random(17)
    solved = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(n)]
            rhs = [dot(row, x) for row in rows]
        else:
            rhs = [rng.randint(-4, 4) for _ in rows]
        x0 = solve_integer_system(rows, rhs)
        if x0 is None:
            # Brute force over a box finds no solution either.
            assert not any(all(dot(row, x) == b for row, b in zip(rows, rhs))
                           for x in product(range(-6, 7), repeat=n)), (rows, rhs)
        else:
            assert len(x0) == n and all(isinstance(v, int) for v in x0)
            assert [dot(row, x0) for row in rows] == rhs
            solved += 1
    assert solved > 100


def test_solve_integer_system_small_cases():
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[1, 1], [1, 1]], [1, 2]) is None
    x0 = solve_integer_system([[2, 4], [1, -1]], [6, 0])
    assert x0 == (1, 1)
