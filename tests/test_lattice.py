import hashlib
import random
from itertools import product

import pytest

from kronquiver import linalg
from kronquiver.diamond import cone_inequalities
from kronquiver.engine import section_for, lambda_weight_of
from kronquiver.lattice import (BOUNDED, PolytopeSection, SectionError,
                                count_points, diagnose, enumerate_points,
                                parse_hrep, section_to_hrep)
from kronquiver.linalg import INFEASIBLE, UNBOUNDED
from kronquiver.partitions import (Partition, Weight, partitions_of,
                                   partitions_to_weight)


def box_scan_oracle(section):
    """Independent brute force: scan the full LP-certified coordinate box and
    keep the integer points satisfying every raw row."""
    lo, hi = [], []
    for i in range(section.dim):
        objective = [0] * section.dim
        objective[i] = 1
        ge = section.ineqs
        rhs = [0] * len(ge)
        eq = [a for a, _ in section.equalities]
        erhs = [b for _, b in section.equalities]
        mn = linalg.solve_lp(objective, ge, rhs, eq, erhs, sense="min")
        mx = linalg.solve_lp(objective, ge, rhs, eq, erhs, sense="max")
        if mn.status == INFEASIBLE:
            return []
        assert mn.status == "optimal" and mx.status == "optimal"
        lo.append(-((-mn.value.numerator) // mn.value.denominator))
        hi.append(mx.value.numerator // mx.value.denominator)
    out = []
    for point in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if section.contains(point):
            out.append(point)
    return sorted(out)


def test_enumerate_matches_box_scan_on_rank2_sections():
    for mu_parts, nu_parts in [((2, 1), (2, 1)), ((3,), (2, 1)), ((2, 2), (2, 2)),
                               ((4, 1), (3, 2)), ((1, 1), (2,))]:
        sigma = partitions_to_weight(Partition(mu_parts), Partition(nu_parts), 2)
        section = section_for(sigma)
        assert list(enumerate_points(section)) == box_scan_oracle(section)


def test_enumerate_matches_box_scan_on_rank3_sections():
    rng = random.Random(2)
    for _ in range(6):
        n = rng.randint(1, 6)
        pool = [p for p in partitions_of(n, max_length=3)]
        mu, nu = rng.choice(pool), rng.choice(pool)
        sigma = partitions_to_weight(mu, nu, 3)
        section = section_for(sigma)
        assert list(enumerate_points(section)) == box_scan_oracle(section)


def test_enumerate_matches_box_scan_on_random_small_systems():
    # Random bounded sections: nonnegative orthant rows, a positive-coefficient
    # equality slice keeping things finite, and a few random extra rows.
    rng = random.Random(7)
    for _ in range(30):
        dim = rng.randint(1, 4)
        ineqs = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        for _ in range(rng.randint(0, 3)):
            ineqs.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
        eqs = [(tuple(rng.randint(1, 3) for _ in range(dim)), rng.randint(0, 6))]
        if rng.random() < 0.5:
            eqs.append((tuple(rng.randint(-1, 1) for _ in range(dim)),
                        rng.randint(-1, 1)))
        section = PolytopeSection(dim, ineqs, eqs)
        if diagnose(section) == INFEASIBLE:
            assert count_points(section) == 0
            continue
        assert list(enumerate_points(section)) == box_scan_oracle(section)


def test_diagnosis_examples():
    sigma = partitions_to_weight(Partition((2, 1)), Partition((2, 1)), 2)
    assert diagnose(section_for(sigma)) == BOUNDED
    cone = cone_inequalities(2)
    bare = PolytopeSection.from_cone(cone)
    assert diagnose(bare) == UNBOUNDED
    row = list(cone.row_vectors()[-1])  # the single-vertex row at (l;l,0)
    bad = PolytopeSection.from_cone(cone, [(tuple(row), -1)])
    assert diagnose(bad) == INFEASIBLE


def test_scan_starts_from_the_sides_the_lp_closed():
    # The rotated square 0 <= x + y <= 2t, 0 <= x - y <= 2t at t = 1 over
    # (x, y, t): no single row bounds x or y, so root propagation leaves both
    # open and the scan's first node starts from the sides lp_box closed.
    section = PolytopeSection(3, [(1, 1, 0), (-1, -1, 2), (1, -1, 0), (-1, 1, 2)],
                              [((0, 0, 1), 1)])
    lo, hi = linalg.propagate_box(section.rows, [None] * 3, [None] * 3)
    assert lo[:2] == hi[:2] == [None, None]
    points = enumerate_points(section)
    assert list(points) == box_scan_oracle(section) and len(points) == 5
    assert count_points(section) == 5
    assert diagnose(section) == BOUNDED


def test_unbounded_sections_rejected_with_diagnosis():
    bare = PolytopeSection.from_cone(cone_inequalities(2))
    with pytest.raises(SectionError) as err:
        enumerate_points(bare)
    assert err.value.status == UNBOUNDED
    with pytest.raises(SectionError):
        count_points(bare)


def test_infeasible_sections_are_empty():
    cone = cone_inequalities(2)
    row = cone.row_vectors()[-1]
    bad = PolytopeSection.from_cone(cone, [(row, -1)])
    assert count_points(bad) == 0
    assert len(enumerate_points(bad)) == 0


def test_integer_empty_but_rationally_feasible():
    # 2x = 1 alone is rationally feasible (x = 1/2) yet has no integer point
    section = PolytopeSection(1, [], [((2,), 1)])
    assert diagnose(section) == BOUNDED
    assert count_points(section) == 0
    assert len(enumerate_points(section)) == 0


@pytest.mark.parametrize("mu, nu, l", [((3, 2, 1), (2, 2, 2), 3),
                                        ((2, 2, 1, 1), (3, 1, 1, 1), 4),
                                        ((2, 1, 1, 1, 1), (2, 2, 1, 1), 5)])
def test_torus_weight_off_the_size_fails_the_integer_certificate(monkeypatch, mu, nu, l):
    # The equalities of the lambda-section at torus weight (a, b) have an
    # integer point exactly when a + b = |sigma|.  Otherwise the certificate
    # empties the section before any propagation: a scan without it takes
    # seconds at l = 5.
    sigma = partitions_to_weight(Partition(mu), Partition(nu), l)
    n = sigma.size

    def solvable(section):
        return linalg.solve_integer_system([a for a, _ in section.equalities],
                                           [b for _, b in section.equalities])

    assert all(solvable(section_for(sigma, (a, n - a))) for a in range(n + 1))

    def no_propagation(*args, **kwargs):
        raise AssertionError("the scan propagated")

    monkeypatch.setattr(linalg, "propagate_box", no_propagation)
    for lam in [(n, 1), (n - 1, 0), (n + 3, -1), (0, n + 1), (2, 2)]:
        section = section_for(sigma, lam)
        assert not solvable(section), lam
        assert count_points(section) == 0


def test_count_matches_enumeration():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(1, 7)
        pool = [p for p in partitions_of(n, max_length=3)]
        mu, nu = rng.choice(pool), rng.choice(pool)
        lam = rng.choice([p for p in partitions_of(n, max_length=2)])
        sigma = partitions_to_weight(mu, nu, 3)
        section = section_for(sigma, (lam[0], lam[1]))
        assert count_points(section) == len(enumerate_points(section))


def test_count_symmetry_under_weight_swap():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 7)
        pool = [p for p in partitions_of(n, max_length=2)]
        mu, nu = rng.choice(pool), rng.choice(pool)
        sigma = partitions_to_weight(mu, nu, 2)
        for lam in partitions_of(n, max_length=2):
            straight = count_points(section_for(sigma, (lam[0], lam[1])))
            swapped = count_points(section_for(sigma, (lam[1], lam[0])))
            assert straight == swapped, (mu, nu, lam)


def test_points_sorted_and_verified():
    sigma = partitions_to_weight(Partition((2, 1)), Partition((2, 1)), 2)
    section = section_for(sigma)
    pts = enumerate_points(section)
    assert list(pts) == sorted(pts)
    assert all(section.contains(g) for g in pts)
    # contains() reads the sparse rows the scan reads; check the raw rows too.
    for g in pts:
        assert all(linalg.dot(a, g) >= 0 for a in section.ineqs)
        assert all(linalg.dot(a, g) == b for a, b in section.equalities)


def test_hrep_round_trip():
    sigma = partitions_to_weight(Partition((2, 1)), Partition((2, 1)), 2)
    section = section_for(sigma, (2, 1))
    text = section_to_hrep(section, comment="rank-2 section")
    back = parse_hrep(text)
    assert back.dim == section.dim
    assert back.ineqs == section.ineqs
    assert back.equalities == section.equalities
    assert list(enumerate_points(back)) == list(enumerate_points(section))


def test_parse_hrep_errors():
    with pytest.raises(ValueError):
        parse_hrep("dim 2\nineq 1\n1 2 3\neq 0\n")
    with pytest.raises(ValueError):
        parse_hrep("ineq 1\n1 1\n")


@pytest.mark.parametrize("text, message", [
    ("dim 2\nineq 1\n1 0\n", "input ends where 'eq' was expected"),
    ("dim 2\nineq 2\n1 0\n", "input ends where an inequality row was expected"),
    ("", "input ends where 'dim' was expected"),
])
def test_parse_hrep_truncated_input(text, message):
    with pytest.raises(ValueError, match=message):
        parse_hrep(text)


def test_parse_hrep_keyword_without_count():
    with pytest.raises(ValueError, match="'dim' takes one nonnegative count"):
        parse_hrep("dim\n")


def test_parse_hrep_negative_count():
    with pytest.raises(ValueError, match="'ineq' takes one nonnegative count"):
        parse_hrep("dim 2\nineq -1\neq 0\n")


def test_parse_hrep_rows_after_the_eq_block():
    with pytest.raises(ValueError, match="rows left over after the declared eq block"):
        parse_hrep("dim 2\nineq 0\neq 1\n1 1 2\n1 -1 0\n")


def test_closed_root_box_runs_no_lp(monkeypatch):
    # Propagation, from the certified pool box at l = 4, closes the root box
    # of these engine sections, so counting them must not reach exact LP.
    sections = [section_for(partitions_to_weight(Partition(mu), Partition(nu), l), lam)
                for mu, nu, l, lam in [((2, 1), (2, 1), 2, None), ((4, 1), (3, 2), 2, None),
                                       ((3, 2, 1), (2, 2, 2), 3, None),
                                       ((3, 2, 1), (2, 2, 2), 3, (4, 2)),
                                       ((2, 2, 1), (3, 1, 1), 3, (3, 2)),
                                       ((5, 5, 5, 5), (5, 5, 5, 5), 4, (10, 10))]]
    counts = [count_points(s) for s in sections]

    def no_lp(*args, **kwargs):
        raise AssertionError("exact LP ran")

    monkeypatch.setattr(linalg, "_phase1", no_lp)
    monkeypatch.setattr(linalg, "solve_lp", no_lp)
    assert [count_points(s) for s in sections] == counts
    assert counts[0] > 0 and counts[2] > 0


def test_scan_work_is_pinned_on_a_ladder_section(monkeypatch):
    # The lambda-section of the ladder query (5,5,5,5)^2/(10,10) at l = 4:
    # one root call (no max_rounds) from the certified pool box, then one
    # call per scan node, of which 38 prune the node, for 12 points.  A
    # propagation or certificate change that alters the boxes of this scan
    # shows up here as changed counts.
    calls = {"root": 0, "node": 0, "pruned": 0}
    propagate = linalg.propagate_box

    def counted(rows, lower, upper, max_rounds=None, **kwargs):
        box = propagate(rows, lower, upper, max_rounds, **kwargs)
        calls["root" if max_rounds is None else "node"] += 1
        calls["pruned"] += max_rounds is not None and box is None
        return box

    monkeypatch.setattr(linalg, "propagate_box", counted)
    sigma = partitions_to_weight(Partition((5, 5, 5, 5)), Partition((5, 5, 5, 5)), 4)
    points = enumerate_points(section_for(sigma, (10, 10)))
    assert len(points) == 12
    assert calls == {"root": 1, "node": 71, "pruned": 38}


# The lambda-sections of the four ladder queries, one at each of l = 3, 4, 5
# and 6 (only l = 4 carries a certified root box): the number of points and
# the sha1 of their sorted list, as the round-based propagation scan found
# them.
LADDER_POINTS = [
    ((5, 4, 3), (4, 3, 2, 2, 1), (9, 3), 5, 2, "6e889317cca5dd73ccc0fcfc80a28d14fd084631"),
    ((6, 6, 6), (6, 6, 6), (9, 9), 3, 8, "f66a3dc8cb1986e7e48876b5344f43ba80a6790e"),
    ((5, 5, 5, 5), (5, 5, 5, 5), (10, 10), 4, 12, "7da1800355e5dcac453235c714e803f708026192"),
    ((7, 6, 5), (5, 4, 3, 3, 2, 1), (12, 6), 6, 2, "2586fd73c573282b1ebad55a0a2872c53db99c45"),
]


@pytest.mark.parametrize("mu, nu, lam, l, count, sha1", LADDER_POINTS)
def test_ladder_point_lists_are_pinned(mu, nu, lam, l, count, sha1):
    sigma = partitions_to_weight(Partition(mu), Partition(nu), l)
    points = enumerate_points(section_for(sigma, lam))
    assert len(points) == count
    assert hashlib.sha1(repr(points).encode()).hexdigest() == sha1
