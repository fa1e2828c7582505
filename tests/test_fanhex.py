import random
from itertools import product

import pytest

from kronquiver.cluster import LaurentPoly
from kronquiver.diamond import V, diamond_vertices, sigma_tilde_row
from kronquiver.engine import section_for
from kronquiver.fanhex import (UnimodularFan, binomial_divide, check_tu_blocks,
                               check_unimodular_fan, diamond2_closed_form,
                               diamond2_fan, fan_hilbert, fan_slice_count,
                               hex_membership, hex_rows, hex_vertices,
                               phi_image, phi_matrix, phi_vertex,
                               sigma_hat_vertex, sigma_hat_weight)
from kronquiver.lattice import enumerate_points
from kronquiver.linalg import det_frac, rank
from kronquiver.partitions import Partition, Weight, partitions_of, partitions_to_weight


def test_fan_checks():
    fan = diamond2_fan()
    ok, issues = check_unimodular_fan(fan)
    assert ok and not issues
    std = UnimodularFan(3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)),))
    assert check_unimodular_fan(std)[0]
    doubled = UnimodularFan(6, (fan.cones[0][:5] + (fan.cones[0][4],),))
    assert not check_unimodular_fan(doubled)[0]


def test_fan_hilbert_single_cone():
    std = UnimodularFan(3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)),))
    hs = fan_hilbert(std)
    assert hs.numerator == LaurentPoly.constant(3, 1)
    assert dict(hs.denominator) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_fan_hilbert_matches_closed_form():
    series = fan_hilbert(diamond2_fan())
    reference = diamond2_closed_form()
    assert series.equals(reference)
    assert series.equals(reference.canonical())


def test_binomial_division():
    x = LaurentPoly.monomial(2, (1, 0))
    one = LaurentPoly.constant(2, 1)
    f = one - x ** 3
    q = binomial_divide(f, (1, 0))
    assert q == one + x + x * x
    assert binomial_divide(one - x * x + x, (1, 0)) is None


def _slice_helpers():
    verts = diamond_vertices(2)
    rows = [sigma_tilde_row(v, 2) for v in verts]
    levels = [v.i for v in verts]

    def weight(g):
        return tuple(sum(gv * r[c] for gv, r in zip(g, rows)) for c in range(4))

    def positive(g):
        return sum(gv * lv for gv, lv in zip(g, levels))

    return weight, positive


def test_series_slices_match_enumeration():
    fan = diamond2_fan()
    weight, positive = _slice_helpers()
    checked = 0
    for neg in product(range(-3, 1), repeat=2):
        for pos in product(range(0, 4), repeat=2):
            if -(neg[0] + 2 * neg[1]) != pos[0] + 2 * pos[1]:
                continue
            sigma = Weight(2, neg, pos)
            expected = len(enumerate_points(section_for(sigma)))
            got = fan_slice_count(fan, weight, tuple(neg) + tuple(pos),
                                  positive, sigma.size)
            assert got == expected, sigma
            checked += 1
    assert checked >= 25


def test_phi_corner_and_axis_images():
    assert phi_vertex(2, V(1, 2, 2, 0)) == {(-2, 2): 1}
    assert phi_vertex(3, V(1, 3, 3, 0)) == {(-3, 3): 1}
    # right-axis vertices map to single units on the positive antidiagonal,
    # matching the coordinate equations h(k,-i) = g(i;j,k)
    assert phi_vertex(3, V(1, 2, 0, 2)) == {(2, -2): 1}
    assert phi_vertex(3, V(1, 3, 0, 3)) == {(3, -3): 1}


def test_phi_general_images_stay_in_hexagon():
    for l in (2, 3, 4):
        cells = set(hex_vertices(l))
        for v in diamond_vertices(l):
            image = phi_vertex(l, v)
            assert set(image) <= cells, (l, v)
            assert all(c in (-1, 1) for c in image.values())


def test_phi_full_rank():
    for l in (1, 2, 3, 4):
        assert rank(phi_matrix(l)) == l * (l + 1)


def test_phi_sigma_weight_reproduction():
    for l in (1, 2, 3):
        for v in diamond_vertices(l):
            got = sigma_hat_weight(l, phi_vertex(l, v))
            assert got == sigma_tilde_row(v, l)[: 2 * l], (l, v)


def test_sigma_hat_center_is_zero():
    for l in (2, 3):
        assert sigma_hat_vertex(l, (0, 0)) == {}


def test_tu_blocks():
    for l in (1, 2, 3):
        ok, issues = check_tu_blocks(l)
        assert ok, (l, issues)


def test_tu_random_minor_spot_checks():
    rng = random.Random(19)
    for l in (1, 2, 3):
        matrix = phi_matrix(l)
        nrows = len(matrix)
        ncols = len(matrix[0])
        for _ in range(200):
            k = rng.randint(1, min(nrows, ncols, 6))
            rows = rng.sample(range(nrows), k)
            cols = rng.sample(range(ncols), k)
            sub = [[matrix[r][c] for c in cols] for r in rows]
            assert det_frac(sub) in (-1, 0, 1), (l, rows, cols)


def test_hex_rows_reference_only_hexagon_vertices():
    for l in (1, 2, 3, 4):
        rows = hex_rows(l)
        assert rows
        cells = set(hex_vertices(l))
        for coeffs, _tag in rows:
            assert set(coeffs) <= cells


def test_hex_membership_examples():
    assert hex_membership(2, {})
    assert not hex_membership(2, {(-2, 2): -1})
    assert hex_membership(2, {(-2, 2): 1})


def test_enumerated_points_map_into_hexagon_cone():
    rng = random.Random(5)
    for l in (1, 2, 3):
        for _ in range(10):
            n = rng.randint(1, 6 if l < 3 else 8)
            pool = [p for p in partitions_of(n, max_length=l)]
            mu, nu = rng.choice(pool), rng.choice(pool)
            sigma = partitions_to_weight(mu, nu, l)
            points = enumerate_points(section_for(sigma))
            images = [tuple(sorted(phi_image(l, g).items())) for g in points]
            assert len(set(images)) == len(points), (l, mu, nu)
            for g, image in zip(points, images):
                assert hex_membership(l, dict(image)), (l, mu, nu, g)
                assert sigma_hat_weight(l, dict(image)) == \
                    tuple(sigma.neg) + tuple(sigma.pos)


def test_hex_system_hrep_round_trip():
    from kronquiver.fanhex import HexSystem
    from kronquiver.lattice import parse_hrep
    for l in (1, 2, 3):
        system = HexSystem(l)
        section = parse_hrep(system.to_hrep())
        assert section.dim == len(hex_vertices(l))
        assert section.ineqs == [r for r, _ in system.row_vectors()]
        # the cone contains every phi image of a diamond unit vector
        col = {cell: i for i, cell in enumerate(system.vertices)}
        for v in diamond_vertices(l):
            h = [0] * section.dim
            for cell, c in phi_vertex(l, v).items():
                h[col[cell]] = c
            assert section.contains(h), (l, v)


HEX_L2_HREP = """\
# hexagon cone of rank 2; columns are (-2,1) (-2,2) (-1,-1) (-1,0) (-1,1) (-1,2) \
(0,-1) (0,1) (1,-2) (1,-1) (1,0) (1,1) (2,-2) (2,-1)
dim 14
ineq 21
0 1 0 0 0 0 0 0 0 0 0 0 0 0  # corner
0 0 0 0 0 0 0 0 0 0 0 0 1 0  # axis m=0
0 0 0 0 0 0 0 0 0 1 0 0 1 0  # axis m=1
0 0 0 0 0 0 0 0 0 0 0 1 0 0  # f1a j=1 m=1
0 0 1 0 0 0 0 0 0 0 0 0 0 0  # f1b j=1 m=1
0 0 0 0 0 0 0 0 0 0 1 1 0 0  # f1a j=1 m=2
0 0 1 0 0 0 1 0 0 0 0 0 0 0  # f1b j=1 m=2
0 0 0 0 0 0 0 0 0 1 1 1 0 0  # f1a j=1 m=3
0 0 1 0 0 0 1 0 0 1 0 0 0 0  # f1b j=1 m=3
0 0 0 0 0 0 0 0 1 0 0 0 0 0  # f2a k=1 m=0
0 0 0 0 0 0 0 0 0 0 0 0 0 1  # f2b k=1 m=0
0 0 0 0 0 0 1 0 1 0 0 0 0 0  # f2a k=1 m=1
0 0 0 0 0 0 0 0 0 0 1 0 0 1  # f2b k=1 m=1
0 0 0 1 0 0 1 0 1 0 0 0 0 0  # f2a k=1 m=2
0 0 0 0 0 0 0 1 0 0 1 0 0 1  # f2b k=1 m=2
0 0 0 0 0 1 0 0 0 0 0 0 0 0  # f3a j=1 m=0
1 0 0 0 0 0 0 0 0 0 0 0 0 0  # f3b j=1 m=0
0 0 0 0 1 1 0 0 0 0 0 0 0 0  # f3a j=1 m=1
1 0 0 0 1 0 0 0 0 0 0 0 0 0  # f3b j=1 m=1
0 0 0 1 1 1 0 0 0 0 0 0 0 0  # f3a j=1 m=2
1 0 0 0 1 0 0 1 0 0 0 0 0 0  # f3b j=1 m=2
eq 0
"""


def test_hex_system_hrep_pinned():
    from kronquiver.fanhex import HexSystem
    assert HexSystem(2).to_hrep() == HEX_L2_HREP


def test_fan_hilbert_rejects_bad_fans():
    fan = diamond2_fan()
    broken = UnimodularFan(6, (fan.cones[0][:5] + (fan.cones[0][4],),))
    with pytest.raises(ValueError):
        fan_hilbert(broken)
