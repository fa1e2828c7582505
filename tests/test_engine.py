import random
from collections import Counter

import pytest

from kronquiver import _certificates, engine, linalg
from kronquiver.diamond import PAPER_DIAMOND2_ALIAS, diamond_vertices
from kronquiver.engine import (KroneckerQuery, cross_validate, kronecker,
                               lambda_weight_of, polytope_counts, section_for,
                               sigma_weight_of, truncated_product)
from kronquiver.lattice import PolytopeSection, enumerate_points
from kronquiver.partitions import Partition, partitions_of, partitions_to_weight
from kronquiver.symfunc import kron_characters


def P(*parts):
    return Partition(parts)


def test_golden_rank2_example():
    sigma = partitions_to_weight(P(2, 1), P(2, 1), 2)
    points = enumerate_points(section_for(sigma))
    assert len(points) == 6
    verts = diamond_vertices(2)
    index = {v: i for i, v in enumerate(verts)}

    def unit_combo(*pairs):
        g = [0] * 6
        for paper_num, coeff in pairs:
            g[index[PAPER_DIAMOND2_ALIAS[paper_num]]] += coeff
        return tuple(g)

    expected = {
        unit_combo((1, 1), (5, 1)): (3, 0),
        unit_combo((2, 1), (6, 1)): (0, 3),
        unit_combo((2, 1), (5, 1)): (2, 1),
        unit_combo((1, 1), (6, 1)): (1, 2),
        unit_combo((6, 1), (1, 2), (2, -1)): (2, 1),
        unit_combo((3, 1), (4, 1), (1, -1)): (1, 2),
    }
    assert set(points) == set(expected)
    for g in points:
        assert lambda_weight_of(g, 2) == expected[tuple(g)]
        assert sigma_weight_of(g, 2) == (-1, -1, 1, 1)


def test_section_equalities_pinned_at_rank3():
    # Flag rows sigma(-1..-3), sigma(1..3), then the torus rows (j, k), each
    # with its right-hand side; without lambda only the flag rows remain.
    sigma = partitions_to_weight(P(3, 2, 1), P(4, 1, 1), 3)
    flag = [
        ((-1, -1, 0, 0, 0, -2, 0, 0, 0, 0, -1, -1), -1),
        ((0, 0, -1, -1, -1, 0, 0, 0, 0, 0, -1, -1), -1),
        ((0, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0, 0), -1),
        ((1, 1, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0), 3),
        ((0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0), 0),
        ((0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1), 1),
    ]
    torus = [
        ((1, 0, 2, 1, 0, 1, 3, 2, 1, 0, 2, 1), 4),
        ((0, 1, 0, 1, 2, 1, 0, 1, 2, 3, 1, 2), 2),
    ]
    assert section_for(sigma).equalities == flag
    assert section_for(sigma, (4, 2)).equalities == flag + torus


def test_lambda_weights_of_the_rank4_ladder_sigma_section():
    sigma = partitions_to_weight(P(5, 5, 5, 5), P(5, 5, 5, 5), 4)
    points = enumerate_points(section_for(sigma))
    assert len(points) == 126
    got = Counter(lambda_weight_of(g, 4) for g in points)
    half = [1, 1, 2, 3, 5, 6, 8, 9, 11, 11]
    mult = half + [12] + half[::-1]
    assert got == Counter({(a, 20 - a): m for a, m in enumerate(mult)})
    assert {sigma_weight_of(g, 4) for g in points} == {sigma.neg + sigma.pos}


def test_golden_rank2_coefficients():
    r = kronecker(KroneckerQuery.create(P(2, 1), P(2, 1), P(3)), "all")
    assert r.g == 1 and r.agree
    r = kronecker(KroneckerQuery.create(P(2, 1), P(2, 1), P(2, 1)), "all")
    assert r.values == {"polytope": 1, "characters": 1, "lr": 1}
    assert r.counts == {"lambda": 2, "lambda_omega": 1}
    assert str(truncated_product(P(2, 1), P(2, 1))) == "s[3] + s[2,1]"


def test_non_saturation_example():
    r = kronecker(KroneckerQuery.create(P(1, 1), P(1, 1), P(1, 1)), "all")
    assert r.g == 0 and r.agree


def test_lemma_g2_smallest_instance():
    q = KroneckerQuery.create(P(5, 4, 3), P(4, 3, 2, 2, 1), P(9, 3), l=5)
    r = kronecker(q, "all")
    assert r.agree and r.g == 2


def test_truncated_examples():
    for n in (1, 2, 4):
        assert truncated_product(P(n), P(n)).coeffs == {P(n): 1}
    assert truncated_product(P(1, 1), P(1, 1)).coeffs == {P(2): 1}


def test_truncated_consistency_with_kronecker():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 7)
        pool = [p for p in partitions_of(n, max_length=3)]
        mu, nu = rng.choice(pool), rng.choice(pool)
        l = max(mu.length, nu.length, 1)
        expansion = truncated_product(mu, nu, l)
        for lam in partitions_of(n, max_length=2):
            rep = kronecker(KroneckerQuery.create(mu, nu, lam, l), "polytope")
            assert expansion[lam] == rep.g, (mu, nu, lam)


def test_l_stability():
    rng = random.Random(37)
    for _ in range(8):
        n = rng.randint(1, 6)
        pool = [p for p in partitions_of(n, max_length=2)]
        mu, nu, lam = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        base = max(mu.length, nu.length, 1)
        values = []
        for l in range(base, base + 3):
            rep = kronecker(KroneckerQuery.create(mu, nu, lam, l), "polytope")
            values.append(rep.g)
        assert len(set(values)) == 1, (mu, nu, lam, values)


def test_nonnegative_count_difference_and_symmetry():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(1, 7)
        pool = [p for p in partitions_of(n, max_length=3)]
        mu, nu = rng.choice(pool), rng.choice(pool)
        lam = rng.choice([p for p in partitions_of(n, max_length=2)])
        l = max(mu.length, nu.length, 1)
        n_lam, n_omega = polytope_counts(partitions_to_weight(mu, nu, l), lam)
        assert n_lam >= n_omega
        for method in ("polytope", "characters", "lr"):
            a = kronecker(KroneckerQuery.create(mu, nu, lam, l), method).g
            b = kronecker(KroneckerQuery.create(nu, mu, lam, l), method).g
            assert a == b, (method, mu, nu, lam)


def test_lambda_omega_section_fed_unchanged():
    # lambda = (n) subtracts the (n+1, -1) section, which must come back empty
    n_lam, n_omega = polytope_counts(partitions_to_weight(P(3), P(3), 1), P(3))
    assert (n_lam, n_omega) == (1, 0)


def test_cross_validate_small():
    rep = cross_validate(4, 2)
    assert rep.all_agree and rep.cases == rep.agreements > 0
    d = rep.to_json_dict()
    assert d["all_agree"] is True
    empty = cross_validate(-1, 2)
    assert empty.cases == 0 and empty.all_agree


def test_cross_validate_jobs_match():
    serial = cross_validate(3, 2, jobs=1)
    parallel = cross_validate(3, 2, jobs=2)
    assert (serial.cases, serial.agreements) == (parallel.cases, parallel.agreements)


def test_query_validation():
    with pytest.raises(ValueError):
        KroneckerQuery.create(P(2, 1), P(3), P(2, 1, 1))
    with pytest.raises(ValueError):
        KroneckerQuery.create(P(2, 1), P(2), P(3))
    with pytest.raises(ValueError):
        KroneckerQuery.create(P(2, 1), P(2, 1), P(2, 1), l=1)
    with pytest.raises(ValueError):
        kronecker(KroneckerQuery.create(P(2), P(2), P(2)), "magic")


def test_auto_l():
    q = KroneckerQuery.create(P(2, 1), P(3), P(3))
    assert q.l == 2
    assert KroneckerQuery.create(P(), P(), P()).l == 1


def test_size_zero_triple():
    r = kronecker(KroneckerQuery.create(P(), P(), P()), "all")
    assert r.g == 1 and r.agree


def test_report_json_shape():
    r = kronecker(KroneckerQuery.create(P(2, 1), P(2, 1), P(2, 1)), "all")
    d = r.to_json_dict()
    assert d["mu"] == "2,1" and d["sigma"] == "-1,-1;1,1"
    assert d["counts"] == {"lambda": 2, "lambda_omega": 1}
    assert d["g"] == 1 and d["agree"] is True
    assert set(d["methods"]) == {"polytope", "characters", "lr"}
    assert set(d["timings"]) == {"polytope", "characters", "lr"}


# ---------------------------------------------------------------------------
# The certified root box at l = 4.

@pytest.mark.parametrize("torus", [True, False])
@pytest.mark.parametrize("part", [0, 1])
def test_certificate_loader_rejects_a_tampered_entry(monkeypatch, part, torus):
    # One entry of y (part 0) or of z (part 1) raised by one, in the pool of
    # the lambda-sections (torus rows present) or of the sigma-sections.
    key = (4, torus, 3, "max")
    table = dict(_certificates.CERTIFICATES)
    parts = [p.split() for p in table[key][0].split(" / ")]
    parts[part][0] = str(int(parts[part][0]) + 1)
    table[key] = (" / ".join(" ".join(p) for p in parts),) + table[key][1:]
    monkeypatch.setattr(_certificates, "CERTIFICATES", table)
    engine._certificates.cache_clear()
    try:
        with pytest.raises(ValueError, match=f"bad dual certificate for l=4 torus={torus} coordinate 3 max"):
            engine._certificates(4, torus)
    finally:
        engine._certificates.cache_clear()


def test_only_rank4_sections_carry_a_root_box():
    for l in (2, 3, 5):
        sigma = partitions_to_weight(P(2, 1), P(2, 1), l)
        assert section_for(sigma).box is None
        assert section_for(sigma, (2, 1)).box is None
    sigma = partitions_to_weight(P(2, 1), P(2, 1), 4)
    for section in (section_for(sigma), section_for(sigma, (2, 1))):
        lo, hi = section.box
        assert len(lo) == len(hi) == section.dim and None not in lo + hi


def test_certified_root_boxes_of_the_rank4_ladder_sections():
    # The sigma-section of (5,5,5,5)^2 and its lambda-section at (10, 10):
    # the certified boxes, their width sums (81 each), and the sums once
    # root propagation has run from them (57 and 60).
    sigma = partitions_to_weight(P(5, 5, 5, 5), P(5, 5, 5, 5), 4)
    pinned = [
        (None, [-2, -5, 0, -2, -5, -2, -5, 0, -5, -5, 0, -5, 0, 0, 0, 0, 0, 0, 0, 0],
         [5, 5, 5, 0, 5, 0, 5, 0, 0, 0, 0, 0, 5, 0, 5, 0, 5, 0, 0, 5], 57),
        ((10, 10), [-1, -3, 0, -2, -5, -2, -5, 0, -5, -5, 0, -5, 0, 0, 0, 0, 0, 0, 0, 0],
         [3, 2, 5, 0, 5, 3, 5, 0, 0, 0, 0, 0, 5, 0, 5, 0, 5, 5, 0, 5], 60),
    ]
    for lam, lo, hi, propagated in pinned:
        section = section_for(sigma, lam)
        assert section.box == (lo, hi)
        assert sum(h - l for l, h in zip(lo, hi)) == 81
        lo, hi = linalg.propagate_box(section.rows, lo, hi)
        assert sum(h - l for l, h in zip(lo, hi)) == propagated


def test_pool_box_holds_every_point_of_random_rank4_sections():
    # The scan from the certified box finds exactly the points of the scan
    # from an all-open box, and every one of them lies in the box.
    rng = random.Random(41)
    nonempty = 0
    for t in range(30):
        n = rng.randint(1, 10)
        shapes = list(partitions_of(n, max_length=4))
        sigma = partitions_to_weight(rng.choice(shapes), rng.choice(shapes), 4)
        lam = rng.choice(list(partitions_of(n, max_length=2)))
        boxed = section_for(sigma, (lam[0], lam[1]) if t % 2 else None)
        open_box = PolytopeSection(boxed.dim, boxed.ineqs, boxed.equalities)
        points = enumerate_points(open_box)
        lo, hi = boxed.box
        assert all(a <= x <= b for p in points for a, x, b in zip(lo, p, hi))
        assert enumerate_points(boxed) == points
        nonempty += len(points) > 0
    assert nonempty >= 15


def test_rank4_ladder_at_k8():
    report = kronecker(KroneckerQuery.create(P(8, 8, 8, 8), P(8, 8, 8, 8), P(16, 16), 4),
                       "polytope")
    assert report.g == 2
    assert kronecker(report.query, "lr").g == 2
