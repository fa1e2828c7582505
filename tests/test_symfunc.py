import random
from fractions import Fraction
from itertools import permutations

import pytest

from kronquiver.partitions import Partition, partitions_of
from kronquiver.symfunc import (horn_positive, kron_characters, kron_via_lr, lr_coeff,
                                mn_character, multi_lr, schur_from_weights, zed)


def P(*parts):
    return Partition(parts)


def test_lr_examples():
    for j, k in [(1, 1), (2, 3), (4, 1)]:
        assert lr_coeff(P(j + k), P(j), P(k)) == 1
    assert lr_coeff(P(3), P(1), P(1)) == 0  # degree mismatch
    assert lr_coeff(P(5, 4, 3), P(4, 3, 2), P(2, 1)) == 2
    assert lr_coeff(P(2, 1), P(3), P(0)) == 0  # not contained


def test_lr_small_admissibility_values():
    # the four small coefficients behind the low-rank Horn inequalities
    assert lr_coeff(P(), P(), P()) == 1
    assert lr_coeff(P(1), P(), P(1)) == 1
    assert lr_coeff(P(1, 1), P(), P(1, 1)) == 1
    assert lr_coeff(P(1, 1), P(1), P(1)) == 1


def test_lr_symmetry_randomized():
    rng = random.Random(11)
    pool = [p for n in range(0, 7) for p in partitions_of(n, max_length=3)]
    for _ in range(300):
        mu, nu = rng.choice(pool), rng.choice(pool)
        lam = rng.choice([p for p in partitions_of(mu.size + nu.size, max_length=4)])
        assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)


def test_multi_lr_examples():
    assert multi_lr([P(2, 1)], P(2, 1)) == 1
    assert multi_lr([P(2, 1)], P(3)) == 0
    assert multi_lr([P(4, 3, 2), P(2, 1)], P(4, 3, 2, 2, 1)) == 1


def test_multi_lr_matches_lr_for_pairs():
    for n in range(0, 7):
        for k in range(0, n + 1):
            for e1 in partitions_of(k, max_length=3):
                for e2 in partitions_of(n - k, max_length=3):
                    for lam in partitions_of(n, max_length=4):
                        assert multi_lr([e1, e2], lam) == lr_coeff(lam, e1, e2)


def test_multi_lr_matches_lr_for_triples():
    # s_e1 s_e2 s_e3 = sum over kappa of c_{e1,e2}^kappa s_kappa s_e3
    pool = [p for n in range(0, 4) for p in partitions_of(n, max_length=2)]
    for e1 in pool:
        for e2 in pool:
            for e3 in pool:
                for lam in partitions_of(e1.size + e2.size + e3.size, max_length=4):
                    expected = sum(lr_coeff(kappa, e1, e2) * lr_coeff(lam, kappa, e3)
                                   for kappa in partitions_of(e1.size + e2.size))
                    assert multi_lr([e1, e2, e3], lam) == expected


def test_multi_lr_order_independent():
    rng = random.Random(5)
    pool = [p for n in range(0, 5) for p in partitions_of(n, max_length=2)]
    for _ in range(40):
        etas = [rng.choice(pool) for _ in range(3)]
        lam = rng.choice([p for p in
                          partitions_of(sum(e.size for e in etas), max_length=4)])
        base = multi_lr(etas, lam)
        for perm in permutations(etas):
            assert multi_lr(list(perm), lam) == base


def test_mn_examples():
    for rho in partitions_of(5):
        assert mn_character(P(5), rho) == 1
        assert mn_character(P(1, 1, 1, 1, 1), rho) == (-1) ** (rho.size - rho.length)
    assert mn_character(P(2, 1), P(3)) == -1
    with pytest.raises(ValueError):
        mn_character(P(2), P(3))


def brute_force_character_21(rho):
    """chi^(2,1) on S_3 via the explicit 2-dimensional representation."""
    table = {(3,): -1, (2, 1): 0, (1, 1, 1): 2}
    return table[rho.parts]


def test_mn_standard_rep_of_s3():
    for rho in partitions_of(3):
        assert mn_character(P(2, 1), rho) == brute_force_character_21(rho)


def test_column_orthogonality():
    for n in range(1, 11):
        for rho in partitions_of(n):
            z = zed(rho)
            total = sum(mn_character(lam, rho) ** 2 for lam in partitions_of(n))
            assert total == z


def test_zed():
    assert zed(P(1, 1, 1)) == 6
    assert zed(P(3)) == 3
    assert zed(P(2, 1)) == 2


def test_kron_characters_units():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = 1 if lam == mu else 0
                assert kron_characters(lam, mu, P(n)) == expected
                expected_sign = 1 if lam == mu.conjugate() else 0
                assert kron_characters(lam, mu, Partition([1] * n)) == expected_sign


def test_kron_characters_examples():
    assert kron_characters(P(1, 1), P(1, 1), P(1, 1)) == 0
    assert kron_characters(P(2, 2), P(2, 2), P(2, 2)) == 1
    assert kron_characters(P(2, 1), P(2, 1), P(2, 1)) == 1


def test_kron_symmetries_exhaustive():
    for n in range(1, 7):
        pool = list(partitions_of(n))
        for i, lam in enumerate(pool):
            for mu in pool[i:]:
                for nu in pool:
                    g = kron_characters(lam, mu, nu)
                    assert kron_characters(mu, lam, nu) == g
                    assert kron_characters(nu, mu, lam) == g
                    assert kron_characters(lam, mu.conjugate(), nu.conjugate()) == g


def brute_force_a_k(mu, nu, k):
    n = mu.size
    total = 0
    for e1 in partitions_of(k):
        for e2 in partitions_of(n - k):
            total += lr_coeff(mu, e1, e2) * lr_coeff(nu, e1, e2)
    return total


def test_a_k_examples():
    for n in (1, 2, 5):
        assert brute_force_a_k(P(n), P(n), n) == 1
    assert brute_force_a_k(P(2, 1), P(2, 1), 2) == 2
    assert brute_force_a_k(P(2, 1), P(2, 1), 5) == 0
    assert brute_force_a_k(P(2, 1), P(2, 1), -1) == 0


def test_a_k_prune_preserving():
    # at m = 2, g = a_{lam(1)} - a_{lam(1)+1}
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        pool = list(partitions_of(n, max_length=4))
        mu, nu = rng.choice(pool), rng.choice(pool)
        k = rng.randint(0, n)
        lam = P(max(k, n - k), min(k, n - k))
        g = kron_via_lr(lam, mu, nu, prune=True)
        assert g == kron_via_lr(lam, mu, nu, prune=False)
        assert g == brute_force_a_k(mu, nu, lam[0]) - brute_force_a_k(mu, nu, lam[0] + 1)


def test_lemma_g2_family_vanishing_tail():
    # a_{lam(1)+1} = 0 for the g = 2 family
    cases = [((3, 1), P(5, 4, 3), P(4, 3, 2, 2, 1)),
             ((4, 1), P(6, 5, 4), P(5, 4, 3, 2, 1))]
    for (j, k), mu, nu in cases:
        assert brute_force_a_k(mu, nu, 3 * j + 1) == 0
        assert kron_via_lr(Partition((3 * j, 3 * k)), mu, nu) == 2


def test_kron_via_lr_examples():
    assert kron_via_lr(P(2, 1), P(2, 1), P(2, 1)) == 1
    assert kron_via_lr(P(9, 3), P(5, 4, 3), P(4, 3, 2, 2, 1)) == 2
    with pytest.raises(ValueError):
        kron_via_lr(P(1, 1, 1), P(3), P(3))


def test_kron_via_lr_agrees_with_characters():
    for n in range(0, 8):
        for lam in partitions_of(n, max_length=2):
            for mu in partitions_of(n, max_length=3):
                for nu in partitions_of(n, max_length=3):
                    assert kron_via_lr(lam, mu, nu) == kron_characters(lam, mu, nu)


def test_kron_via_lr_general_m():
    for (lam, mu, nu) in [
        (P(2, 1, 1), P(2, 1, 1), P(2, 2)),
        (P(3, 2, 1), P(3, 2, 1), P(2, 2, 2)),
        (P(2, 2), P(2, 1, 1), P(2, 1, 1)),
    ]:
        assert kron_via_lr(lam, mu, nu, m=3) == kron_characters(lam, mu, nu)
        assert kron_via_lr(lam, mu, nu, m=3, prune=False) == \
            kron_characters(lam, mu, nu)


def test_horn_examples():
    assert horn_positive(P(5), P(3), P(2), 1)
    assert not horn_positive(P(1, 1, 1), P(2), P(1), 3)
    with pytest.raises(ValueError):
        horn_positive(P(2, 1, 1), P(2), P(2), 2)
    with pytest.raises(ValueError):
        horn_positive(P(3), P(1), P(1), 2)


def test_horn_agrees_with_lr_exhaustive():
    for m in (1, 2, 3, 4):
        for n in range(0, 9):
            for ksize in range(0, n + 1):
                for lam in partitions_of(n, max_length=m):
                    for mu in partitions_of(ksize, max_length=m):
                        for nu in partitions_of(n - ksize, max_length=m):
                            assert horn_positive(lam, mu, nu, m) == \
                                (lr_coeff(lam, mu, nu) > 0), (m, lam, mu, nu)


def test_schur_from_weights():
    e = schur_from_weights([(3, 0), (2, 1), (2, 1), (1, 2), (1, 2), (0, 3)])
    assert e.coeffs == {P(3): 1, P(2, 1): 1}
    assert str(e) == "s[3] + s[2,1]"
    assert schur_from_weights([(1, 0), (0, 1)]).coeffs == {P(1): 1}
    assert schur_from_weights([]).coeffs == {}
    with pytest.raises(ValueError):
        schur_from_weights([(2, 1)] * 2 + [(3, 0)] * 2)  # negative at (2,1)? rebuild fails
    with pytest.raises(ValueError):
        schur_from_weights([(1, 2)])  # lone non-dominant weight


def test_schur_from_weights_character_rebuild():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 8)
        coeffs = {}
        for lam in partitions_of(n, max_length=2):
            c = rng.randint(0, 3)
            if c:
                coeffs[lam] = c
        weights = []
        for p, c in coeffs.items():
            a, b = p[0], p[1]
            for t in range(a - b + 1):
                weights.extend([(a - t, b + t)] * c)
        rng.shuffle(weights)
        out = schur_from_weights(weights)
        assert out.coeffs == coeffs


def test_kron_characters_exactness_guard():
    total = sum(Fraction(mn_character(P(2, 1), rho) ** 3, zed(rho))
                for rho in partitions_of(3))
    assert total.denominator == 1
