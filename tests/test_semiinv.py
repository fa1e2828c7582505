import random
from fractions import Fraction

import pytest

from kronquiver.cluster import mutate_weight_config
from kronquiver.diamond import V, build_diamond, diamond_vertices, sigma_tilde_row
from kronquiver.linalg import mat_mul
from kronquiver.semiinv import (FlagRep, det_frac, eval_initial, eval_schofield,
                                is_normalized,
                                normalized_flag_rep, pres_initial, pres_mutated,
                                random_flag_rep, restrict, s_prime_value,
                                s_value, verify_exchange, verify_group_actions)


def rational(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi))


def random_square(rng, n):
    return [[rational(rng) for _ in range(n)] for _ in range(n)]


def test_rank2_closed_formulas():
    rng = random.Random(1)
    for _ in range(20):
        m = random_flag_rep(2, rng)
        b_neg, b_pos = m.neg[0], m.pos[0]
        assert s_value(V(1, 1, 1, 0), m) == det_frac(mat_mul(mat_mul(b_neg, m.a1), b_pos))
        assert s_value(V(1, 1, 0, 1), m) == det_frac(mat_mul(mat_mul(b_neg, m.a2), b_pos))
        assert s_value(V(1, 2, 2, 0), m) == det_frac(m.a1)
        assert s_value(V(1, 2, 0, 2), m) == det_frac(m.a2)
        a1b = mat_mul(m.a1, b_pos)
        a2b = mat_mul(m.a2, b_pos)
        stacked_cols = [[a1b[0][0], a2b[0][0]], [a1b[1][0], a2b[1][0]]]
        assert s_value(V(1, 2, 1, 1), m) == det_frac(stacked_cols)
        na1 = mat_mul(b_neg, m.a1)
        na2 = mat_mul(b_neg, m.a2)
        assert s_value(V(-1, 2, 1, 1), m) == det_frac([na1[0], na2[0]])


def test_minor_formula_on_normalized_reps():
    rng = random.Random(2)
    for l in (2, 3):
        verts = diamond_vertices(l)
        for _ in range(50):
            m = normalized_flag_rep(l, random_square(rng, l))
            assert is_normalized(m)
            for v in verts:
                assert eval_initial(v.i, v.j, v.k, v.sign, m) == \
                    eval_schofield(pres_initial(v), m), (l, v)


def test_minor_on_identity_central():
    m = normalized_flag_rep(3, [[Fraction(int(i == j)) for j in range(3)]
                                for i in range(3)])
    for (i, j, k) in [(2, 1, 1), (3, 1, 2), (3, 2, 1)]:
        assert eval_initial(i, j, k, 1, m) == 0
    assert eval_initial(3, 3, 0, 1, m) == 1


def test_eval_initial_falls_back_off_normal_form():
    rng = random.Random(3)
    m = random_flag_rep(2, rng)
    assert eval_initial(2, 1, 1, 1, m) == eval_schofield(pres_initial(V(1, 2, 1, 1)), m)


def test_eval_schofield_requires_square():
    pres = pres_initial(V(1, 2, 1, 1))
    rng = random.Random(4)
    with pytest.raises(ValueError):
        bad = pres.__class__(pres.src, (3,), pres.entries)
        eval_schofield(bad, random_flag_rep(3, rng))


def test_exchange_relations():
    assert verify_exchange(2, trials=100, seed=7).ok
    assert verify_exchange(3, trials=50, seed=7).ok
    rep = verify_exchange(4, trials=25, seed=7)
    assert rep.ok and rep.checks == 25 * 12
    rep = verify_exchange(5, trials=5, seed=7)
    assert rep.ok and rep.checks == 100
    rep = verify_exchange(6, trials=2, seed=7)
    assert rep.ok and rep.checks == 60


def test_exchange_terms_degenerate_conventions():
    # at (1;1,0): s_{1;0,1}^2 s_{2;2,0} + 1 * s_{1^2;2} s_{2;1^2}, the doubled
    # C arrow giving the square and level 0 giving no factor
    quiver, _config = build_diamond(2)

    def named(pairs):
        return {str(v): c for v, c in pairs}

    assert named(quiver.incoming(V(1, 1, 1, 0))) == {"(1;0,1)+": 2, "(2;2,0)+": 1}
    assert named(quiver.outgoing(V(1, 1, 1, 0))) == {"(1,1;2)-": 1, "(2;1,1)+": 1}
    assert named(quiver.outgoing(V(1, 1, 0, 1))) == {"(1;1,0)+": 2, "(2;0,2)+": 1}


def test_mutated_torus_weight():
    # s'_u scales under the torus by the (j, k) part of its mutated weight row
    rng = random.Random(12)
    for l in (2, 3, 4):
        quiver, config = build_diamond(l)
        for u in quiver.mutable_vertices:
            a, b = mutate_weight_config(quiver, config, u)[u][-2:]
            for _ in range(3):
                m = random_flag_rep(l, rng)
                t1, t2 = rng.randint(2, 9), rng.randint(2, 9)
                value = s_prime_value(u, m)
                # a zero value would satisfy every weight
                assert value != 0, (l, u)
                assert s_prime_value(u, m.transform(t1=t1, t2=t2)) == \
                    t1 ** a * t2 ** b * value, (l, u)


def test_group_actions():
    assert verify_group_actions(2, trials=20, seed=3).ok
    assert verify_group_actions(3, trials=10, seed=3).ok


def test_torus_scaling_explicit():
    rng = random.Random(5)
    m = random_flag_rep(3, rng)
    scaled = m.transform(t1=Fraction(2), t2=Fraction(3))
    for v in diamond_vertices(3):
        assert s_value(v, scaled) == 2 ** v.j * 3 ** v.k * s_value(v, m)


def test_lower_unipotent_moves_det_a1():
    rng = random.Random(6)
    seen = False
    for _ in range(10):
        m = random_flag_rep(2, rng)
        if s_value(V(1, 2, 2, 0), m.transform(u_prime=Fraction(1))) != \
                s_value(V(1, 2, 2, 0), m):
            seen = True
            break
    assert seen


def random_sl(rng, n):
    """Product of random elementary shears: determinant one by construction."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rational(rng, -3, 3)
        shear = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        shear[i][j] = c
        m = mat_mul(m, shear)
    return m


def test_sl_invariance():
    rng = random.Random(8)
    for l in (2, 3):
        verts = diamond_vertices(l)
        for _ in range(5):
            m = random_flag_rep(l, rng)
            group = {}
            for v in range(1, l + 1):
                group[v] = random_sl(rng, v)
                group[-v] = random_sl(rng, v)
            moved = m.base_change(group)
            for v in verts:
                assert s_value(v, moved) == s_value(v, m), (l, v)


def test_multidegree_scaling():
    rng = random.Random(9)
    l = 2
    t = Fraction(3)
    for vertex_idx in (1, 2, -1, -2):
        m = random_flag_rep(l, rng)
        n = abs(vertex_idx)
        diag = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        diag[0][0] = t
        moved = m.base_change({vertex_idx: diag})
        for v in diamond_vertices(l):
            weight = sigma_tilde_row(v, l)
            sigma_v = weight[l + vertex_idx - 1] if vertex_idx > 0 \
                else weight[-vertex_idx - 1]
            assert s_value(v, moved) == t ** sigma_v * s_value(v, m), (vertex_idx, v)


def test_restrict_shapes_and_normal_form():
    rng = random.Random(10)
    for l in (2, 3, 4):
        m = random_flag_rep(l, rng)
        mb = restrict(m)
        assert mb.l == l - 1
        a2 = random_square(rng, l)
        norm = normalized_flag_rep(l, a2)
        nb = restrict(norm)
        assert is_normalized(nb)
        assert nb.a2 == [row[: l - 1] for row in a2[: l - 1]]
    with pytest.raises(ValueError):
        restrict(random_flag_rep(1, rng))


def test_restrict_sign_table_constant():
    rng = random.Random(11)
    for l in (2, 3, 4):
        signs = {}
        for _ in range(50):
            m = random_flag_rep(l, rng)
            mb = restrict(m)
            for v in diamond_vertices(l - 1):
                a, b = s_value(v, mb), s_value(v, m)
                if a == 0 or b == 0:
                    continue
                signs.setdefault(v, set()).add(a / b)
        assert signs
        for v, seen in signs.items():
            assert len(seen) == 1 and next(iter(seen)) in (1, -1), (l, v, seen)


def test_s_prime_sign_convention():
    # horizontal rank-2 case against the hand-computed normal form value
    a, b, c, d = (Fraction(x) for x in (5, 7, -3, 2))
    m = normalized_flag_rep(2, [[a, b], [c, d]])
    assert s_prime_value(V(1, 1, 1, 0), m) == a * a + b * c
    # s_{1;0,1} = a and s * s' = bc + 1*(ad - bc) = ad, so s' = d
    assert s_prime_value(V(1, 1, 0, 1), m) == d
