import random

import pytest

from kronquiver.cluster import (IceQuiver, LaurentPoly, WeightConfiguration,
                                b_matrix_mutation, mutate_weight_config,
                                y_monomial)
from kronquiver.diamond import (PAPER_DIAMOND2_ALIAS, V, build_diamond,
                                sigma_tilde_row)
from kronquiver.linalg import rank


def linear_quiver():
    return IceQuiver(["1", "2"], 2, [("1", "2")])


def test_mutate_linear_quiver():
    q = linear_quiver()
    m = q.mutate("1")
    assert dict(m.arrows) == {("2", "1"): 1}
    assert dict(m.mutate("1").arrows) == dict(q.arrows)


def test_mutation_frozen_rejected():
    q, _ = build_diamond(2)
    with pytest.raises(ValueError):
        q.mutate(V(1, 2, 2, 0))


def test_mutation_involution_on_diamonds():
    for l in (2, 3):
        q, _ = build_diamond(l)
        for u in q.mutable_vertices:
            assert q.mutate(u).mutate(u).arrows == q.arrows


def test_b_matrix_mutation_oracle():
    q, _ = build_diamond(3)
    rng = random.Random(17)
    cur = q
    for _ in range(100):
        u = rng.choice(cur.mutable_vertices)
        nxt = cur.mutate(u)
        assert nxt.b_matrix() == b_matrix_mutation(cur.b_matrix(), cur.index[u])
        cur = nxt


def test_weight_config_validity_under_mutation_chains():
    rng = random.Random(23)
    for l in (2, 3):
        q, cfg = build_diamond(l)
        cur_q, cur_cfg = q, cfg
        for _ in range(20):
            u = rng.choice(cur_q.mutable_vertices)
            cur_cfg = mutate_weight_config(cur_q, cur_cfg, u)
            cur_q = cur_q.mutate(u)
            assert cur_cfg.is_valid()


def test_weight_config_mutation_is_involution():
    q, cfg = build_diamond(3)
    for u in q.mutable_vertices:
        once_q = q.mutate(u)
        once = mutate_weight_config(q, cfg, u)
        twice = mutate_weight_config(once_q, once, u)
        assert twice.rows == cfg.rows


def _expected_mutated_row(l, u):
    """-e_{-(i-1)} - e_{-(i+1)} + e_{j+1} + e_{j-1} + e_{k+1} + e_{k-1} for a
    general positive vertex; the horizontal form swaps the tail for +-1 units."""
    row = [0] * (2 * l + 2)

    def bump(v, amount):
        if v == 0:
            return
        if v < 0:
            row[-v - 1] += amount
        else:
            row[l + v - 1] += amount

    i, j, k = u.i, u.j, u.k
    if u.horizontal:
        # formula for (i;i,0); the (i;0,i) case has the same flag part
        bump(-(i - 1), -1)
        bump(-(i + 1), -1)
        bump(-1, -1)
        bump(i + 1, 1)
        bump(i - 1, 1)
        bump(1, 1)
    else:
        bump(-(i - 1), -1)
        bump(-(i + 1), -1)
        bump(j + 1, 1)
        bump(j - 1, 1)
        bump(k + 1, 1)
        bump(k - 1, 1)
    return tuple(row)


def test_mutated_weight_vectors_match_displayed_formulas():
    for l in (3, 4):
        q, cfg = build_diamond(l)
        for u in q.mutable_vertices:
            if u.sign != 1:
                continue
            new = mutate_weight_config(q, cfg, u)
            assert new[u][:2 * l] == _expected_mutated_row(l, u)[:2 * l], (l, u)


def test_diamond_configuration_full_rank():
    for l in range(1, 7):
        q, cfg = build_diamond(l)
        assert cfg.is_valid()  # B . sigma = 0
        assert rank(q.b_matrix()) == q.num_mutable


def test_y_monomial():
    q, _ = build_diamond(2)
    u = PAPER_DIAMOND2_ALIAS[1]
    y = y_monomial(q, u)
    (exponent, coeff), = y.terms.items()
    assert coeff == 1
    assert exponent == tuple(-b for b in q.b_row(u))
    y2 = y_monomial(q, PAPER_DIAMOND2_ALIAS[2])
    prod = y * y2
    (pe, _), = prod.terms.items()
    assert pe == tuple(a + b for a, b in zip(exponent, next(iter(y2.terms))))


def test_laurent_arithmetic():
    one = LaurentPoly.constant(2, 1)
    x = LaurentPoly.monomial(2, (1, 0))
    y = LaurentPoly.monomial(2, (0, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x) == LaurentPoly.zero(2)
    assert (x ** -2) * (x ** 2) == one
    with pytest.raises(ValueError):
        (x + y) ** -1


def _paper_x(q, p, power=1):
    e = [0] * 6
    e[q.index[PAPER_DIAMOND2_ALIAS[p]]] = power
    return LaurentPoly.monomial(6, tuple(e))


def test_cayley_identity_on_diamond2():
    q, _ = build_diamond(2)
    x = lambda p, power=1: _paper_x(q, p, power)
    one = LaurentPoly.constant(6, 1)
    y1 = y_monomial(q, PAPER_DIAMOND2_ALIAS[1])
    y2 = y_monomial(q, PAPER_DIAMOND2_ALIAS[2])
    w1 = x(6) * x(1, 2) * x(2, -1) * (one + y2 - y1 * y2)
    w2 = (x(6) * x(1) * x(2, -1)) ** 2 * \
        (one + 2 * y2 - 2 * y1 * y2 + y2 ** 2 + 2 * y1 * y2 ** 2 + y1 ** 2 * y2 ** 2)
    assert x(1, 2) * w2 == w1 * w1 + 4 * x(3) * x(4) * x(5)
    # w1 = x2' - x2 x5 with x2 x2' = x3 x4 + x1^2 x6 (the exchange at vertex 2)
    x2p = (x(3) * x(4) + x(1, 2) * x(6)) * x(2, -1)
    assert w1 == x2p - x(2) * x(5)
    x2circ = (x(2, 2) * x(5) + x(1, 2) * x(6) + x(3) * x(4)) * x(1, -1) * x(2, -1)
    assert x2circ == x(6) * x(1) * x(2, -1) * (one + y2 + y1 * y2)
    assert LaurentPoly.zero(6) == LaurentPoly.zero(6)


def test_two_cycle_cancellation_on_construction():
    q = IceQuiver(["a", "b", "f"], 2, [("a", "b"), ("b", "a"), ("a", "b")])
    assert dict(q.arrows) == {("a", "b"): 1}


def test_frozen_frozen_arrows_kept():
    q, _ = build_diamond(2)
    frozen = set(q.frozen_vertices)
    kept = [(u, v) for (u, v) in q.arrows if u in frozen and v in frozen]
    assert kept  # the level-l C arrows live between frozen vertices


def test_mutation_keeps_frozen_two_cycles():
    q = IceQuiver(["a", "f", "g"], 1, [("f", "g"), ("g", "f"), ("a", "f")])
    assert dict(q.arrows) == {("f", "g"): 1, ("g", "f"): 1, ("a", "f"): 1}
    m = q.mutate("a")
    assert dict(m.arrows) == {("f", "g"): 1, ("g", "f"): 1, ("f", "a"): 1}
    assert m.mutate("a").arrows == q.arrows


def test_quiver_json_shape():
    q, _ = build_diamond(2)
    d = q.to_json_dict()
    assert set(d) == {"mutable", "frozen", "arrows"}
    assert len(d["mutable"]) == 2 and len(d["frozen"]) == 4
    assert ["(1;0,1)+", "(1;1,0)+"] in [a for a in d["arrows"]] or \
        d["arrows"].count(["(1;0,1)+", "(1;1,0)+"]) == 2


def test_weight_config_requires_consistent_dims():
    q = linear_quiver()
    with pytest.raises(ValueError):
        WeightConfiguration(q, {"1": (1, 0), "2": (1,)})
