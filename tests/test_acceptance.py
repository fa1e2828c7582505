"""Acceptance suite: one test per criterion, each asserting exact values and
its stated wall-clock budget.  The conftest hook prints one PASS/FAIL line per
criterion."""

import json
import random
import time
from itertools import product

from kronquiver import linalg
from kronquiver.cli import main as cli_main
from kronquiver.cluster import LaurentPoly, mutate_weight_config, y_monomial
from kronquiver.diamond import (PAPER_DIAMOND2_ALIAS, V, build_diamond,
                                cone_inequalities, diamond_vertices)
from kronquiver.engine import (KroneckerQuery, cross_validate, kronecker,
                               lambda_weight_of, section_for, truncated_product)
from kronquiver.fanhex import (check_tu_blocks, check_unimodular_fan,
                               diamond2_closed_form, diamond2_fan, fan_hilbert,
                               fan_slice_count, hex_membership, phi_image,
                               phi_matrix, phi_vertex, sigma_hat_weight)
from kronquiver.lattice import count_points, enumerate_points
from kronquiver.linalg import rank
from kronquiver.partitions import (Partition, Weight, partitions_of,
                                   partitions_to_weight)
from kronquiver.semiinv import verify_exchange, verify_group_actions
from kronquiver.diamond import sigma_tilde_row
from tests.test_diamond import paper_g_vector_families, row_irredundant


def P(*parts):
    return Partition(parts)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert elapsed < self.seconds, \
                f"budget exceeded: {elapsed:.1f}s > {self.seconds}s"


def test_criterion_1_rank2_golden_example(capsys):
    with Budget(1.0):
        code = cli_main(["enumerate", "--l", "2", "--sigma", "-1,-1;1,1",
                         "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["count"] == 6
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
        got = {tuple(p["g"]): tuple(p["lambda_weight"]) for p in payload["points"]}
        assert got == expected
        assert sorted(got.values()) == [(0, 3), (1, 2), (1, 2), (2, 1), (2, 1), (3, 0)]
        assert str(truncated_product(P(2, 1), P(2, 1))) == "s[3] + s[2,1]"
        assert kronecker(KroneckerQuery.create(P(2, 1), P(2, 1), P(3)), "all").g == 1
        rep = kronecker(KroneckerQuery.create(P(2, 1), P(2, 1), P(2, 1)), "all")
        assert rep.g == 1 and rep.counts == {"lambda": 2, "lambda_omega": 1}


def test_criterion_2_triple_oracle_agreement():
    with Budget(600.0):
        report = cross_validate(8, 3)
        assert report.all_agree, report.to_json_dict()
        assert report.cases == 1103
    with Budget(600.0):
        rng = random.Random(20260810)
        for _ in range(50):
            n = rng.randint(1, 12)
            pool = [p for p in partitions_of(n, max_length=4)]
            lams = [p for p in partitions_of(n, max_length=2)]
            mu, nu, lam = rng.choice(pool), rng.choice(pool), rng.choice(lams)
            rep = kronecker(KroneckerQuery.create(mu, nu, lam, l=4), "all")
            assert rep.agree, (mu, nu, lam, rep.values)


def test_criterion_3_g_equals_2_family():
    with Budget(300.0):
        cases = {
            (3, 1): (P(9, 3), P(5, 4, 3), P(4, 3, 2, 2, 1), 5),
            (4, 1): (P(12, 3), P(6, 5, 4), P(5, 4, 3, 2, 1), 5),
            (4, 2): (P(12, 6), P(7, 6, 5), P(5, 4, 3, 3, 2, 1), 6),
        }
        for (j, k), (lam, mu, nu, l) in cases.items():
            assert lam == Partition((3 * j, 3 * k))
            i = j + k
            assert mu == Partition((i + 1, i, i - 1))
            assert nu == Partition([j + 1, j, j - 1, k + 1, k, k - 1])
            rep = kronecker(KroneckerQuery.create(mu, nu, lam, l), "all")
            assert rep.agree and rep.g == 2, ((j, k), rep.values)


def test_criterion_4_structural():
    with Budget(120.0):
        for l in range(1, 7):
            quiver, config = build_diamond(l)
            assert config.is_valid()  # B . sigma_tilde = 0
            assert rank(quiver.b_matrix()) == quiver.num_mutable
            assert len(cone_inequalities(l).rows) == 3 * l * l - 2 * l + 1
        for l in range(1, 5):
            rows = cone_inequalities(l).row_vectors()
            for r in range(len(rows)):
                assert row_irredundant(rows, r), (l, r)
        for l in (3, 4, 5):
            rows = cone_inequalities(l).row_vectors()
            families = paper_g_vector_families(l)
            assert families
            for g in families:
                assert all(linalg.dot(row, g) >= 0 for row in rows), (l, g)


def test_criterion_5_exchange_and_actions():
    with Budget(300.0):
        for l in (2, 3, 4):
            report = verify_exchange(l, trials=50, seed=7)
            assert report.ok and report.trials == 50, (l, report.failures[:2])
            assert report.checks == 50 * l * (l - 1)
            actions = verify_group_actions(l, trials=50, seed=3)
            assert actions.ok, (l, actions.failures[:2])


def test_criterion_6_laurent_identities():
    with Budget(1.0):
        quiver, _ = build_diamond(2)

        def x(paper_num, power=1):
            e = [0] * 6
            e[quiver.index[PAPER_DIAMOND2_ALIAS[paper_num]]] = power
            return LaurentPoly.monomial(6, tuple(e))

        one = LaurentPoly.constant(6, 1)
        y1 = y_monomial(quiver, PAPER_DIAMOND2_ALIAS[1])
        y2 = y_monomial(quiver, PAPER_DIAMOND2_ALIAS[2])
        w1 = x(6) * x(1, 2) * x(2, -1) * (one + y2 - y1 * y2)
        w2 = (x(6) * x(1) * x(2, -1)) ** 2 * \
            (one + 2 * y2 - 2 * y1 * y2 + y2 ** 2 + 2 * y1 * y2 ** 2 + y1 ** 2 * y2 ** 2)
        assert x(1, 2) * w2 == w1 * w1 + 4 * x(3) * x(4) * x(5)
        x2_prime = (x(3) * x(4) + x(1, 2) * x(6)) * x(2, -1)
        assert w1 == x2_prime - x(2) * x(5)
        x2_circ = (x(2, 2) * x(5) + x(1, 2) * x(6) + x(3) * x(4)) * x(1, -1) * x(2, -1)
        assert x2_circ == x(6) * x(1) * x(2, -1) * (one + y2 + y1 * y2)


def test_criterion_7_hilbert_series():
    with Budget(60.0):
        fan = diamond2_fan()
        ok, issues = check_unimodular_fan(fan)
        assert ok, issues
        series = fan_hilbert(fan)
        assert series.equals(diamond2_closed_form())
        verts = diamond_vertices(2)
        rows = [sigma_tilde_row(v, 2) for v in verts]
        levels = [v.i for v in verts]

        def weight(g):
            return tuple(sum(gv * r[c] for gv, r in zip(g, rows)) for c in range(4))

        def positive(g):
            return sum(gv * lv for gv, lv in zip(g, levels))

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


def test_criterion_8_phi_and_hexagon():
    with Budget(120.0):
        for l in (1, 2, 3):
            assert rank(phi_matrix(l)) == l * (l + 1)
            ok, issues = check_tu_blocks(l)
            assert ok, (l, issues)
            for v in diamond_vertices(l):
                assert sigma_hat_weight(l, phi_vertex(l, v)) == \
                    sigma_tilde_row(v, l)[: 2 * l], (l, v)
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
                for image in images:
                    assert hex_membership(l, dict(image)), (l, mu, nu, image)


def test_criterion_9_property_suites():
    with Budget(120.0):
        rng = random.Random(97)
        for l in (2, 3):
            quiver, config = build_diamond(l)
            for u in quiver.mutable_vertices:
                assert quiver.mutate(u).mutate(u).arrows == quiver.arrows
            cur_q, cur_cfg = quiver, config
            for _ in range(20):
                u = rng.choice(cur_q.mutable_vertices)
                cur_cfg = mutate_weight_config(cur_q, cur_cfg, u)
                cur_q = cur_q.mutate(u)
                assert cur_cfg.is_valid()
        for _ in range(10):
            n = rng.randint(1, 7)
            pool = [p for p in partitions_of(n, max_length=3)]
            mu, nu = rng.choice(pool), rng.choice(pool)
            sigma = partitions_to_weight(mu, nu, 3)
            for lam in partitions_of(n, max_length=2):
                straight = count_points(section_for(sigma, (lam[0], lam[1])))
                swapped = count_points(section_for(sigma, (lam[1], lam[0])))
                assert straight == swapped, (mu, nu, lam)
        assert kronecker(KroneckerQuery.create(P(1, 1), P(1, 1), P(1, 1)), "all").g == 0
        from kronquiver.symfunc import kron_characters
        assert kron_characters(P(2, 2), P(2, 2), P(2, 2)) == 1
