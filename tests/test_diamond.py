import pytest

from kronquiver import linalg
from kronquiver.diamond import (PAPER_DIAMOND2_ALIAS, ConeSystem, DiamondVertex,
                                V, build_diamond, cone_inequalities,
                                diamond_arrows, diamond_vertices,
                                sigma_tilde_row, tri_broken_path)
from kronquiver.lattice import parse_hrep


def test_vertex_canonicalization():
    assert V(-1, 2, 2, 0) == V(1, 2, 2, 0)
    assert V(-1, 2, 0, 2) == V(1, 2, 0, 2)
    assert V(-1, 2, 1, 1) != V(1, 2, 1, 1)
    assert str(V(-1, 3, 2, 1)) == "(2,1;3)-"
    assert V(1, 2, 1, 1).neg() == V(-1, 2, 1, 1)
    assert V(1, 3, 2, 1).mirror() == V(1, 3, 1, 2)
    with pytest.raises(ValueError):
        V(1, 2, 2, 1)


def test_vertex_counts_and_frozen_sets():
    for l in range(1, 7):
        q, _ = build_diamond(l)
        assert len(q.vertices) == l * (l + 1)
        assert len(q.frozen_vertices) == 2 * l
        assert all(v.i == l for v in q.frozen_vertices)
    q2, _ = build_diamond(2)
    assert set(map(str, q2.frozen_vertices)) == \
        {"(2;2,0)+", "(2;1,1)+", "(1,1;2)-", "(2;0,2)+"}
    q4, _ = build_diamond(4)
    assert len(q4.vertices) == 20 and len(q4.frozen_vertices) == 8


def test_rank1_degenerate():
    q, cfg = build_diamond(1)
    assert len(q.vertices) == 2 and q.num_mutable == 0
    rows = [cfg[v] for v in q.vertices]
    assert all(r[:2] == (-1, 1) for r in rows)  # both weights e_1 - e_-1
    assert sorted(r[2:] for r in rows) == [(0, 1), (1, 0)]


def test_doubled_c_arrow():
    for l in (1, 2, 3, 4):
        q, _ = build_diamond(l)
        assert q.arrow_count(V(1, 1, 0, 1), V(1, 1, 1, 0)) == 2


def test_arrow_types_are_well_defined():
    for l in (2, 3):
        for (s, d, mult, kind) in diamond_arrows(l):
            delta = d.i - s.i
            assert {"A": -1, "B": 1, "C": 0}[kind] == delta
            assert mult == (2 if (s, d) == (V(1, 1, 0, 1), V(1, 1, 1, 0)) else 1)


def test_arrow_list_pinned():
    # Horizontal sources act through both presentations; each arrow is listed
    # once, sorted by source, target and kind.
    assert [(str(s), str(d), mult, kind) for s, d, mult, kind in diamond_arrows(2)] == [
        ("(1;1,0)+", "(2;1,1)+", 1, "B"), ("(1;1,0)+", "(1,1;2)-", 1, "B"),
        ("(1;0,1)+", "(1;1,0)+", 2, "C"), ("(1;0,1)+", "(2;0,2)+", 1, "B"),
        ("(2;2,0)+", "(1;1,0)+", 1, "A"), ("(2;1,1)+", "(1;0,1)+", 1, "A"),
        ("(2;1,1)+", "(2;2,0)+", 1, "C"), ("(2;0,2)+", "(2;1,1)+", 1, "C"),
        ("(2;0,2)+", "(1,1;2)-", 1, "C"), ("(1,1;2)-", "(1;0,1)+", 1, "A"),
        ("(1,1;2)-", "(2;2,0)+", 1, "C"),
    ]
    assert [len(diamond_arrows(l)) for l in range(1, 6)] == [1, 11, 27, 49, 77]


def test_sigma_tilde_rows():
    # f_{(2;1,1)} = 2 e_1 - e_{-2}, torus part (1,1)
    assert sigma_tilde_row(V(1, 2, 1, 1), 2) == (0, -1, 2, 0, 1, 1)
    # f_{(1,1;2)} = e_2 - 2 e_{-1}, torus part (1,1)
    assert sigma_tilde_row(V(-1, 2, 1, 1), 2) == (-2, 0, 0, 1, 1, 1)
    # horizontal identification keeps a single weight e_i - e_{-i}
    assert sigma_tilde_row(V(1, 2, 2, 0), 2) == (0, -1, 0, 1, 2, 0)
    assert sigma_tilde_row(V(1, 2, 0, 2), 2) == (0, -1, 0, 1, 0, 2)


def test_tri_broken_path_worked_example():
    p = tri_broken_path(4, 1, 3, 1)
    assert [str(v) for v in p.vertices] == [
        "(4;3,1)+", "(3;2,1)+", "(2;1,1)+", "(1;0,1)+",
        "(1;1,0)+", "(2;1,1)+", "(3;1,2)+", "(4;1,3)+"]
    assert p.vertex_counts()[V(1, 2, 1, 1)] == 2
    assert len(p) == 2 * 3 + 1 + 1
    assert p.validate(4)


def test_tri_broken_path_small_and_axis():
    p = tri_broken_path(2, 1, 1, 1)
    assert [str(v) for v in p.vertices] == \
        ["(2;1,1)+", "(1;0,1)+", "(1;1,0)+", "(2;1,1)+"]
    assert tri_broken_path(2, 0, 2).vertices == (V(1, 1, 0, 1), V(1, 2, 0, 2))
    assert tri_broken_path(3, 3, 0).vertices == \
        (V(1, 3, 3, 0), V(1, 2, 2, 0), V(1, 1, 1, 0))
    with pytest.raises(ValueError):
        tri_broken_path(3, 1, 1)


def test_tri_broken_paths_are_legal_paths():
    for l in (2, 3, 4, 5):
        for j in range(1, l):
            for sign in (1, -1):
                path = tri_broken_path(l, j, l - j, sign)
                assert path.validate(l), (l, j, sign)
                assert len(path) == 2 * (l - j) + j + 1
        assert tri_broken_path(l, l, 0).validate(l)
        assert tri_broken_path(l, 0, l).validate(l)


def test_mirror_path_uses_doubled_arrow_choice():
    plus = tri_broken_path(3, 1, 2, 1)
    minus = tri_broken_path(3, 1, 2, -1)
    assert "C-" in plus.steps and "C+" in minus.steps


def test_cone_row_counts():
    for l in range(1, 7):
        cs = cone_inequalities(l)
        assert len(cs.rows) == 3 * l * l - 2 * l + 1
        assert cs.dim == l * (l + 1)
        vecs = cs.row_vectors()
        assert len(set(vecs)) == len(vecs)


def test_cone_rows_rank2_match_stated_list():
    cs = cone_inequalities(2)
    names = [str(v) for v in cs.vertices]

    def row_of(*labels):
        return tuple(labels.count(n) for n in names)

    expected = {
        row_of("(2;1,1)+"),
        row_of("(1;1,0)+", "(2;1,1)+"),
        row_of("(1;0,1)+", "(1;1,0)+", "(2;1,1)+"),
        row_of("(1,1;2)-"),
        row_of("(1;1,0)+", "(1,1;2)-"),
        row_of("(1;0,1)+", "(1;1,0)+", "(1,1;2)-"),
        row_of("(2;0,2)+"),
        row_of("(1;0,1)+", "(2;0,2)+"),
        row_of("(2;2,0)+"),
    }
    assert set(cs.row_vectors()) == expected


def test_cone_vertices_in_canonical_order():
    for l in range(1, 9):
        assert cone_inequalities(l).vertices == tuple(diamond_vertices(l))
    with pytest.raises(ValueError, match="l must be positive"):
        cone_inequalities(0)


def test_cone_rank1():
    cs = cone_inequalities(1)
    names = [str(v) for v in cs.vertices]
    got = {tuple(r) for r in cs.row_vectors()}
    e = {tuple(int(n == name) for n in names) for name in ("(1;0,1)+", "(1;1,0)+")}
    assert got == e


def test_cone_provenance_tags():
    cs = cone_inequalities(4)
    tags = [tag for _, tag in cs.rows]
    assert "tp+[4;1,3] suffix@2" in tags
    assert "e[4;4,0]" in tags
    assert "tp[4;0,4] suffix@0" in tags


def test_cone_hrep_round_trip():
    cs = cone_inequalities(3)
    section = parse_hrep(cs.to_hrep())
    assert section.dim == cs.dim
    assert section.ineqs == cs.row_vectors()
    assert section.equalities == []


def row_irredundant(rows, r):
    """Exact-LP certificate: a rational point satisfying all other rows
    strictly while violating row r."""
    ge = [rows[i] for i in range(len(rows)) if i != r]
    ge.append(tuple(-x for x in rows[r]))
    rhs = [1] * len(ge)
    return linalg.lp_feasible(ge, rhs)


def test_cone_rows_irredundant():
    for l in (1, 2, 3):
        rows = cone_inequalities(l).row_vectors()
        for r in range(len(rows)):
            assert row_irredundant(rows, r), (l, r)


def paper_g_vector_families(l):
    """The two families of distinguished cone points, in canonical coordinates."""
    verts = diamond_vertices(l)
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for sign in (1, -1):
        for i in range(3, l + 1):
            g = [0] * len(verts)
            g[index[V(sign, i, 0, i)]] += i - 2
            g[index[V(sign, 2, 1, 1)]] += 1
            for n in range(3, i + 1):
                g[index[V(sign, n, n - 1, 1)]] += 1
                g[index[V(sign, n - 1, 0, n - 1)]] -= 1
            out.append(tuple(g))
            for j in range(1, (i - 1) // 2 + 1):
                if 2 * j >= i:
                    continue
                g = [0] * len(verts)
                g[index[V(sign, i, j, i - j)]] += i - 2 * j + 1
                for n in range(0, i - 2 * j):
                    g[index[V(sign, 2 * j + n, j + n + 1, j - 1)]] += 1
                    g[index[V(sign, 2 * j + n, j, j + n)]] -= 1
                out.append(tuple(g))
    return out


def test_distinguished_g_vector_families_in_cone():
    for l in (3, 4, 5):
        rows = cone_inequalities(l).row_vectors()
        fams = paper_g_vector_families(l)
        assert fams
        for g in fams:
            assert all(linalg.dot(row, g) >= 0 for row in rows), (l, g)


def test_frozen_units_in_cone():
    for l in (1, 2, 3, 4, 5):
        cs = cone_inequalities(l)
        for v in diamond_vertices(l):
            if v.i != l:
                continue
            unit = tuple(int(w == v) for w in cs.vertices)
            assert all(linalg.dot(row, unit) >= 0 for row in cs.row_vectors())
