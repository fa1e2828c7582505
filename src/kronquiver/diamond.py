"""The diamond ice quiver: construction with its graded weight configuration,
tri-broken paths, and the H-representation of its g-vector cone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import IceQuiver, WeightConfiguration
from .lattice import PolytopeSection, section_to_hrep


@dataclass(frozen=True, order=False)
class DiamondVertex:
    """Vertex (i;j,k) (sign +) or (j,k;i) (sign -) with i = j + k.

    Horizontal vertices (k = 0 or j = 0) are identified across signs and
    canonically carry sign +.
    """

    sign: int
    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.i != self.j + self.k or self.i < 1 or self.j < 0 or self.k < 0:
            raise ValueError(f"bad vertex triple ({self.i};{self.j},{self.k})")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.sign == -1 and (self.j == 0 or self.k == 0):
            # (i,0;i) == (i;i,0) and (0,i;i) == (i;0,i): only the sign changes.
            object.__setattr__(self, "sign", 1)

    @property
    def horizontal(self) -> bool:
        return self.j == 0 or self.k == 0

    def neg(self) -> "DiamondVertex":
        """The sign involution (i;j,k) <-> (j,k;i)."""
        return DiamondVertex(-self.sign, self.i, self.j, self.k)

    def mirror(self) -> "DiamondVertex":
        """The reflection (i;j,k) <-> (i;k,j) on both signs."""
        return DiamondVertex(self.sign, self.i, self.k, self.j)

    def sort_key(self):
        return (self.i, 0 if self.sign == 1 else 1, -self.j)

    def __str__(self):
        if self.sign == 1:
            return f"({self.i};{self.j},{self.k})+"
        return f"({self.j},{self.k};{self.i})-"

    def __repr__(self):
        return f"DV[{self}]"


def V(sign, i, j, k) -> DiamondVertex:
    return DiamondVertex(sign, i, j, k)


def diamond_vertices(l: int):
    """Canonical vertex order: levels ascending; within a level the positive
    vertices with j descending, then the negative ones with j descending."""
    out = []
    for i in range(1, l + 1):
        for j in range(i, -1, -1):
            out.append(V(1, i, j, i - j))
        for j in range(i - 1, 0, -1):
            out.append(V(-1, i, j, i - j))
    return out


_ARROW_RULES = {
    "A": lambda i, j, k: (i - 1, j - 1, k),
    "B": lambda i, j, k: (i + 1, j, k + 1),
    "C": lambda i, j, k: (i, j + 1, k - 1),
}


def _arrow_target(l, sign, i, j, k, kind):
    ti, tj, tk = _ARROW_RULES[kind](i, j, k)
    if not (1 <= ti <= l and tj >= 0 and tk >= 0):
        return None
    return V(sign, ti, tj, tk)


def diamond_arrows(l: int):
    """Arrow multiset of the rank-l diamond quiver as (src, dst, mult, kind).

    Arrows are drawn wherever both endpoints exist, once per canonical pair;
    the single exception is the doubled C arrow (1;0,1) -> (1;1,0).
    """
    seen = {}
    for sign in (1, -1):
        for i in range(1, l + 1):
            for j in range(0, i + 1):
                # With sign -1 a horizontal (j, k) builds the same vertex as
                # with sign +, so that vertex also gets the arrows of its
                # negative presentation; duplicates collapse onto one arrow.
                k = i - j
                src = V(sign, i, j, k)
                for kind in "ABC":
                    dst = _arrow_target(l, sign, i, j, k, kind)
                    if dst is not None:
                        seen[(src, dst, kind)] = 1
    doubled = (V(1, 1, 0, 1), V(1, 1, 1, 0), "C")
    if doubled in seen:
        seen[doubled] = 2
    return [(s, d, m, kind) for (s, d, kind), m in sorted(
        seen.items(), key=lambda it: (it[0][0].sort_key(), it[0][1].sort_key(), it[0][2]))]


def sigma_tilde_row(v: DiamondVertex, l: int) -> tuple[int, ...]:
    """Graded weight vector of a vertex: 2l flag coordinates in the order
    (sigma(-1..-l), sigma(1..l)) followed by the torus pair (j, k)."""
    row = [0] * (2 * l + 2)

    def bump(vertex_index, amount):
        if vertex_index == 0:
            return
        if vertex_index < 0:
            row[-vertex_index - 1] += amount
        else:
            row[l + vertex_index - 1] += amount

    if v.sign == 1:
        bump(v.j, 1)
        bump(v.k, 1)
        bump(-v.i, -1)
    else:
        bump(v.i, 1)
        bump(-v.j, -1)
        bump(-v.k, -1)
    row[2 * l] = v.j
    row[2 * l + 1] = v.k
    return tuple(row)


def build_diamond(l: int) -> tuple[IceQuiver, WeightConfiguration]:
    """The rank-l diamond ice quiver with its full weight configuration."""
    if l < 1:
        raise ValueError("l must be positive")
    vertices = diamond_vertices(l)  # the frozen level i = l comes last
    arrows = [(s, d, m) for (s, d, m, _kind) in diamond_arrows(l)]
    quiver = IceQuiver(vertices, sum(v.i < l for v in vertices), arrows)
    config = WeightConfiguration(quiver, {v: sigma_tilde_row(v, l) for v in vertices})
    return quiver, config


PAPER_DIAMOND2_ALIAS = {
    1: V(1, 1, 1, 0),
    2: V(1, 1, 0, 1),
    3: V(1, 2, 1, 1),
    4: V(-1, 2, 1, 1),
    5: V(1, 2, 2, 0),
    6: V(1, 2, 0, 2),
}


@dataclass(frozen=True)
class VertexPath:
    """Path through the diamond quiver; vertices may repeat.  Steps carry the
    arrow type and, for the doubled C arrow, which copy is taken."""

    vertices: tuple
    steps: tuple

    def __len__(self):
        return len(self.vertices)

    def validate(self, l: int) -> bool:
        legal = {(s, d, kind) for (s, d, _m, kind) in diamond_arrows(l)}
        return all((a, b, step[0]) in legal
                   for a, b, step in zip(self.vertices, self.vertices[1:], self.steps))


def tri_broken_path(l: int, j: int, k: int, sign: int = 1) -> VertexPath:
    """The distinguished path ending at the frozen vertex +-(l;j,k).

    Generic form (j, k >= 1): k A-steps down one side, j C-steps across the
    opposite side, k B-steps back up.  (j,k) = (l,0) and (0,l) give the two
    axis paths.
    """
    if j + k != l or j < 0 or k < 0:
        raise ValueError(f"need j + k = {l} with j,k >= 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if k == 0:  # (l;l,0) -> ... -> (1;1,0)
        verts = [V(1, i, i, 0) for i in range(l, 0, -1)]
        return VertexPath(tuple(verts), ("A",) * (l - 1))
    if j == 0:  # (1;0,1) -> ... -> (l;0,l)
        verts = [V(1, i, 0, i) for i in range(1, l + 1)]
        return VertexPath(tuple(verts), ("B",) * (l - 1))

    verts = []
    steps = []
    for n in range(k, -1, -1):  # (l;k,j) down to (j;0,j)
        verts.append(V(sign, j + n, n, j))
        if n:
            steps.append("A")
    for n in range(1, j + 1):  # across the opposite side to (j;j,0)
        verts.append(V(-sign, j, n, j - n))
        steps.append("C-" if sign == 1 else "C+")
    for n in range(1, k + 1):  # back up to (l;j,k)
        verts.append(V(sign, j + n, j, n))
        steps.append("B")
    return VertexPath(tuple(verts), tuple(steps))


class ConeSystem:
    """Integer inequality rows a . g >= 0 over the diamond coordinates, with a
    provenance tag per row."""

    def __init__(self, l: int, vertices, rows):
        self.l = l
        self.dim = len(vertices)
        self.vertices = tuple(vertices)
        self.rows = list(rows)  # (coeff tuple, provenance)

    def row_vectors(self):
        return [r for r, _tag in self.rows]

    def to_hrep(self) -> str:
        return section_to_hrep(PolytopeSection.from_cone(self),
                               f"g-vector cone of the rank-{self.l} diamond quiver",
                               [tag for _r, tag in self.rows])

    def to_json_dict(self):
        return {
            "l": self.l,
            "dim": self.dim,
            "vertices": [str(v) for v in self.vertices],
            "rows": [{"coeffs": list(c), "provenance": tag} for c, tag in self.rows],
        }


def cone_inequalities(l: int) -> ConeSystem:
    """One row per nonempty proper suffix of each generic tri-broken path, per
    suffix of the (0,l) axis path (full path included), plus the single-vertex
    path at (l;l,0)."""
    if l < 1:
        raise ValueError("l must be positive")
    vertices = diamond_vertices(l)
    index = {v: n for n, v in enumerate(vertices)}
    rows = []

    def add_row(path: VertexPath, start: int, tag: str):
        coeffs = [0] * len(vertices)
        for v in path.vertices[start:]:
            coeffs[index[v]] += 1
        rows.append((tuple(coeffs), tag))

    for sign in (1, -1):
        s = "+" if sign == 1 else "-"
        for j in range(1, l):
            k = l - j
            path = tri_broken_path(l, j, k, sign)
            for start in range(1, len(path)):
                add_row(path, start, f"tp{s}[{l};{j},{k}] suffix@{start}")
    axis = tri_broken_path(l, 0, l)
    for start in range(len(axis)):
        add_row(axis, start, f"tp[{l};0,{l}] suffix@{start}")
    add_row(VertexPath((V(1, l, l, 0),), ()), 0, f"e[{l};{l},0]")

    vecs = [r for r, _ in rows]
    if len(set(vecs)) != len(vecs):
        raise AssertionError("duplicate cone rows")
    if len(rows) != 3 * l * l - 2 * l + 1:
        raise AssertionError(f"unexpected row count {len(rows)} for l={l}")
    return ConeSystem(l, vertices, rows)
