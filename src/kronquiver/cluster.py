"""Ice quivers, B-matrices, seed/weight-configuration mutation, and exact
Laurent-polynomial arithmetic for exchange-identity checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


class IceQuiver:
    """Ice quiver with an ordered vertex list (mutable vertices first) and an
    arrow multiset.  Arrows between frozen vertices are permitted and kept;
    2-cycles touching a mutable vertex are cancelled on construction.
    """

    def __init__(self, vertices, num_mutable, arrows):
        self.vertices = tuple(vertices)
        self.num_mutable = num_mutable
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex")
        counts = Counter()
        for arrow in arrows:
            u, v = arrow[0], arrow[1]
            if u == v:
                raise ValueError(f"loop at {u}")
            mult = arrow[2] if len(arrow) > 2 else 1
            counts[(u, v)] += mult
        for (u, v) in list(counts):
            if counts[(u, v)] and counts.get((v, u)) and \
                    (self.is_mutable(u) or self.is_mutable(v)):
                m = min(counts[(u, v)], counts[(v, u)])
                counts[(u, v)] -= m
                counts[(v, u)] -= m
        self.arrows = Counter({k: c for k, c in counts.items() if c > 0})

    def is_mutable(self, v) -> bool:
        return self.index[v] < self.num_mutable

    @property
    def mutable_vertices(self):
        return self.vertices[: self.num_mutable]

    @property
    def frozen_vertices(self):
        return self.vertices[self.num_mutable:]

    def arrow_count(self, u, v) -> int:
        return self.arrows.get((u, v), 0)

    def outgoing(self, u):
        return [(v, c) for (s, v), c in self.arrows.items() if s == u]

    def incoming(self, u):
        return [(v, c) for (v, s), c in self.arrows.items() if s == u]

    def b_matrix(self):
        """Rows over mutable vertices, columns over all vertices."""
        return [self.b_row(u) for u in self.mutable_vertices]

    def b_row(self, u):
        if not self.is_mutable(u):
            raise ValueError(f"{u} is frozen")
        return [self.arrow_count(u, v) - self.arrow_count(v, u) for v in self.vertices]

    def mutate(self, u) -> "IceQuiver":
        """Quiver mutation at a mutable vertex: compose through u, reverse
        arrows at u, then cancel oriented 2-cycles (the constructor cancels
        those touching a mutable vertex and keeps frozen-frozen arrows)."""
        if not self.is_mutable(u):
            raise ValueError(f"cannot mutate at frozen vertex {u}")
        counts = Counter(self.arrows)
        for (v, cin) in self.incoming(u):
            for (w, cout) in self.outgoing(u):
                if v != w and (self.is_mutable(v) or self.is_mutable(w)):
                    counts[(v, w)] += cin * cout
        for (v, c) in self.incoming(u):
            counts[(v, u)] -= c
            counts[(u, v)] += c
        for (w, c) in self.outgoing(u):
            counts[(u, w)] -= c
            counts[(w, u)] += c
        arrows = [(a, b, c) for (a, b), c in counts.items() if c > 0]
        return IceQuiver(self.vertices, self.num_mutable, arrows)

    def to_json_dict(self):
        arrows = []
        for (u, v), c in sorted(self.arrows.items(),
                                key=lambda kv: (self.index[kv[0][0]], self.index[kv[0][1]])):
            arrows.extend([[str(u), str(v)]] * c)
        return {
            "mutable": [str(v) for v in self.mutable_vertices],
            "frozen": [str(v) for v in self.frozen_vertices],
            "arrows": arrows,
        }


class WeightConfiguration:
    """Per-vertex integer weight vectors, one row per quiver vertex."""

    def __init__(self, quiver: IceQuiver, rows):
        self.quiver = quiver
        self.rows = {v: tuple(rows[v]) for v in quiver.vertices}
        dims = {len(r) for r in self.rows.values()}
        if len(dims) != 1:
            raise ValueError("inconsistent weight vector lengths")
        self.dim = dims.pop()

    def __getitem__(self, v):
        return self.rows[v]

    def is_valid(self) -> bool:
        """Balance at every mutable vertex: incoming weights sum = outgoing."""
        for u in self.quiver.mutable_vertices:
            incoming = [0] * self.dim
            outgoing = [0] * self.dim
            for (v, c) in self.quiver.incoming(u):
                incoming = [a + c * b for a, b in zip(incoming, self.rows[v])]
            for (w, c) in self.quiver.outgoing(u):
                outgoing = [a + c * b for a, b in zip(outgoing, self.rows[w])]
            if incoming != outgoing:
                return False
        return True


def mutate_weight_config(quiver: IceQuiver, config: WeightConfiguration, u) -> WeightConfiguration:
    """New configuration for the mutated quiver: the row at u becomes the
    outgoing-weight sum minus the old row; everything else is unchanged."""
    if not quiver.is_mutable(u):
        raise ValueError(f"cannot mutate at frozen vertex {u}")
    if not config.is_valid():
        raise ValueError("invalid weight configuration")
    total = [0] * config.dim
    for (w, c) in quiver.outgoing(u):
        total = [a + c * b for a, b in zip(total, config[w])]
    rows = dict(config.rows)
    rows[u] = tuple(a - b for a, b in zip(total, config[u]))
    return WeightConfiguration(quiver.mutate(u), rows)


class LaurentPoly:
    """Laurent polynomial with rational coefficients over a fixed number of
    variables; exponent vectors are dense integer tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent length mismatch")
                    self.terms[tuple(e)] = c

    @classmethod
    def monomial(cls, nvars, exponent, coeff=1):
        return cls(nvars, {tuple(exponent): Fraction(coeff)})

    @classmethod
    def constant(cls, nvars, coeff):
        return cls(nvars, {(0,) * nvars: Fraction(coeff)})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("only monomials can be inverted")
            (e, c), = self.terms.items()
            return LaurentPoly(self.nvars, {tuple(-x for x in e): Fraction(1, 1) / c}) ** (-k)
        out = LaurentPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"z{i}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def y_monomial(quiver: IceQuiver, u) -> LaurentPoly:
    """The hatted coefficient y_u = x^(-b_u) as a one-term Laurent polynomial."""
    row = quiver.b_row(u)
    return LaurentPoly.monomial(len(quiver.vertices), tuple(-b for b in row))


def b_matrix_mutation(b, u_idx):
    """Reference matrix mutation of a (rows x cols) B-matrix at mutable index
    u_idx; used as an independent oracle against quiver mutation."""
    rows = len(b)
    cols = len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for x in range(rows):
        for y in range(cols):
            if x == u_idx or y == u_idx:
                out[x][y] = -b[x][y]
            else:
                bxu = b[x][u_idx]
                buy = b[u_idx][y]
                out[x][y] = b[x][y] + max(bxu, 0) * max(buy, 0) - max(-bxu, 0) * max(-buy, 0)
    return out
