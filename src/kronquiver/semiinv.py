"""Numeric evaluation of Schofield semi-invariants on doubled-Kronecker-quiver
representations, and randomized exact verification of the initial-cluster
exchange relations and group actions.

The exchange relation at a mutable vertex u is read off the diamond quiver of
``diamond.build_diamond``: s_u s'_u is the product of s_v over the arrows
v -> u plus the product of s_v over the arrows u -> v, each with multiplicity.

Conventions (calibrated once on the rank-2 closed formulas and frozen):
vectors are rows, paths compose left to right, and the matrix of a path is
the product of its arrow matrices in path order.  Substituting a presentation
transposes its path matrix, so the assembled block matrix has one row block
per target summand and one column block per source summand, in the order the
presentation is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .diamond import DiamondVertex, V, build_diamond, diamond_vertices
from .linalg import det_frac, identity, inverse, mat_mul


@dataclass
class FlagRep:
    """Integer or rational matrices of a representation: arm maps B_{-i}
    (i x (i+1)), B_i ((i+1) x i), and the two central l x l maps."""

    l: int
    neg: tuple
    pos: tuple
    a1: list
    a2: list

    def __post_init__(self):
        l = self.l
        if len(self.neg) != l - 1 or len(self.pos) != l - 1:
            raise ValueError("arm length mismatch")
        for i, b in enumerate(self.neg, start=1):
            if len(b) != i or any(len(r) != i + 1 for r in b):
                raise ValueError(f"B_-{i} must be {i}x{i + 1}")
        for i, b in enumerate(self.pos, start=1):
            if len(b) != i + 1 or any(len(r) != i for r in b):
                raise ValueError(f"B_{i} must be {i + 1}x{i}")
        for a in (self.a1, self.a2):
            if len(a) != l or any(len(r) != l for r in a):
                raise ValueError("central matrices must be l x l")

    def central(self, eps):
        return self.a1 if eps == 1 else self.a2

    def path_matrix(self, eps, a, b):
        """Matrix of the unique path from -a to b through the chosen central
        arrow: B_-a ... B_-(l-1) A_eps B_(l-1) ... B_b (an a x b matrix)."""
        prod = None
        for t in range(a, self.l):
            m = self.neg[t - 1]
            prod = m if prod is None else mat_mul(prod, m)
        prod = self.central(eps) if prod is None else mat_mul(prod, self.central(eps))
        for t in range(self.l - 1, b - 1, -1):
            prod = mat_mul(prod, self.pos[t - 1])
        return prod

    def transform(self, t1=1, t2=1, u=0, u_prime=0) -> "FlagRep":
        """GL2 action on the central pair: (A1, A2) -> (t1 A1 + u' A2, t2 A2 + u A1)."""
        a1 = [[t1 * x + u_prime * y for x, y in zip(r1, r2)]
              for r1, r2 in zip(self.a1, self.a2)]
        a2 = [[t2 * y + u * x for x, y in zip(r1, r2)]
              for r1, r2 in zip(self.a1, self.a2)]
        return FlagRep(self.l, self.neg, self.pos, a1, a2)

    def swap_central(self) -> "FlagRep":
        return FlagRep(self.l, self.neg, self.pos, self.a2, self.a1)

    def base_change(self, group) -> "FlagRep":
        """Apply g in GL_beta: M(arrow) -> g(tail)^-1 M(arrow) g(head).

        ``group`` maps vertex index (+-1..+-l) to an invertible matrix.
        """
        def g(v):
            return group.get(v)

        def act(m, tail, head):
            gt, gh = g(tail), g(head)
            if gt is not None:
                m = mat_mul(inverse(gt), m)
            if gh is not None:
                m = mat_mul(m, gh)
            return m

        neg = tuple(act(self.neg[i - 1], -i, -(i + 1)) for i in range(1, self.l))
        pos = tuple(act(self.pos[i - 1], i + 1, i) for i in range(1, self.l))
        a1 = act(self.a1, -self.l, self.l)
        a2 = act(self.a2, -self.l, self.l)
        return FlagRep(self.l, neg, pos, a1, a2)


def random_flag_rep(l, rng) -> FlagRep:
    """Representation with random integer entries in [-9, 9]."""
    def m(rows, cols):
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]

    return FlagRep(l,
                   tuple(m(i, i + 1) for i in range(1, l)),
                   tuple(m(i + 1, i) for i in range(1, l)),
                   m(l, l), m(l, l))


def normalized_flag_rep(l, a2) -> FlagRep:
    """General-position normal form: standard arm inclusions/projections and
    identity on the first central arrow."""
    neg = tuple([row + [0] for row in identity(i)] for i in range(1, l))
    pos = tuple(identity(i) + [[0] * i] for i in range(1, l))
    return FlagRep(l, neg, pos, identity(l), a2)


def is_normalized(m: FlagRep) -> bool:
    ref = normalized_flag_rep(m.l, m.a2)
    return m.neg == ref.neg and m.pos == ref.pos and m.a1 == ref.a1


@dataclass(frozen=True)
class PresentationMatrix:
    """Presentation between projectives on positive source summands and
    negative target summands; entries are single paths tagged by the chosen
    central arrow."""

    src: tuple  # positive vertex indices of the source summands
    dst: tuple  # magnitudes of the negative target summands
    entries: tuple  # ((src_slot, dst_slot, eps), ...)

    def minus(self) -> "PresentationMatrix":
        """The sign involution: swap source/target roles, mirror every path."""
        return PresentationMatrix(self.dst, self.src,
                                  tuple((d, s, eps) for (s, d, eps) in self.entries))


def pres_initial(v: DiamondVertex) -> PresentationMatrix:
    """Defining presentation of the initial semi-invariant at a vertex."""
    if v.sign == 1:
        src = tuple(x for x in (v.j, v.k) if x)
        entries = []
        slot = 0
        for x, eps in ((v.j, 1), (v.k, 2)):
            if x:
                entries.append((slot, 0, eps))
                slot += 1
        return PresentationMatrix(src, (v.i,), tuple(entries))
    return pres_initial(v.neg()).minus()


def pres_mutated(v: DiamondVertex) -> PresentationMatrix:
    """Presentation of the exchange partner at a mutable vertex.

    Zero summands are dropped; the (i;0,i) horizontal form is the central-arrow
    mirror of the (i;i,0) one.
    """
    i, j, k = v.i, v.j, v.k
    if v.sign == -1:
        return pres_mutated(v.neg()).minus()
    if not v.horizontal:
        src_vals = (j + 1, j - 1, k + 1, k - 1)
        dst_vals = (i + 1, i - 1)
        raw = [(0, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2), (3, 1, 2)]
    else:
        src_vals = (i + 1, i - 1, 1)
        dst_vals = (i + 1, i - 1, 1)
        raw = [(0, 0, 1), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)]
        if j == 0:
            raw = [(s, d, 3 - eps) for s, d, eps in raw]
    smap, src = {}, []
    for t, x in enumerate(src_vals):
        if x:
            smap[t] = len(src)
            src.append(x)
    dmap, dst = {}, []
    for t, x in enumerate(dst_vals):
        if x:
            dmap[t] = len(dst)
            dst.append(x)
    entries = tuple((smap[s], dmap[d], eps) for s, d, eps in raw
                    if s in smap and d in dmap)
    return PresentationMatrix(tuple(src), tuple(dst), entries)


def eval_schofield(pres: PresentationMatrix, m: FlagRep) -> Fraction:
    """Determinant of the substituted presentation matrix."""
    rows = sum(pres.dst)
    cols = sum(pres.src)
    if rows != cols:
        raise ValueError(f"substituted matrix is {rows}x{cols}, not square")
    if rows == 0:
        return Fraction(1)
    full = [[0] * cols for _ in range(rows)]
    roff = [0]
    for a in pres.dst:
        roff.append(roff[-1] + a)
    coff = [0]
    for b in pres.src:
        coff.append(coff[-1] + b)
    for (s, d, eps) in pres.entries:
        block = m.path_matrix(eps, pres.dst[d], pres.src[s])
        for r in range(pres.dst[d]):
            for c in range(pres.src[s]):
                full[roff[d] + r][coff[s] + c] = block[r][c]
    return det_frac(full)


def s_value(v: DiamondVertex, m: FlagRep) -> Fraction:
    """Initial semi-invariant at a vertex."""
    return eval_schofield(pres_initial(v), m)


def s_prime_value(v: DiamondVertex, m: FlagRep) -> Fraction:
    """Exchange partner, including its sign normalization."""
    sign = (-1) ** v.i if v.horizontal else (-1) ** (v.j * v.k)
    return sign * eval_schofield(pres_mutated(v), m)


def eval_initial(i, j, k, sign, m: FlagRep) -> Fraction:
    """Initial semi-invariant; on a normalized representation this is a
    contiguous minor of the second central matrix."""
    v = V(sign, i, j, k)
    if is_normalized(m):
        if v.sign == 1:
            rows = range(j, i)          # rows j+1 .. i (1-based)
            cols = range(0, i - j)      # cols 1 .. i-j
        else:
            rows = range(0, i - j)
            cols = range(j, i)
        minor = [[m.a2[r][c] for c in cols] for r in rows]
        return det_frac(minor)
    return eval_schofield(pres_initial(v), m)


@dataclass
class VerifyReport:
    relation: str
    trials: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self):
        return {"relation": self.relation, "trials": self.trials,
                "checks": self.checks, "ok": self.ok,
                "failures": self.failures[:10]}


def verify_exchange(l, trials=50, seed=0) -> VerifyReport:
    """Exact check of the exchange relations at every mutable vertex of the
    diamond quiver on random rational representations."""
    import random
    if l < 2:
        raise ValueError("need l >= 2 for a mutable vertex")
    rng = random.Random(seed)
    quiver, _config = build_diamond(l)
    sides = [(u, quiver.incoming(u), quiver.outgoing(u))
             for u in quiver.mutable_vertices]
    report = VerifyReport("exchange", trials)
    for t in range(trials):
        m = random_flag_rep(l, rng)
        # Each vertex's semi-invariant once per trial; the relations share them.
        values = {v: s_value(v, m) for v in quiver.vertices}
        for u, incoming, outgoing in sides:
            lhs = values[u] * s_prime_value(u, m)
            rhs = math.prod((values[v] ** c for v, c in incoming), start=Fraction(1))
            rhs += math.prod((values[v] ** c for v, c in outgoing), start=Fraction(1))
            report.checks += 1
            if lhs != rhs:
                report.failures.append({
                    "vertex": str(u), "trial": t,
                    "lhs": str(lhs), "rhs": str(rhs),
                })
    return report


def verify_group_actions(l, trials=20, seed=0) -> VerifyReport:
    """Torus scaling, unipotent invariance on the dominant half, the central
    swap law, and a generic non-invariance witness for the other unipotent."""
    import random
    if l < 1:
        raise ValueError("l must be positive")
    rng = random.Random(seed)
    vertices = diamond_vertices(l)
    report = VerifyReport("group-actions", trials)
    witness_seen = False
    for t in range(trials):
        m = random_flag_rep(l, rng)
        t1 = rng.randint(1, 9)
        t2 = rng.randint(1, 9)
        u = rng.randint(1, 9)
        m_t = m.transform(t1=t1, t2=t2)
        m_u = m.transform(u=u)
        m_up = m.transform(u_prime=u)
        m_w = m.swap_central()
        # Each vertex's semi-invariant on m once per trial; the laws share them.
        values = {v: s_value(v, m) for v in vertices}
        for v in vertices:
            base = values[v]
            report.checks += 1
            if s_value(v, m_t) != t1 ** v.j * t2 ** v.k * base:
                report.failures.append({"law": "torus", "vertex": str(v), "trial": t})
            if v.j >= v.k:
                report.checks += 1
                if s_value(v, m_u) != base:
                    report.failures.append({"law": "unipotent-upper", "vertex": str(v), "trial": t})
            if v.j <= v.k:
                report.checks += 1
                if s_value(v, m_up) != base:
                    report.failures.append({"law": "unipotent-lower", "vertex": str(v), "trial": t})
            report.checks += 1
            swap_sign = (-1) ** (v.j * v.k)
            if s_value(v, m_w) != swap_sign * values[v.mirror()]:
                report.failures.append({"law": "swap", "vertex": str(v), "trial": t})
        if l >= 2 and not witness_seen:
            w = V(1, 2, 2, 0)
            if s_value(w, m_up) != values[w]:
                witness_seen = True
    if l >= 2:
        report.checks += 1
        if not witness_seen:
            report.failures.append({"law": "lower-unipotent-witness",
                                    "vertex": "(2;2,0)+",
                                    "detail": "expected generic non-invariance"})
    return report


def restrict(m: FlagRep) -> FlagRep:
    """Cut the outermost flag steps: arm maps are copied and the central
    maps are conjugated by the last arm maps."""
    if m.l < 2:
        raise ValueError("cannot restrict below rank 1")
    l = m.l
    a1 = mat_mul(mat_mul(m.neg[l - 2], m.a1), m.pos[l - 2])
    a2 = mat_mul(mat_mul(m.neg[l - 2], m.a2), m.pos[l - 2])
    return FlagRep(l - 1, m.neg[: l - 2], m.pos[: l - 2], a1, a2)
