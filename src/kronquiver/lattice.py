"""Exact enumeration of integer points in rational polytope sections given by
integer inequality rows a.g >= 0 plus equality rows a.g = b.

Strategy: the equality lattice is solved Hermite-style to certify integer
solvability, finite coordinate boxes are established by exact interval
propagation over the combined row system (with exact-LP fallback for any
coordinate propagation fails to bound), and a depth-first scan with per-node
propagation collects the points.  Every returned point is re-verified against
the raw rows in integer arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import linalg
from .linalg import INFEASIBLE, OPTIMAL, UNBOUNDED

BOUNDED = "bounded"


class SectionError(Exception):
    """Raised when a section cannot be enumerated (unbounded relaxation)."""

    def __init__(self, status, detail=""):
        self.status = status
        super().__init__(f"section is {status}" + (f": {detail}" if detail else ""))


class PolytopeSection:
    """Cone rows plus equality sections over a fixed coordinate space."""

    def __init__(self, dim, ineqs, equalities=()):
        self.dim = dim
        self.ineqs = [tuple(r) for r in ineqs]
        self.equalities = [(tuple(a), int(b)) for a, b in equalities]
        for r in self.ineqs:
            if len(r) != dim:
                raise ValueError("inequality row dimension mismatch")
        for a, _ in self.equalities:
            if len(a) != dim:
                raise ValueError("equality row dimension mismatch")

    @classmethod
    def from_cone(cls, cone, equalities=()):
        return cls(cone.dim, cone.row_vectors(), equalities)

    def contains(self, point) -> bool:
        """Exact integer membership against the raw rows."""
        if any(linalg.dot(a, point) < 0 for a in self.ineqs):
            return False
        return all(linalg.dot(a, point) == b for a, b in self.equalities)

    def propagation_rows(self):
        """All constraints as one-sided rows a.g >= r."""
        rows = [(a, 0) for a in self.ineqs]
        for a, b in self.equalities:
            rows.append((a, b))
            rows.append((tuple(-x for x in a), -b))
        return rows


class LatticePointSet:
    """Sorted, duplicate-free list of integer points with an exactness flag."""

    def __init__(self, points, exact=True):
        self.points = tuple(sorted(set(tuple(p) for p in points)))
        self.exact = exact

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        p = tuple(p)
        i = bisect_left(self.points, p)
        return i < len(self.points) and self.points[i] == p

    def __eq__(self, other):
        return isinstance(other, LatticePointSet) and self.points == other.points

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in p) for p in self.points) + ("\n" if self.points else "")


def diagnose(section: PolytopeSection) -> str:
    """Status of the rational relaxation: bounded, unbounded, or infeasible.

    Decided by the per-coordinate LPs that ``_root_box`` falls back to: the
    section is bounded exactly when every coordinate has a finite min and max.
    """
    for i in range(section.dim):
        for sense in ("min", "max"):
            status = _lp_bound(section, i, sense).status
            if status != OPTIMAL:
                return status
    return BOUNDED


def is_bounded(section: PolytopeSection) -> bool:
    return diagnose(section) == BOUNDED


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator) if isinstance(x, Fraction) else x


def _floor_frac(x):
    return x.numerator // x.denominator if isinstance(x, Fraction) else x


def _lp_bound(section, i, sense):
    objective = [0] * section.dim
    objective[i] = 1
    return linalg.solve_lp(objective, section.ineqs, [0] * len(section.ineqs),
                           [a for a, _ in section.equalities],
                           [b for _, b in section.equalities], sense=sense)


def _root_box(section: PolytopeSection):
    """Finite integer box containing all lattice points, or None when the
    section is provably empty.  Raises SectionError on an unbounded section."""
    rows = section.propagation_rows()
    box = linalg.propagate_box(rows, [None] * section.dim, [None] * section.dim)
    if box is None:
        return None
    lo, hi = box
    for i in range(section.dim):
        for side, cur in (("min", lo), ("max", hi)):
            if cur[i] is not None:
                continue
            res = _lp_bound(section, i, side)
            if res.status == INFEASIBLE:
                return None
            if res.status == UNBOUNDED:
                raise SectionError(UNBOUNDED, f"coordinate {i} has no finite {side}")
            cur[i] = _ceil_frac(res.value) if side == "min" else _floor_frac(res.value)
    return rows, lo, hi


class _Scan:
    """Depth-first integer scan with per-node interval propagation."""

    def __init__(self, rows, collect):
        self.rows = rows
        self.collect = collect
        self.points = []
        self.count = 0

    def descend(self, lo, hi):
        box = linalg.propagate_box(self.rows, lo, hi, max_rounds=6)
        if box is None:
            return
        lo, hi = box
        widths = [(h - l, i) for i, (l, h) in enumerate(zip(lo, hi)) if h > l]
        if not widths:
            point = tuple(lo)
            if all(linalg.dot(a, point) >= r for a, r in self.rows):
                self.count += 1
                if self.collect:
                    self.points.append(point)
            return
        _, var = min(widths)
        for val in range(lo[var], hi[var] + 1):
            nlo = list(lo)
            nhi = list(hi)
            nlo[var] = nhi[var] = val
            self.descend(nlo, nhi)


def _scan(section: PolytopeSection, collect: bool):
    if section.equalities:
        # Certify integer solvability of the equality lattice before scanning.
        sol = linalg.solve_integer_system([a for a, _ in section.equalities],
                                          [b for _, b in section.equalities])
        if sol is None:
            return [] if collect else 0
    prep = _root_box(section)
    if prep is None:
        return [] if collect else 0
    rows, lo, hi = prep
    scan = _Scan(rows, collect)
    scan.descend(lo, hi)
    return scan.points if collect else scan.count


def enumerate_points(section: PolytopeSection) -> LatticePointSet:
    """All integer points of the section, sorted lexicographically.

    Raises SectionError when the rational relaxation is unbounded; an
    infeasible or integer-empty section yields the empty set.
    """
    points = _scan(section, collect=True)
    for g in points:
        if not section.contains(g):
            raise AssertionError(f"scan produced a non-member point {g}")
    return LatticePointSet(points)


def count_points(section: PolytopeSection) -> int:
    """Number of integer points, without materializing the full vectors."""
    return _scan(section, collect=False)


# ---------------------------------------------------------------------------
# H-representation text format.

def section_to_hrep(section: PolytopeSection, comment=None, tags=None) -> str:
    """Text H-representation; ``tags``, one per inequality row, are written
    as trailing comments."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"dim {section.dim}")
    lines.append(f"ineq {len(section.ineqs)}")
    for n, r in enumerate(section.ineqs):
        row = " ".join(str(x) for x in r)
        lines.append(f"{row}  # {tags[n]}" if tags else row)
    lines.append(f"eq {len(section.equalities)}")
    for a, b in section.equalities:
        lines.append(" ".join(str(x) for x in a) + f" {b}")
    return "\n".join(lines) + "\n"


def parse_hrep(text: str) -> PolytopeSection:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    it = iter(tokens)

    def expect(keyword):
        row = next(it)
        if row[0] != keyword:
            raise ValueError(f"expected '{keyword}', got {row[0]!r}")
        return int(row[1])

    dim = expect("dim")
    nineq = expect("ineq")
    ineqs = []
    for _ in range(nineq):
        row = [int(x) for x in next(it)]
        if len(row) != dim:
            raise ValueError("inequality row has wrong width")
        ineqs.append(tuple(row))
    neq = expect("eq")
    eqs = []
    for _ in range(neq):
        row = [int(x) for x in next(it)]
        if len(row) != dim + 1:
            raise ValueError("equality row has wrong width")
        eqs.append((tuple(row[:-1]), row[-1]))
    return PolytopeSection(dim, ineqs, eqs)
