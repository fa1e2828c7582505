"""Exact enumeration of integer points in rational polytope sections given by
integer inequality rows a.g >= 0 plus equality rows a.g = b.

One scan, ``_scan``: a Hermite-style integer solve certifies that the equality
lattice has a point; interval propagation over every constraint, written once
per section as one-sided sparse rows of nonzero ``(index, coeff)`` terms (the
form ``linalg.propagate_box`` takes), bounds what it can of the coordinate
box, and exact LP (``linalg.lp_box``, idle when propagation closed the box)
bounds the rest; a depth-first scan with per-node propagation then keeps each
leaf that meets the raw rows in integer arithmetic.  Root propagation starts
from the section's ``box`` when it carries one (the engine's rank-4 sections
do: a box proved by LP dual certificates), and from an all-open box
otherwise.  ``diagnose`` is ``lp_box`` on a box with every side open, whatever
the section carries.  No floating point anywhere.
"""

from __future__ import annotations

from . import linalg
from .linalg import BOUNDED, INFEASIBLE, UNBOUNDED


class SectionError(Exception):
    """Raised when a section cannot be enumerated (unbounded relaxation)."""

    def __init__(self, status, detail=""):
        self.status = status
        super().__init__(f"section is {status}" + (f": {detail}" if detail else ""))


class PolytopeSection:
    """Cone rows plus equality sections over a fixed coordinate space.

    ``box``, when given, is a ``(lo, hi)`` pair of integer bound lists (entries
    may be None) that the caller has proved holds for every point of the
    section; the scan starts its root propagation from it.
    """

    def __init__(self, dim, ineqs, equalities=(), box=None):
        self.dim = dim
        self.ineqs = [tuple(r) for r in ineqs]
        self.equalities = [(tuple(a), int(b)) for a, b in equalities]
        self.box = box
        for r in self.ineqs:
            if len(r) != dim:
                raise ValueError("inequality row dimension mismatch")
        for a, _ in self.equalities:
            if len(a) != dim:
                raise ValueError("equality row dimension mismatch")

    @classmethod
    def from_cone(cls, cone, equalities=(), box=None):
        return cls(cone.dim, cone.row_vectors(), equalities, box)

    def contains(self, point) -> bool:
        """Exact integer membership against the raw rows."""
        if any(linalg.dot(a, point) < 0 for a in self.ineqs):
            return False
        return all(linalg.dot(a, point) == b for a, b in self.equalities)


def diagnose(section: PolytopeSection) -> str:
    """Status of the rational relaxation: bounded, unbounded, or infeasible;
    ``linalg.lp_box`` on a box with every side open, since the section is
    bounded exactly when every coordinate has a finite min and max."""
    eqs = section.equalities
    return linalg.lp_box(section.ineqs, [0] * len(section.ineqs), [a for a, _ in eqs],
                         [b for _, b in eqs], [None] * section.dim, [None] * section.dim)


def _terms(a):
    """The ``(index, coeff)`` pairs of the nonzero entries of the row ``a``."""
    return tuple((i, c) for i, c in enumerate(a) if c)


def _scan(section: PolytopeSection) -> list:
    """Integer points of the section in scan order, each once: the scan
    branches on disjoint values.  Raises SectionError on an unbounded
    section."""
    eq_rows = [a for a, _ in section.equalities]
    eq_rhs = [b for _, b in section.equalities]
    # Certify integer solvability of the equality lattice before scanning.
    if eq_rows and linalg.solve_integer_system(eq_rows, eq_rhs) is None:
        return []
    # Every constraint as a one-sided sparse row: its nonzero terms, a.g >= r.
    rows = [(_terms(a), 0) for a in section.ineqs]
    for a, b in section.equalities:
        terms = _terms(a)
        rows += [(terms, b), (tuple((i, -c) for i, c in terms), -b)]
    lo, hi = section.box or ([None] * section.dim, [None] * section.dim)
    box = linalg.propagate_box(rows, lo, hi)
    if box is None:
        return []
    lo, hi = box
    status = linalg.lp_box(section.ineqs, [0] * len(section.ineqs), eq_rows, eq_rhs, lo, hi)
    if status == INFEASIBLE:
        return []
    if status == UNBOUNDED:
        i = next(i for i in range(section.dim) if lo[i] is None or hi[i] is None)
        side = "min" if lo[i] is None else "max"
        raise SectionError(UNBOUNDED, f"coordinate {i} has no finite {side}")
    points = []

    def descend(lo, hi):
        box = linalg.propagate_box(rows, lo, hi, max_rounds=6)
        if box is None:
            return
        lo, hi = box
        widths = [(h - l, i) for i, (l, h) in enumerate(zip(lo, hi)) if h > l]
        if not widths:
            if section.contains(lo):
                points.append(tuple(lo))
            return
        _, var = min(widths)
        for val in range(lo[var], hi[var] + 1):
            nlo = list(lo)
            nhi = list(hi)
            nlo[var] = nhi[var] = val
            descend(nlo, nhi)

    descend(lo, hi)
    return points


def enumerate_points(section: PolytopeSection) -> tuple:
    """All integer points of the section as a tuple of tuples, sorted
    lexicographically.

    Raises SectionError when the rational relaxation is unbounded; an
    infeasible or integer-empty section yields the empty set.
    """
    return tuple(sorted(_scan(section)))


def count_points(section: PolytopeSection) -> int:
    """Number of integer points of the section."""
    return len(_scan(section))


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
    """Read the text ``section_to_hrep`` writes; a missing row, a bad or
    negative count, or rows after the ``eq`` block raise ValueError."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    it = iter(tokens)

    def take(what):
        row = next(it, None)
        if row is None:
            raise ValueError(f"input ends where {what} was expected")
        return row

    def expect(keyword):
        row = take(f"'{keyword}'")
        if row[0] != keyword:
            raise ValueError(f"expected '{keyword}', got {row[0]!r}")
        if len(row) != 2 or int(row[1]) < 0:
            raise ValueError(f"'{keyword}' takes one nonnegative count")
        return int(row[1])

    dim = expect("dim")
    nineq = expect("ineq")
    ineqs = []
    for _ in range(nineq):
        row = [int(x) for x in take("an inequality row")]
        if len(row) != dim:
            raise ValueError("inequality row has wrong width")
        ineqs.append(tuple(row))
    neq = expect("eq")
    eqs = []
    for _ in range(neq):
        row = [int(x) for x in take("an equality row")]
        if len(row) != dim + 1:
            raise ValueError("equality row has wrong width")
        eqs.append((tuple(row[:-1]), row[-1]))
    if next(it, None) is not None:
        raise ValueError("rows left over after the declared eq block")
    return PolytopeSection(dim, ineqs, eqs)
