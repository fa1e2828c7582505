"""Unimodular fans with geometric-series Hilbert sums, and the totally
unimodular comparison map from the diamond cone onto the hexagon cone.

Hexagon vectors are cell dictionaries (a missing cell is 0).  They are made
dense over ``hex_vertices(l)`` only for matrices and H-representations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .cluster import LaurentPoly
from .diamond import PAPER_DIAMOND2_ALIAS, DiamondVertex, diamond_vertices
from .lattice import PolytopeSection, count_points, section_to_hrep


# ---------------------------------------------------------------------------
# Unimodular fans and Hilbert series.

@dataclass(frozen=True)
class UnimodularFan:
    dim: int
    cones: tuple  # tuple of cones, each a tuple of integer generator vectors

    @property
    def generators(self):
        seen = []
        for cone in self.cones:
            for g in cone:
                if g not in seen:
                    seen.append(g)
        return tuple(seen)


def check_unimodular_fan(fan: UnimodularFan):
    """Each maximal cone must be a lattice basis; pairwise intersections must
    be the common face spanned by the shared generators (certified by an exact
    separating functional).  Returns (ok, diagnostics)."""
    issues = []
    for idx, cone in enumerate(fan.cones):
        if len(cone) != fan.dim:
            issues.append(f"cone {idx}: {len(cone)} generators in dimension {fan.dim}")
            continue
        det = linalg.det_frac(cone)
        if det not in (1, -1):
            issues.append(f"cone {idx}: generator determinant {det}")
    if issues:
        return False, issues
    for ia, ib in combinations(range(len(fan.cones)), 2):
        a, b = set(fan.cones[ia]), set(fan.cones[ib])
        shared = a & b
        only_a = sorted(a - shared)
        only_b = sorted(b - shared)
        ge = [list(g) for g in only_a] + [[-x for x in g] for g in only_b]
        rhs = [1] * len(ge)
        eq = [list(g) for g in sorted(shared)]
        if not linalg.lp_feasible(ge, rhs, eq, [0] * len(eq)):
            issues.append(f"cones {ia},{ib}: intersection is not a common face")
    return not issues, issues


def binomial_divide(poly: LaurentPoly, w) -> LaurentPoly | None:
    """Exact quotient poly / (1 - z^w), or None when not divisible.

    Exponents are grouped into residue classes modulo the rank-one lattice Zw;
    divisibility means every class sums to zero, and the quotient is given by
    prefix sums along each class.
    """
    w = tuple(w)
    p = next(i for i, x in enumerate(w) if x)
    classes = {}
    for e, c in poly.terms.items():
        m = e[p] // w[p]
        key = tuple(x - m * y for x, y in zip(e, w))
        classes.setdefault(key, {})[m] = c
    out = {}
    for key, coeffs in classes.items():
        ms = sorted(coeffs)
        if sum(coeffs.values()) != 0:
            return None
        running = Fraction(0)
        for m in range(ms[0], ms[-1]):
            running += coeffs.get(m, 0)
            if running:
                out[tuple(x + m * y for x, y in zip(key, w))] = running
    return LaurentPoly(poly.nvars, out)


class HilbertSeries:
    """Rational form numerator / prod (1 - z^w) with the denominator kept as a
    multiset of grading vectors."""

    def __init__(self, numerator: LaurentPoly, denominator):
        self.numerator = numerator
        self.denominator = Counter({tuple(w): c for w, c in Counter(denominator).items()})

    def canonical(self) -> "HilbertSeries":
        num = self.numerator
        den = Counter(self.denominator)
        changed = True
        while changed:
            changed = False
            for w in sorted(den):
                if den[w] <= 0:
                    continue
                q = binomial_divide(num, w)
                if q is not None:
                    num = q
                    den[w] -= 1
                    changed = True
        return HilbertSeries(num, Counter({w: c for w, c in den.items() if c > 0}))

    def equals(self, other: "HilbertSeries") -> bool:
        """Equality as rational functions, by cross multiplication."""
        return _times_binomials(self.numerator, sorted(other.denominator.elements())) == \
            _times_binomials(other.numerator, sorted(self.denominator.elements()))


def _times_binomials(poly: LaurentPoly, ws) -> LaurentPoly:
    """poly * prod (1 - z^w) over the vectors ``ws``, in order."""
    one = LaurentPoly.constant(poly.nvars, 1)
    for w in ws:
        poly = poly * (one - LaurentPoly.monomial(poly.nvars, w))
    return poly


def _signed_faces(fan: UnimodularFan):
    """Inclusion-exclusion over the maximal cones: (sign, common face) for
    each nonempty set of cones, with sign +1 on odd sets and -1 on even ones."""
    cones = [set(cone) for cone in fan.cones]
    for size in range(1, len(cones) + 1):
        for subset in combinations(cones, size):
            yield (1 if size % 2 else -1), set.intersection(*subset)


def fan_hilbert(fan: UnimodularFan) -> HilbertSeries:
    """Generating function of the fan's lattice points by inclusion-exclusion
    over the maximal cones: each face contributes a multiple geometric series."""
    ok, issues = check_unimodular_fan(fan)
    if not ok:
        raise ValueError("not a unimodular fan: " + "; ".join(issues))
    allgens = fan.generators
    one = LaurentPoly.constant(fan.dim, 1)
    numerator = LaurentPoly.zero(fan.dim)
    for sign, face in _signed_faces(fan):
        term = _times_binomials(one, [g for g in allgens if g not in face])
        numerator = numerator + sign * term
    return HilbertSeries(numerator, Counter(allgens)).canonical()


def fan_slice_count(fan: UnimodularFan, gen_weight, target,
                    gen_positive, target_positive) -> int:
    """Number of fan lattice points with the prescribed weight, extracted from
    the inclusion-exclusion expansion: each face is a free monoid on its
    generators, so a slice coefficient counts nonnegative integer combinations.

    ``gen_weight`` maps a generator to its weight tuple.  ``gen_positive`` is
    a strictly positive grading (with its target value ``target_positive``)
    that keeps the combination search finite without LP calls.
    """
    total = 0
    for sign, face in _signed_faces(fan):
        gens = sorted(face)
        if not gens:
            count = 1 if all(t == 0 for t in target) else 0
        else:
            d = len(gens)
            ineqs = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            weights = [gen_weight(g) for g in gens]
            eqs = [(tuple(w[c] for w in weights), target[c])
                   for c in range(len(target))]
            eqs.append((tuple(gen_positive(g) for g in gens), target_positive))
            count = count_points(PolytopeSection(d, ineqs, eqs))
        total += sign * count
    return total


# ---------------------------------------------------------------------------
# The hexagon index set, its cone inequalities, and the comparison map.

def hex_vertices(l: int):
    """Hexagonal lattice region minus the five projection-deleted vertices."""
    deleted = {(0, 0), (0, l), (l, 0), (0, -l), (-l, 0)}
    out = []
    for a in range(-l, l + 1):
        for b in range(-l, l + 1):
            if abs(a + b) <= l and (a, b) not in deleted:
                out.append((a, b))
    return tuple(sorted(out))


def hex_rows(l: int):
    """The defining inequality families of the hexagon cone, as coefficient
    dictionaries over the hexagon vertices, with provenance tags."""
    rows = []

    def add(cells, tag):
        counts = Counter(cells)
        rows.append((dict(counts), tag))

    add([(-l, l)], "corner")
    for m in range(l):
        add([(l - n, -l + n) for n in range(m + 1)], f"axis m={m}")
    for j in range(1, l):
        for m in range(j, 2 * l):
            add([(j, l - n) for n in range(j, m + 1)], f"f1a j={j} m={m}")
            add([(n - l, -j) for n in range(j, m + 1)], f"f1b j={j} m={m}")
    for k in range(1, l):
        for m in range(l + k):
            add([(k - n, -l + n) for n in range(m + 1)], f"f2a k={k} m={m}")
            add([(l - n, n - k) for n in range(m + 1)], f"f2b k={k} m={m}")
    for j in range(1, l):
        for m in range(2 * l - j):
            add([(-j, l - n) for n in range(m + 1)], f"f3a j={j} m={m}")
            add([(n - l, j) for n in range(m + 1)], f"f3b j={j} m={m}")
    return rows


def _dense(l: int, coeffs: dict, what: str) -> tuple:
    """A cell dictionary as a vector over ``hex_vertices(l)``."""
    col = {cell: i for i, cell in enumerate(hex_vertices(l))}
    stray = [c for c in coeffs if c not in col]
    if stray:
        raise AssertionError(f"{what} references {stray} outside the hexagon")
    row = [0] * len(col)
    for cell, c in coeffs.items():
        row[col[cell]] = c
    return tuple(row)


def _combine(terms) -> dict:
    """Sum of scale * vector over (scale, cell dictionary) pairs, without the
    zero entries."""
    out = Counter()
    for scale, vec in terms:
        for key, c in vec.items():
            out[key] += scale * c
    return {key: c for key, c in out.items() if c}


def hex_membership(l: int, h: dict) -> bool:
    """Whether a hexagon cell dictionary satisfies all the defining
    inequalities."""
    for coeffs, _tag in hex_rows(l):
        if sum(c * h.get(cell, 0) for cell, c in coeffs.items()) < 0:
            return False
    return True


class HexSystem:
    """The hexagon index set with its inequality rows, in the same
    H-representation text format as the lattice module."""

    def __init__(self, l: int):
        self.l = l
        self.vertices = hex_vertices(l)
        self.rows = hex_rows(l)
        self.dim = len(self.vertices)

    def row_vectors(self):
        return [(_dense(self.l, coeffs, f"row {tag}"), tag) for coeffs, tag in self.rows]

    def to_hrep(self) -> str:
        rows = self.row_vectors()
        columns = " ".join(f"({a},{b})" for a, b in self.vertices)
        return section_to_hrep(PolytopeSection(self.dim, [r for r, _tag in rows]),
                               f"hexagon cone of rank {self.l}; columns are {columns}",
                               [tag for _r, tag in rows])


def phi_vertex(l: int, v: DiamondVertex) -> dict:
    """Image of a diamond unit vector as a hexagon coefficient dictionary."""
    if v.sign == 1 and v.j == l:  # the (l;l,0) corner
        units = [((-l, l), 1)]
    elif v.sign == 1:
        units = [((v.k, -v.i), 1), ((-v.j, v.j), 1), ((v.j, 0), 1),
                 ((-v.j, 0), -1), ((0, v.j), -1)]
    else:
        units = [((v.i, -v.k), 1), ((-v.j, v.j), 1), ((0, -v.j), 1),
                 ((-v.j, 0), -1), ((0, v.j), -1)]
    return _combine((c, {cell: 1}) for cell, c in units if cell != (0, 0))


def phi_matrix(l: int):
    """Matrix of the comparison map: one row per diamond vertex (canonical
    order), one column per hexagon vertex (sorted order)."""
    return [_dense(l, phi_vertex(l, v), f"phi({v})") for v in diamond_vertices(l)]


def phi_image(l: int, g) -> dict:
    """Image of a diamond cone point under the comparison map."""
    return _combine((gv, phi_vertex(l, v)) for gv, v in zip(g, diamond_vertices(l)) if gv)


def check_tu_blocks(l: int):
    """Certify total unimodularity of the comparison map: the matrix is block
    diagonal over the j-grading of its rows (each column's nonzeros lie in
    rows of one j, its block), and each block passes an exhaustive
    Ghouila-Houri column-subset test.  Returns (ok, diagnostics)."""
    verts = hex_vertices(l)
    matrix = phi_matrix(l)
    dverts = diamond_vertices(l)
    issues = []
    block_of = {}
    for c, cell in enumerate(verts):
        js = sorted({v.j for v, row in zip(dverts, matrix) if row[c]})
        if len(js) > 1:
            issues.append(f"column {cell} crosses blocks j={js}")
        elif js:
            block_of[c] = js[0]
    if issues:
        return False, issues
    for j in range(l + 1):
        rows = [r for r, v in enumerate(dverts) if v.j == j]
        cols = [c for c, b in block_of.items() if b == j]
        block = [[matrix[r][c] for c in cols] for r in rows]
        if any(abs(x) > 1 for row in block for x in row):
            issues.append(f"block j={j} has an entry outside -1..1")
            continue
        bad = _ghouila_houri_violation(block)
        if bad is not None:
            issues.append(f"block j={j} fails Ghouila-Houri on columns "
                          f"{[verts[cols[c]] for c in bad]}")
    return not issues, issues


def _ghouila_houri_violation(block):
    """Exhaustive Ghouila-Houri check on the columns of a small matrix: every
    column subset needs a +-1 signing with all row sums in -1..1.  Returns a
    violating subset or None."""
    if not block:
        return None
    nrows = len(block)
    ncols = len(block[0])
    satisfied = [False] * (1 << ncols)
    satisfied[0] = True

    def rec(c, mask, sums):
        if c == ncols:
            if all(-1 <= s <= 1 for s in sums):
                satisfied[mask] = True
            return
        rec(c + 1, mask, sums)
        col = [block[r][c] for r in range(nrows)]
        rec(c + 1, mask | (1 << c), [s + x for s, x in zip(sums, col)])
        rec(c + 1, mask | (1 << c), [s - x for s, x in zip(sums, col)])

    rec(0, 0, [0] * nrows)
    for mask in range(1, 1 << ncols):
        if not satisfied[mask]:
            return [c for c in range(ncols) if mask & (1 << c)]
    return None


# ---------------------------------------------------------------------------
# The projected weight configuration on the hexagon.

def _arm_unit(arm, i, l):
    if i == 0:
        return {}
    if abs(i) == l:
        return {("c", i): 1}
    if abs(i) > l:
        raise AssertionError(f"arm index {i} out of range")
    return {(arm, i): 1}


def sigma_hat_vertex(l: int, cell) -> dict:
    """Projected weight vector of a hexagon vertex over the three flag arms;
    center coordinates are shared across arms."""
    a, b = cell
    if a >= 0 and b >= 0:
        terms = [(1, _arm_unit(1, a, l)), (1, _arm_unit(2, b, l))]
    elif a <= 0 and b <= 0:
        terms = [(-1, _arm_unit(1, b, l)), (-1, _arm_unit(2, a, l))]
    else:  # a and b of opposite signs
        arm = 1 if a > 0 else 2
        terms = [(1, _arm_unit(arm, max(a, b), l)), (-1, _arm_unit(arm, min(a, b), l))]
    if a + b > 0:
        terms += [(1, _arm_unit(3, l - a - b, l)), (-1, {("c", l): 1})]
    elif a + b < 0:
        terms += [(-1, _arm_unit(3, -l - a - b, l)), (1, {("c", -l): 1})]
    return _combine(terms)


def sigma_hat_weight(l: int, h: dict) -> tuple:
    """Projected weight of a hexagon cell dictionary, restricted to the
    first-arm flag coordinates: (sigma(-1..-l), sigma(1..l)) in the engine's
    layout."""
    total = _combine((x, sigma_hat_vertex(l, cell)) for cell, x in h.items() if x)
    out = [0] * (2 * l)
    for i in range(1, l):
        out[i - 1] = total.get((1, -i), 0)
        out[l + i - 1] = total.get((1, i), 0)
    out[l - 1] = total.get(("c", -l), 0)
    out[2 * l - 1] = total.get(("c", l), 0)
    return tuple(out)


def diamond2_fan() -> UnimodularFan:
    """The four-cone extremal unimodular fan of the rank-2 diamond cone."""
    verts = diamond_vertices(2)
    idx = {v: i for i, v in enumerate(verts)}

    def unit(v):
        e = [0] * 6
        e[idx[v]] = 1
        return tuple(e)

    e1, e2, e3, e4, e5, e6 = (unit(PAPER_DIAMOND2_ALIAS[n]) for n in range(1, 7))
    e1p = tuple(a + b - c for a, b, c in zip(e3, e4, e1))
    e2c = tuple(a + b - c for a, b, c in zip(e6, e1, e2))
    frozen = (e5, e3, e6, e4)
    cones = (
        frozen + (e1, e2),
        frozen + (e1p, e2),
        frozen + (e1, e2c),
        frozen + (e2c, e1p),
    )
    return UnimodularFan(6, cones)


def diamond2_closed_form() -> HilbertSeries:
    """The reference rational form of the rank-2 lattice-point generating
    function: numerator (1-z^(e1+e1'))(1-z^(e2+e2")) over the eight factors."""
    fan = diamond2_fan()
    (e5, e3, e6, e4, e1, e2) = fan.cones[0]
    e1p = fan.cones[1][4]
    e2c = fan.cones[2][5]
    num = _times_binomials(LaurentPoly.constant(6, 1),
                           [tuple(a + b for a, b in zip(e1, e1p)),
                            tuple(a + b for a, b in zip(e2, e2c))])
    den = Counter([e3, e4, e5, e6, e1, e1p, e2, e2c])
    return HilbertSeries(num, den)
