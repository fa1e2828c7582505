"""Classical symmetric-function oracles: skew Schur expansions by one
Littlewood-Richardson tableau search, which gives the LR coefficients and the
LR-based Kronecker formula for every number of rows m, and symmetric-group
characters.  A two-row character comes from Young's rule,
chi^(n-k,k) = pi_k - pi_(k-1) with pi_j(rho) = [x^j] prod_i (1 + x^rho_i)
(Macdonald I.7); every other one from border-strip recursion on bead sets: a
shape is one int, with bit ``lam_i + (k-1-i)`` set for each of its k rows
(James & Kerber 2.7).

All arithmetic is exact (Python integers).  Skew expansions, border-strip
characters and the class table of each n are memoized for the life of the
process; nothing is read from or written to disk.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .partitions import Partition, lambda_of_index_set, partitions_of

_LR_MEMO: dict = {}
_MN_MEMO: dict = {}


class SchurExpansion:
    """Finite integer combination of Schur polynomials, keyed by partition."""

    def __init__(self, coeffs):
        self.coeffs = {p: c for p, c in coeffs.items() if c != 0}

    def __eq__(self, other):
        return isinstance(other, SchurExpansion) and self.coeffs == other.coeffs

    def __getitem__(self, p):
        return self.coeffs.get(p, 0)

    def items(self):
        return sorted(self.coeffs.items(), key=lambda pc: pc[0].parts, reverse=True)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for p, c in self.items():
            s = f"s[{p}]"
            terms.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(terms)

    def __repr__(self):
        return f"SchurExpansion({self})"


def zed(rho: Partition) -> int:
    """Centralizer order of the class rho: product of i^m_i * m_i! over part
    multiplicities."""
    z = 1
    for part, mult in Counter(rho.parts).items():
        z *= part ** mult * factorial(mult)
    return z


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}: LR skew tableaux of
    shape lam/mu and content nu.  Zero when the degrees mismatch or mu is not
    inside lam."""
    return _skew(lam.parts, mu.parts).get(nu.parts, 0)


def _skew(outer, inner):
    """Skew Schur expansion s_{outer/inner} = sum of c^outer_{inner,beta} s_beta
    as ``{beta: c}``, by one search over the LR tableaux of shape outer/inner
    binned by content; empty when inner is not inside outer."""
    if len(inner) > len(outer) or any(a < b for a, b in zip(outer, inner)):
        return {}
    key = (outer, inner)
    hit = _LR_MEMO.get(key)
    if hit is not None:
        return hit
    inner = inner + (0,) * (len(outer) - len(inner))

    # Cells in reverse reading order: rows top to bottom, right to left.  An
    # entry of row i (from 0) is at most i + 1, since the lattice word has read
    # only the rows above when it reaches the row's rightmost cell.
    cells = [(i, c) for i in range(len(outer)) for c in range(outer[i] - 1, inner[i] - 1, -1)]
    rows = [[0] * part for part in outer]
    content = [len(cells) + 1] + [0] * len(outer)  # counts per value, 1-based; 0 is a sentinel
    expansion = {}

    def place(t):
        if t == len(cells):
            beta = tuple(x for x in content[1:] if x)
            expansion[beta] = expansion.get(beta, 0) + 1
            return
        i, c = cells[t]
        right = rows[i][c + 1] if c + 1 < outer[i] else i + 1
        above = rows[i - 1][c] if i > 0 and inner[i - 1] <= c else 0
        for v in range(above + 1, right + 1):
            if content[v] >= content[v - 1]:
                continue
            content[v] += 1
            rows[i][c] = v
            place(t + 1)
            content[v] -= 1

    place(0)
    _LR_MEMO[key] = expansion
    return expansion


def mn_character(lam: Partition, rho: Partition) -> int:
    """Character chi^lam at the class rho, by border-strip recursion on the
    bead set of lam."""
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |lam|={lam.size} |rho|={rho.size}")
    return _mn(_beads(lam.parts), rho.parts)


def _beads(parts):
    """The bead set of a shape as one int: bit ``part + k - 1 - i`` for row i
    of k."""
    k = len(parts)
    return sum(1 << (part + k - 1 - i) for i, part in enumerate(parts))


def _mn(beads, rho):
    """chi at rho of the shape whose beta-numbers are the set bits of the int
    ``beads``, with no bead on position 0 (no empty row).  A border strip of
    length r moves a bead from b to a free b - r, signed by the beads it
    passes; trailing beads left on 0, 1, ... are empty rows and shift out."""
    if not rho:
        return 1
    key = (beads, rho)
    hit = _MN_MEMO.get(key)
    if hit is not None:
        return hit
    r, rest = rho[0], rho[1:]
    total = 0
    for b in range(r, beads.bit_length()):
        if beads >> b & 1 and not beads >> (b - r) & 1:
            passed = (beads >> (b - r + 1)) & ((1 << (r - 1)) - 1)
            moved = beads ^ (1 << b) ^ (1 << (b - r))
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
            total += (-1) ** passed.bit_count() * _mn(moved, rest)
    _MN_MEMO[key] = total
    return total


def _two_row(k, rho):
    """chi^(n-k,k) at rho, k <= n - k, by Young's rule: pi_k - pi_(k-1), where
    pi_j = [x^j] prod_i (1 + x^rho_i) counts the j-subsets fixed by rho."""
    coeffs = [1] + [0] * k
    for r in rho:
        for j in range(k, r - 1, -1):
            coeffs[j] += coeffs[j - r]
    return coeffs[k] - coeffs[k - 1] if k else 1


@lru_cache(maxsize=None)
def _class_table(n):
    """``(rho.parts, n! // z_rho)`` for every class rho of S_n, in
    ``partitions_of(n)`` order."""
    order = factorial(n)
    return tuple((rho.parts, order // zed(rho)) for rho in partitions_of(n))


def kron_characters(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient by the character sum over conjugacy classes:
    n! g = sum over rho of chi^lam chi^mu chi^nu times the class size
    n! / z_rho, all in integers.  The sum is symmetric in its arguments, so
    the shortest one, when it has at most two rows, takes Young's rule and the
    other two take border strips."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("partitions must have equal size")
    *rest, short = sorted((lam, mu, nu), key=len, reverse=True)
    two_row = short.length <= 2
    if not two_row:
        rest.append(short)
    beads = [_beads(p.parts) for p in rest]
    order = factorial(n)
    total = 0
    for rho, size in _class_table(n):
        value = _two_row(short[1], rho) if two_row else 1
        for b in beads:
            if not value:
                break
            value *= _mn(b, rho)
        total += value * size
    g, rem = divmod(total, order)
    if rem or g < 0:
        raise ArithmeticError(
            f"character sum is not a nonnegative integer: {Fraction(total, order)}")
    return g


def kron_via_lr(lam: Partition, mu: Partition, nu: Partition, m: int = 2) -> int:
    """Kronecker coefficient for lam with at most m rows: the signed sum over
    row permutations omega of the sums over etas, |eta_i| = lam(i) - i +
    omega(i), of <s_mu, s_eta_1 ... s_eta_m> <s_nu, s_eta_1 ... s_eta_m>.

    Both pairings are read off iterated skew expansions: mu and nu are skewed
    by eta_1, every term by eta_2, and so on, and the last factor is the inner
    product of what is left.  Only etas inside mu and nu are visited.  At
    m = 2 this is a_{lam(1)} - a_{lam(1)+1}, where a_k sums
    <s_{mu/eta}, s_{nu/eta}> over |eta| = k."""
    if lam.length > m:
        raise ValueError(f"lambda has more than {m} rows")
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("partitions must have equal size")
    meet = Partition(map(min, mu, nu))
    total = 0
    for omega in permutations(range(1, m + 1)):
        sizes = [lam[i - 1] - i + omega[i - 1] for i in range(1, m + 1)]
        if any(s < 0 for s in sizes):
            continue
        pools = [[e.parts for e in partitions_of(s, max_length=meet.length, max_part=meet[0])
                  if meet.contains(e)] for s in sizes[:-1]]
        total += _perm_sign(omega) * _pairing({mu.parts: 1}, {nu.parts: 1}, pools)
    return total


def _pairing(a, b, pools):
    """Sum over one eta from each pool of the inner product of the Schur
    expansions a and b ({parts: coefficient}), each skewed by those etas."""
    if not pools:
        return sum(c * b.get(beta, 0) for beta, c in a.items())
    return sum(_pairing(_skew_by(a, eta), _skew_by(b, eta), pools[1:]) for eta in pools[0])


def _skew_by(expansion, eta):
    out = {}
    for kappa, c in expansion.items():
        for beta, d in _skew(kappa, eta).items():
            out[beta] = out.get(beta, 0) + c * d
    return out


def _perm_sign(omega):
    inv = sum(1 for i in range(len(omega)) for j in range(i + 1, len(omega))
              if omega[i] > omega[j])
    return -1 if inv % 2 else 1


def horn_positive(lam: Partition, mu: Partition, nu: Partition, m: int) -> bool:
    """Whether all Horn inequalities hold, i.e. whether the LR coefficient
    c_{mu,nu}^lam is positive.  The admissible index triples are found by
    direct recursive LR computation."""
    if max(lam.length, mu.length, nu.length) > m:
        raise ValueError(f"partition length exceeds m={m}")
    if lam.size != mu.size + nu.size:
        raise ValueError("degree mismatch: |lam| must equal |mu| + |nu|")
    for r in range(1, m):
        subsets = [tuple(reversed(c)) for c in combinations(range(1, m + 1), r)]
        parts = {s: lambda_of_index_set(s) for s in subsets}
        for i_set in subsets:
            for j_set in subsets:
                for k_set in subsets:
                    if lr_coeff(parts[i_set], parts[j_set], parts[k_set]) != 1:
                        continue
                    if sum(lam[i - 1] for i in i_set) > \
                            sum(mu[j - 1] for j in j_set) + sum(nu[k - 1] for k in k_set):
                        return False
    return True


def schur_from_weights(weights) -> SchurExpansion:
    """Schur expansion of a GL2 polynomial character given as a multiset of
    weight pairs ``(a, b)``.

    Coefficient of s_(a,b) is mult(a,b) - mult(a+1,b-1); rejects multisets
    that are not genuine characters (negative coefficient or failed rebuild).
    """
    mult = Counter((a, b) for a, b in weights)
    coeffs = {}
    for (a, b) in sorted(mult):
        if a < b:
            continue
        c = mult[(a, b)] - mult.get((a + 1, b - 1), 0)
        if c < 0:
            raise ValueError(f"not a character: negative coefficient at {(a, b)}")
        if c and b < 0:
            raise ValueError(f"not a polynomial character: weight {(a, b)}")
        if c:
            coeffs[Partition((a, b))] = c
    rebuilt = Counter()
    for p, c in coeffs.items():
        a, b = p[0], p[1]
        for t in range(a - b + 1):
            rebuilt[(a - t, b + t)] += c
    if rebuilt != mult:
        raise ValueError("not a character: weight multiset does not rebuild")
    return SchurExpansion(coeffs)
