"""Classical symmetric-function oracles: Littlewood-Richardson coefficients
by direct tableau backtracking, symmetric-group characters by border-strip
recursion, and the LR-based two-row Kronecker formula.

All arithmetic is exact (Python integers / Fractions).  LR coefficients and
characters are memoized in module dictionaries that live only as long as
the process; nothing is read from or written to disk.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
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
    """Littlewood-Richardson coefficient: LR skew tableaux of shape lam/mu
    and content nu.  Zero when the degrees mismatch or mu is not inside lam."""
    key = (lam.parts, mu.parts, nu.parts)
    hit = _LR_MEMO.get(key)
    if hit is not None:
        return hit
    if lam.size != mu.size + nu.size or not lam.contains(mu):
        _LR_MEMO[key] = 0
        return 0
    if nu.length > lam.length:
        _LR_MEMO[key] = 0
        return 0

    # Cells in reverse reading order: rows top to bottom, right to left.
    cells = []
    for i in range(lam.length):
        for c in range(lam[i] - 1, mu[i] - 1, -1):
            cells.append((i, c))

    nparts = nu.length
    content = [0] * (nparts + 2)  # counts per value, 1-based; index 0 is a sentinel
    content[0] = nu.size + 1
    filling = {}

    def place(t):
        if t == len(cells):
            return 1
        i, c = cells[t]
        right = filling.get((i, c + 1), nparts) if c + 1 < lam[i] else nparts
        above = filling.get((i - 1, c), 0) if i > 0 and mu[i - 1] <= c < lam[i - 1] else 0
        total = 0
        for v in range(above + 1, right + 1):
            if content[v] >= nu[v - 1] or content[v] >= content[v - 1]:
                continue
            content[v] += 1
            filling[(i, c)] = v
            total += place(t + 1)
            content[v] -= 1
        if cells and (i, c) in filling:
            del filling[(i, c)]
        return total

    result = place(0)
    _LR_MEMO[key] = result
    return result


def _schur_product_into(expansion, eta, inside):
    """Multiply a Schur expansion by s_eta, keeping only keys inside ``inside``."""
    out = {}
    for kappa, coef in expansion.items():
        target = kappa.size + eta.size
        for tau in partitions_of(target, max_length=inside.length, max_part=inside[0]):
            if not inside.contains(tau) or not tau.contains(kappa):
                continue
            c = lr_coeff(tau, kappa, eta)
            if c:
                out[tau] = out.get(tau, 0) + coef * c
    return out


def multi_lr(etas, lam: Partition) -> int:
    """Multiplicity of S_lam in the tensor product of the S_eta (in any
    order): all but the last factor are multiplied out by LR convolution
    inside lam, and the last is read off at lam alone."""
    first, *middle, last = [Partition()] * (2 - len(etas)) + list(etas)  # s_() = 1
    expansion = {first: 1}
    for eta in middle:
        expansion = _schur_product_into(expansion, eta, lam)
    return sum(c * lr_coeff(lam, kappa, last) for kappa, c in expansion.items())


def mn_character(lam: Partition, rho: Partition) -> int:
    """Character chi^lam at the class rho, by border-strip recursion."""
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |lam|={lam.size} |rho|={rho.size}")
    return _mn(lam.parts, rho.parts)


def _mn(lam, rho):
    if not rho:
        return 1
    key = (lam, rho)
    hit = _MN_MEMO.get(key)
    if hit is not None:
        return hit
    r = rho[0]
    rest = rho[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        jumps = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(v - (length - 1 - i) for i, v in enumerate(newbeta))
        while newlam and newlam[-1] == 0:
            newlam = newlam[:-1]
        total += (-1) ** jumps * _mn(newlam, rest)
    _MN_MEMO[key] = total
    return total


def kron_characters(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient by the character sum over conjugacy classes."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("partitions must have equal size")
    total = Fraction(0)
    for rho in partitions_of(n):
        total += Fraction(
            mn_character(lam, rho) * mn_character(mu, rho) * mn_character(nu, rho),
            zed(rho),
        )
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"character sum is not a nonnegative integer: {total}")
    return int(total)


def kron_via_lr(lam: Partition, mu: Partition, nu: Partition, m: int = 2,
                prune: bool = True) -> int:
    """Kronecker coefficient via the signed sum of multiple LR products over
    row permutations; requires lam to have at most m rows.  At m = 2 this is
    a_{lam(1)} - a_{lam(1)+1}, the sums of c_{eta1,eta2}^mu c_{eta1,eta2}^nu
    over |eta1| = lam(1) and lam(1) + 1."""
    if lam.length > m:
        raise ValueError(f"lambda has more than {m} rows")
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError("partitions must have equal size")
    total = 0
    for omega in permutations(range(1, m + 1)):
        sizes = [lam[i - 1] - i + omega[i - 1] for i in range(1, m + 1)]
        if any(s < 0 for s in sizes):
            continue
        sign = _perm_sign(omega)
        pools = [[e for e in partitions_of(s)
                  if not prune or (mu.contains(e) and nu.contains(e))] for s in sizes]
        for etas in product(*pools):
            c1 = multi_lr(etas, mu)
            if not c1:
                continue
            total += sign * c1 * multi_lr(etas, nu)
    return total


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
