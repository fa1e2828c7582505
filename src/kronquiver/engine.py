"""Headline pipelines: Kronecker coefficients and 2-truncated Kronecker
products by lattice-point counting in diamond-quiver cone sections, with the
classical character and LR oracles for cross-validation.

A section's layout is ``(l, torus)``: its rank, and whether the torus weight is
fixed (a lambda-section) or free (a sigma-section); ``section_for`` picks it
once.  Every rank-4 section carries a root box proved by a committed table of
LP dual certificates (``_certificates.py``, written by
``scripts/gen_certificates.py``).  A certificate's bound holds for every
right-hand side of its layout, so the box costs a few dot products per side;
``_certificates(l, torus)`` checks its layout's entries on first use, and
``_side_bound`` rounds them, for the engine and the generator alike.  Other
ranks have no table, and their sections carry no box.

``cross_validate`` counts one sigma-section per ``(mu, nu)`` pair: the
lambda-section of ``(a, b)`` is the sigma-section's slice at torus weight
``(a, b)``, so one enumeration binned by weight gives every count of the
pair's column of lambdas, as in ``truncated_product``.  A lone query counts
its two lambda-sections directly.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from . import symfunc
from .diamond import cone_inequalities, sigma_tilde_row
from .lattice import PolytopeSection, count_points, enumerate_points
from .linalg import dot
from .partitions import (Partition, Weight, lambda_omega, partitions_of,
                         partitions_to_weight)

METHODS = ("polytope", "characters", "lr")


def _default_l(mu: Partition, nu: Partition) -> int:
    """The smallest rank that holds both partitions (at least 1)."""
    return max(mu.length, nu.length, 1)


@dataclass(frozen=True)
class KroneckerQuery:
    mu: Partition
    nu: Partition
    lam: Partition
    l: int

    def __post_init__(self):
        if not (self.mu.size == self.nu.size == self.lam.size):
            raise ValueError("partitions must have equal size")
        if self.lam.length > 2:
            raise ValueError("lambda must have at most two rows")
        if _default_l(self.mu, self.nu) > self.l:
            raise ValueError(f"mu and nu must have at most l={self.l} rows")

    @classmethod
    def create(cls, mu, nu, lam, l=None):
        if l is None:
            l = _default_l(mu, nu)
        return cls(mu, nu, lam, int(l))


@dataclass
class MethodReport:
    query: KroneckerQuery
    sigma: Weight
    values: dict = field(default_factory=dict)
    counts: dict | None = None
    timings: dict = field(default_factory=dict)

    @property
    def g(self) -> int:
        return next(iter(self.values.values()))

    @property
    def agree(self) -> bool:
        return len(set(self.values.values())) <= 1

    def to_json_dict(self):
        out = {
            "mu": str(self.query.mu),
            "nu": str(self.query.nu),
            "lambda": str(self.query.lam),
            "l": self.query.l,
            "sigma": str(self.sigma),
            "g": self.g,
            "agree": self.agree,
            "methods": dict(self.values),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if self.counts is not None:
            out["counts"] = dict(self.counts)
        return out


@lru_cache(maxsize=None)
def _cone(l: int):
    return cone_inequalities(l)


@lru_cache(maxsize=None)
def _grading(l: int, torus: bool):
    """The equality rows of a rank-``l`` section, as functionals over the cone
    coordinates: the 2l flag coordinates (sigma(-1..-l), sigma(1..l)), then,
    with ``torus``, the torus pair (j, k)."""
    rows = tuple(zip(*(sigma_tilde_row(v, l) for v in _cone(l).vertices)))
    return rows if torus else rows[:2 * l]


@lru_cache(maxsize=None)
def _certificates(l: int, torus: bool) -> list:
    """The committed LP dual certificates of the rank-``l`` sections whose
    equality rows are ``E = _grading(l, torus)``, each checked here.

    Returns one ``(i, sense, certs)`` per certified side: a coordinate,
    ``"min"`` or ``"max"``, and a list of ``(y, d)`` pairs read from the
    table's ``"y / z / d"`` text.  Each entry must satisfy, in integers,
    ``E^T y - d e_i = s A^T z`` with ``z >= 0`` and ``d > 0``, where ``A`` holds
    the cone rows and ``s`` is 1 for max and -1 for min.  Weak duality then
    gives ``d g_i <= y . b`` (max) or ``d g_i >= y . b`` (min) on every
    section with right-hand side ``b``, so ``z`` is dropped once checked.  A
    bad entry raises ValueError.
    ``scripts/gen_certificates.py`` writes the table; it is read on the first
    section of the layout, never at import.
    """
    from ._certificates import CERTIFICATES
    rows = _cone(l).row_vectors()
    grading = _grading(l, torus)
    columns = list(enumerate(zip(zip(*grading), zip(*rows))))
    pool = []
    for (rank, t, i, sense), texts in CERTIFICATES.items():
        if (rank, t) != (l, torus):
            continue
        s = 1 if sense == "max" else -1
        certs = []
        for text in texts:
            y, z, d = text.split(" / ")
            y, z, d = tuple(map(int, y.split())), tuple(map(int, z.split())), int(d)
            if not (d > 0 and len(y) == len(grading) and len(z) == len(rows)
                    and min(z) >= 0
                    and all(dot(y, col) - d * (j == i) == s * dot(z, a_col)
                            for j, (col, a_col) in columns)):
                raise ValueError(f"bad dual certificate for l={l} torus={torus} "
                                 f"coordinate {i} {sense}")
            certs.append((y, d))
        pool.append((i, sense, certs))
    return pool


def _side_bound(certs, rhs, sense):
    """The tightest bound that ``certs`` prove on one side of the section with
    right-hand side ``rhs``, rounded inward; None when there are none.  A
    certificate's first entry is ``y`` and its last ``d``, so ``(y, d)`` pairs
    and ``(y, z, d)`` triples both serve."""
    if sense == "max":
        return min((dot(c[0], rhs) // c[-1] for c in certs), default=None)
    return max((-(-dot(c[0], rhs) // c[-1]) for c in certs), default=None)


def section_for(sigma: Weight, lam: tuple[int, int] | None = None) -> PolytopeSection:
    """Cone section with the flag-weight equalities and, optionally, the
    equalities of the torus weight ``lam = (a, b)``, carrying the certified
    root box where the rank has certificates for these equality rows."""
    l, torus = sigma.l, lam is not None
    rhs = sigma.neg + sigma.pos
    if torus:
        rhs += lam
    box = None
    pool = _certificates(l, torus)
    if pool:
        lo, hi = [None] * _cone(l).dim, [None] * _cone(l).dim
        for i, sense, certs in pool:
            (hi if sense == "max" else lo)[i] = _side_bound(certs, rhs, sense)
        box = lo, hi
    return PolytopeSection.from_cone(_cone(l), zip(_grading(l, torus), rhs), box)


def _torus_histogram(sigma: Weight) -> Counter:
    """Points of the sigma-section counted by their torus weight ``(a, b)``."""
    return Counter(lambda_weight_of(g, sigma.l)
                   for g in enumerate_points(section_for(sigma)))


# The histogram of the (mu, nu) pair that ``_validate_pair`` is working
# through, keyed by its sigma: at most one entry, filled by the pair's first
# polytope count.  None outside a pair, so a lone query scans its two
# lambda-sections.
_pair_memo: dict | None = None


def polytope_counts(sigma: Weight, lam: Partition):
    """Lattice counts of the two sections whose difference is the coefficient.
    Inside ``_validate_pair`` both are read from the pair's histogram."""
    if _pair_memo is not None:
        if sigma not in _pair_memo:
            _pair_memo.clear()
            _pair_memo[sigma] = _torus_histogram(sigma)
        hist = _pair_memo[sigma]
        return hist[lam[0], lam[1]], hist[lambda_omega(lam)]
    n_lam = count_points(section_for(sigma, (lam[0], lam[1])))
    n_omega = count_points(section_for(sigma, lambda_omega(lam)))
    return n_lam, n_omega


def kronecker(query: KroneckerQuery, method: str = "all") -> MethodReport:
    """Kronecker coefficient by the requested method(s)."""
    if method != "all" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    wanted = METHODS if method == "all" else (method,)
    sigma = partitions_to_weight(query.mu, query.nu, query.l)
    report = MethodReport(query, sigma)
    for m in wanted:
        t0 = time.perf_counter()
        if m == "polytope":
            n_lam, n_omega = polytope_counts(sigma, query.lam)
            value = n_lam - n_omega
            if value < 0:
                raise AssertionError(f"negative polytope count difference for {query}")
            report.counts = {"lambda": n_lam, "lambda_omega": n_omega}
        elif m == "characters":
            value = symfunc.kron_characters(query.lam, query.mu, query.nu)
        else:
            value = symfunc.kron_via_lr(query.lam, query.mu, query.nu, m=2)
        report.values[m] = value
        report.timings[m] = time.perf_counter() - t0
    return report


def truncated_product(mu: Partition, nu: Partition, l=None) -> symfunc.SchurExpansion:
    """2-truncated Kronecker product: enumerate the sigma-section and convert
    the multiset of torus weights into a Schur expansion."""
    if mu.size != nu.size:
        raise ValueError("partitions must have equal size")
    if l is None:
        l = _default_l(mu, nu)
    sigma = partitions_to_weight(mu, nu, l)
    return symfunc.schur_from_weights(_torus_histogram(sigma).elements())


def lambda_weight_of(g, l: int) -> tuple[int, int]:
    """Torus weight ``(a, b)`` of a cone point: pairing with the (j, k)
    grading rows."""
    return tuple(dot(row, g) for row in _grading(l, True)[2 * l:])


def sigma_weight_of(g, l: int) -> tuple:
    """Flag weight of a cone point: pairing with the flag grading rows."""
    return tuple(dot(row, g) for row in _grading(l, False))


@dataclass
class CrossValidationReport:
    cases: int = 0
    agreements: int = 0
    first_discrepancy: tuple | None = None

    @property
    def all_agree(self) -> bool:
        return self.first_discrepancy is None

    def to_json_dict(self):
        out = {"cases": self.cases, "agreements": self.agreements,
               "all_agree": self.all_agree}
        if self.first_discrepancy is not None:
            triple, values = self.first_discrepancy
            out["first_discrepancy"] = {
                "mu": str(triple[0]), "nu": str(triple[1]), "lambda": str(triple[2]),
                "methods": values,
            }
        return out


def _validate_pair(pair):
    """The reports of every case of one ``(mu, nu)`` pair; their polytope
    counts share the pair's one sigma-section histogram through
    ``_pair_memo``."""
    global _pair_memo
    mu, nu = pair
    _pair_memo = {}
    try:
        return [kronecker(KroneckerQuery.create(mu, nu, lam), method="all")
                for lam in partitions_of(mu.size, max_length=2)]
    finally:
        _pair_memo = None


_CHUNK = 8


def cross_validate(n_max: int, l_max: int, jobs: int = 1) -> CrossValidationReport:
    """Triple-oracle agreement over all sizes up to n_max with the stated
    length caps; reports the first discrepancy, if any.

    The ``(mu, nu)`` pairs go out in chunks of eight, to at most ``jobs``
    worker processes and never more workers than chunks."""
    report = CrossValidationReport()
    pairs = [(mu, nu) for n in range(n_max + 1)
             for mu in partitions_of(n, max_length=l_max)
             for nu in partitions_of(n, max_length=l_max)]
    # The pool forks every worker up front, so start no more than there are
    # chunks to hand out, and none for a single chunk.
    jobs = min(jobs, -(-len(pairs) // _CHUNK))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_validate_pair, pairs, chunksize=_CHUNK))
    else:
        # Lazy, so each pair's reports are tallied and dropped before the next
        # pair runs.
        results = map(_validate_pair, pairs)
    for chunk in results:
        for rep in chunk:
            report.cases += 1
            if rep.agree:
                report.agreements += 1
            elif report.first_discrepancy is None:
                q = rep.query
                report.first_discrepancy = ((q.mu, q.nu, q.lam), rep.values)
    return report
