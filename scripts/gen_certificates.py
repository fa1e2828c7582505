"""Regenerate ``src/kronquiver/_certificates.py``, the LP dual certificates
that bound the root box of every rank-4 engine section.

Run from the repository root (about 5 s on a 2-vCPU host):

    PYTHONPATH=src python3 scripts/gen_certificates.py

The family is fixed: ``COUNT`` random triples (mu, nu, lambda) at l = 4 with
|mu| = |nu| = |lambda| <= ``N_MAX``, drawn from ``SEED``.  For the
sigma-section and the lambda-section of each triple the script takes the exact
LP box (``linalg.lp_box``).  Each side whose rounded optimum the certificates
kept so far do not reach gets the dual certificate of that side
(``linalg.dual_certificate``), and is kept.  Everything is exact and the
simplex pivots by Bland's rule, so the output is the same on every run.
Sections are built from the cone and grading tables directly, so the table
being replaced is never read.
"""

from __future__ import annotations

import random
from pathlib import Path

from kronquiver import linalg
from kronquiver.engine import _cone, _grading, _side_bound
from kronquiver.partitions import partitions_of, partitions_to_weight

L = 4
SEED = 11
COUNT = 16
N_MAX = 8
OUT = Path(__file__).resolve().parent.parent / "src" / "kronquiver" / "_certificates.py"


def family():
    rng = random.Random(SEED)
    for _ in range(COUNT):
        n = rng.randint(1, N_MAX)
        shapes = list(partitions_of(n, max_length=L))
        mu, nu = rng.choice(shapes), rng.choice(shapes)
        lam = rng.choice(list(partitions_of(n, max_length=2)))
        yield mu, nu, lam


def harvest():
    rows = _cone(L).row_vectors()
    dim = _cone(L).dim
    table = {}
    for mu, nu, lam in family():
        sigma = partitions_to_weight(mu, nu, L)
        for torus in (False, True):
            rhs = sigma.neg + sigma.pos + ((lam[0], lam[1]) if torus else ())
            grading = _grading(L, torus)
            lo, hi = [None] * dim, [None] * dim
            if linalg.lp_box(rows, [0] * len(rows), grading, rhs, lo, hi) != linalg.BOUNDED:
                continue
            for i in range(dim):
                for sense, optimum in (("min", lo[i]), ("max", hi[i])):
                    certs = table.setdefault((L, torus, i, sense), [])
                    if _side_bound(certs, rhs, sense) != optimum:
                        certs.append(linalg.dual_certificate(rows, grading, rhs, i, sense))
    return table


def render(table) -> str:
    lines = [
        '"""LP dual certificates for the root box of rank-4 engine sections.',
        "",
        "Written by scripts/gen_certificates.py; do not edit.  Keys are",
        "(l, torus rows present, coordinate, sense).  Each value is a tuple of",
        'certificates, each written "y / z / d": the integers that',
        "``linalg.dual_certificate`` returns.  ``engine._certificates`` checks",
        "every entry in integer arithmetic before it is used.  Text keeps",
        "importing this module cheap: tuple literals of the same integers",
        "cost several megabytes of peak memory to compile.",
        '"""',
        "",
        "CERTIFICATES = {",
    ]
    for key in sorted(table):
        lines.append(f"    {key!r}: (")
        lines += [f'        "{" ".join(map(str, y))} / {" ".join(map(str, z))} / {d}",'
                  for y, z, d in table[key]]
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main():
    table = harvest()
    OUT.write_text(render(table))
    print(f"{sum(map(len, table.values()))} certificates on {len(table)} sides -> {OUT}")


if __name__ == "__main__":
    main()
