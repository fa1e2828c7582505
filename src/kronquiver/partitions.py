"""Partitions, GL2 torus weights, and the dictionary between partition pairs
and flag-vertex weights of the doubled Kronecker quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class Partition:
    """Weakly decreasing sequence of positive integers (trailing zeros dropped).

    Immutable and hashable; indexing past the stored length returns 0.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part: {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    def __len__(self):
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i] if 0 <= i < len(self._parts) else 0

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __lt__(self, other):
        return self._parts < other._parts

    def __repr__(self):
        return f"Partition({list(self._parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self._parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse "2,1"; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(t) for t in text.split(","))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Whether other's diagram fits inside this one."""
        return all(self[i] >= other[i] for i in range(len(other)))


def partitions_of(n: int, max_length: int | None = None,
                  max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, optionally bounded in length and largest part."""
    if n < 0:
        return
    if max_part is None:
        max_part = n

    def gen(rem, first, slots):
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        for head in range(min(first, rem), 0, -1):
            for tail in gen(rem - head, head, slots - 1):
                yield (head,) + tail

    slots = n if max_length is None else max_length
    if n == 0:
        yield Partition()
        return
    for parts in gen(n, max_part, slots):
        yield Partition(parts)


@dataclass(frozen=True)
class LambdaWeight:
    """A GL2 torus weight (a, b); not necessarily dominant."""

    a: int
    b: int

    def as_tuple(self):
        return (self.a, self.b)

    def __str__(self):
        return f"{self.a},{self.b}"


@dataclass(frozen=True)
class Weight:
    """Flag-vertex weight sigma on the doubled Kronecker quiver of rank l.

    ``neg`` holds (sigma(-1), ..., sigma(-l)) and ``pos`` holds
    (sigma(1), ..., sigma(l)).  Validity: neg entries nonpositive, pos
    entries nonnegative, and both weighted sums equal the partition size.
    """

    l: int
    neg: tuple[int, ...]
    pos: tuple[int, ...]

    def __post_init__(self):
        if self.l < 1 or len(self.neg) != self.l or len(self.pos) != self.l:
            raise ValueError("weight arm length mismatch")
        if any(v > 0 for v in self.neg) or any(v < 0 for v in self.pos):
            raise ValueError(f"invalid sign pattern: {self}")
        if self.size_neg() != self.size_pos():
            raise ValueError(f"unbalanced weight: {self}")

    def size_neg(self) -> int:
        return sum(-(i + 1) * v for i, v in enumerate(self.neg))

    def size_pos(self) -> int:
        return sum((i + 1) * v for i, v in enumerate(self.pos))

    @property
    def size(self) -> int:
        return self.size_pos()

    def __str__(self):
        left = ",".join(str(v) for v in self.neg)
        right = ",".join(str(v) for v in self.pos)
        return f"{left};{right}"

    @classmethod
    def from_text(cls, text: str) -> "Weight":
        left, _, right = text.partition(";")
        neg = tuple(int(t) for t in left.split(",")) if left.strip() else ()
        pos = tuple(int(t) for t in right.split(",")) if right.strip() else ()
        if len(neg) != len(pos):
            raise ValueError(f"weight arms differ in length: {text!r}")
        return cls(len(neg), neg, pos)


def lambda_of_index_set(indices) -> Partition:
    """Partition (i_1 - r, i_2 - (r-1), ..., i_r - 1) of a strictly
    decreasing positive index set {i_1 > ... > i_r}."""
    idx = list(indices)
    if any(a <= b for a, b in zip(idx, idx[1:])) or any(i <= 0 for i in idx):
        raise ValueError(f"index set must be strictly decreasing and positive: {idx}")
    r = len(idx)
    return Partition(i - (r - t) for t, i in enumerate(idx))


def lambda_omega(lam: Partition) -> LambdaWeight:
    """(lam(1)+1, lam(2)-1); the companion weight whose count is subtracted."""
    if lam.length > 2:
        raise ValueError("lambda must have at most two parts")
    return LambdaWeight(lam[0] + 1, lam[1] - 1)


def partitions_to_weight(mu: Partition, nu: Partition, l: int) -> Weight:
    """Weight sigma with sigma(-i) = -(mu(i)-mu(i+1)), sigma(i) = nu(i)-nu(i+1)."""
    if mu.size != nu.size:
        raise ValueError(f"size mismatch: |mu|={mu.size} |nu|={nu.size}")
    if mu.length > l or nu.length > l:
        raise ValueError(f"partition length exceeds l={l}")
    neg = tuple(-(mu[i] - mu[i + 1]) for i in range(l))
    pos = tuple(nu[i] - nu[i + 1] for i in range(l))
    return Weight(l, neg, pos)


def weight_to_partitions(sigma: Weight) -> tuple[Partition, Partition]:
    """Left inverse of partitions_to_weight."""
    mu = [sum(-v for v in sigma.neg[i:]) for i in range(sigma.l)]
    nu = [sum(sigma.pos[i:]) for i in range(sigma.l)]
    return Partition(mu), Partition(nu)
