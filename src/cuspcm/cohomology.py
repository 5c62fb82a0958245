"""Closed-form cohomology of the indecomposable bundles on a degenerate cusp.

A triple (d, m, lam) of a degree sequence, a multiplicity and a nonzero
scalar names an indecomposable vector bundle G(d, m, lam) of rank m*r on a
cycle of s projective lines.  The dimensions of H^0 and H^1 are given by a
combinatorial count over the maximal non-negative runs of d (theta) with a
single correction delta for the zero sequence with lam = 1.

The same counts drive the surface side: a cusp singularity with resolution
cycle weights b = (b_1..b_s) attaches to every triple satisfying the Kahn
existence criterion an indecomposable maximal Cohen-Macaulay module whose
rank is m*r plus the number of global sections of the bundle twisted down
by one copy of b per walk of the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sequences import SSeq

__all__ = [
    "KahnViolation",
    "BundleTriple",
    "CuspGeometry",
    "CohomReport",
    "positive_parts",
    "theta",
    "delta",
    "cohom_dims",
    "kahn_condition",
    "twist_by_cycle",
    "n_global",
    "module_rank",
]

class KahnViolation(ValueError):
    """No Cohen-Macaulay module exists for the requested parameters."""


@dataclass(frozen=True)
class BundleTriple:
    """Parameters (d, m, lam) of an indecomposable bundle on the cycle.

    m is a positive int multiplicity and lam a nonzero exact rational; ints
    and strings accepted by Fraction are coerced.  Aperiodicity of the sequence
    is not required here: it is a classification-level constraint, enforced
    where labels are built.
    """

    seq: SSeq
    m: int
    lam: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.m, int):
            raise ValueError(f"multiplicity must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"multiplicity must be positive, got {self.m}")
        lam = Fraction(self.lam)
        if lam == 0:
            raise ValueError("lam must be a nonzero rational")
        object.__setattr__(self, "lam", lam)

    def __str__(self) -> str:
        return f"({self.seq},{self.m},{self.lam})"


@dataclass(frozen=True)
class CuspGeometry:
    """Cycle length s and per-component twist weights b of a degenerate cusp.

    For s = 1 the single weight must be at least 1; for s > 1 all weights
    are non-negative with at least one positive.
    """

    s: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        b = tuple(self.b)
        if self.s < 1:
            raise ValueError(f"component count must be positive, got {self.s}")
        if len(b) != self.s:
            raise ValueError(f"expected {self.s} weights, got {len(b)}")
        if any(not isinstance(w, int) for w in b):
            raise ValueError("weights must be integers")
        if self.s == 1:
            if b[0] < 1:
                raise ValueError(f"for s=1 the weight must be at least 1, got {b[0]}")
        else:
            if any(w < 0 for w in b):
                raise ValueError(f"weights must be non-negative, got {list(b)}")
            if all(w == 0 for w in b):
                raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "b", b)

    @property
    def b_sequence(self) -> SSeq:
        """The weights as the length-s degree sequence B."""
        return SSeq(self.s, self.b)


@dataclass(frozen=True)
class CohomReport:
    """The combinatorial counts theta and delta with the resulting h^0, h^1."""

    theta: int
    delta: int
    h0: int
    h1: int


def positive_parts(seq: SSeq) -> list[tuple[int, int]]:
    """Maximal cyclic runs of non-negative entries, as (start, length) pairs.

    start is the 0-based position of the first entry of a run; runs may wrap
    around the end of the sequence.  A sequence without negative entries is
    one run of full length starting at 0; a negative sequence has no runs.
    Runs are listed by start position.
    """
    e = seq.entries
    n = len(e)
    if all(v >= 0 for v in e):
        return [(0, n)]
    parts: list[tuple[int, int]] = []
    for i in range(n):
        if e[i] >= 0 and e[i - 1] < 0:
            length = 1
            while e[(i + length) % n] >= 0:
                length += 1
            parts.append((i, length))
    return parts


def theta(seq: SSeq) -> int:
    """Sum over positive parts: a full-cycle or all-zero run counts its
    length, every other run counts length + 1."""
    e = seq.entries
    n = len(e)
    total = 0
    for start, length in positive_parts(seq):
        whole = length == n
        zero = all(e[(start + j) % n] == 0 for j in range(length))
        total += length if whole or zero else length + 1
    return total


def delta(seq: SSeq, lam: Fraction | int | str) -> int:
    """1 exactly for the zero sequence with lam = 1, else 0."""
    if any(v != 0 for v in seq.entries):
        return 0
    return 1 if Fraction(lam) == 1 else 0


def cohom_dims(triple: BundleTriple) -> CohomReport:
    """Dimensions of H^0 and H^1 of G(d, m, lam) in closed form.

    h0 = m * (sum of (d_i + 1)^+ - theta) + delta and
    h1 = m * (sum of (d_i + 1)^- + r*s - theta) + delta.
    """
    d = triple.seq
    n = len(d.entries)
    th = theta(d)
    de = delta(d, triple.lam)
    pos = sum(v + 1 for v in d.entries if v + 1 > 0)
    neg = sum(-(v + 1) for v in d.entries if v + 1 < 0)
    return CohomReport(
        theta=th,
        delta=de,
        h0=triple.m * (pos - th) + de,
        h1=triple.m * (neg + n - th) + de,
    )


def kahn_condition(triple: BundleTriple) -> bool:
    """Existence test for the CM module attached to the triple.

    The sequence must be non-negative and either positive somewhere, or
    identically zero with lam != 1.
    """
    e = triple.seq.entries
    if any(v < 0 for v in e):
        return False
    if any(v > 0 for v in e):
        return True
    return triple.lam != 1


def kahn_violation(triple: BundleTriple) -> KahnViolation:
    """The error for a triple that fails the existence test, naming it."""
    return KahnViolation(
        f"no CM module for {triple}: the sequence must be non-negative "
        "and either positive somewhere or zero with lam != 1"
    )


def twist_by_cycle(seq: SSeq, geom: CuspGeometry) -> SSeq:
    """Subtract one copy of the weights b from every walk of the cycle."""
    if seq.s != geom.s:
        raise ValueError(
            f"sequence has s={seq.s} but the geometry has s={geom.s}"
        )
    b = geom.b
    return SSeq(seq.s, tuple(v - b[i % seq.s] for i, v in enumerate(seq.entries)))


def n_global(triple: BundleTriple, geom: CuspGeometry) -> int:
    """Global sections of the twisted bundle: h^0 of (d - B^r, m, lam).

    This is the number of free direct summands split off when the bundle is
    pushed down to the singularity.

    Raises:
        KahnViolation: when the triple fails the existence test.
    """
    if not kahn_condition(triple):
        raise kahn_violation(triple)
    twisted = twist_by_cycle(triple.seq, geom)
    return cohom_dims(BundleTriple(twisted, triple.m, triple.lam)).h0


def module_rank(triple: BundleTriple, geom: CuspGeometry) -> int:
    """Rank of the CM module attached to the triple: m*r + n_global."""
    return triple.m * triple.seq.r + n_global(triple, geom)
