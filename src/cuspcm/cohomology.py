"""Closed-form cohomology of the indecomposable bundles on a degenerate cusp.

A triple (d, m, lam) of a degree sequence, a multiplicity and a nonzero
scalar names an indecomposable vector bundle G(d, m, lam) of rank m*r on a
cycle of s projective lines.  The dimensions of H^0 and H^1 are sums over
the maximal cyclic non-negative runs of d, with a single correction delta
for the zero sequence with lam = 1.

The same counts drive the surface side: a cusp singularity with resolution
cycle weights b = (b_1..b_s) attaches to every triple satisfying the Kahn
existence criterion an indecomposable maximal Cohen-Macaulay module whose
rank is m*r plus the number of global sections of the bundle twisted down
by one copy of b per walk of the cycle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle
from operator import sub
from typing import Iterable, Sequence

from . import _EXPORTS
from .sequences import SSeq, _count, _frozen

__all__ = _EXPORTS["cohomology"]

class KahnViolation(ValueError):
    """No Cohen-Macaulay module exists for the requested parameters."""


def _scalar(lam: Fraction | int | str) -> Fraction:
    # The one scalar rule: a nonzero exact rational, coerced by Fraction once.
    # As for counts, bool and float are rejected: True would be the special
    # scalar 1 and 0.1 a binary fraction.
    if type(lam) is not Fraction:
        if isinstance(lam, (bool, float)):
            raise ValueError(f"lam must be an exact rational, got {lam!r}")
        lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lam must be a nonzero rational")
    return lam


def _scalars(lambdas: Sequence[Fraction | int | str]) -> tuple[Fraction, ...]:
    # A list of scalars; a str is one literal, not a list of its characters.
    if isinstance(lambdas, str):
        raise ValueError(f"lambdas must be a sequence of scalars, got {lambdas!r}")
    return tuple(map(_scalar, lambdas))


def _geometry(geom: object, kind: type) -> None:
    # The one geometry rule: a function made for one kind of geometry, cusp
    # or T_pq, is given that kind, and the other kind fails here, not later.
    if type(geom) is not kind:
        raise ValueError(f"expected a {kind.__name__}, got {type(geom).__name__}")


def _same_s(seq: SSeq, geom: CuspGeometry) -> None:
    # The one rule that ties a sequence to a geometry: a cusp geometry of
    # the same cycle.
    _geometry(geom, CuspGeometry)
    if seq.s != geom.s:
        raise ValueError(f"sequence has s={seq.s} but the geometry has s={geom.s}")


@_frozen
class BundleTriple:
    """Parameters (d, m, lam) of an indecomposable bundle on the cycle.

    m is a positive int multiplicity and lam a nonzero exact rational; ints
    and strings accepted by Fraction are coerced, bool and float rejected.
    Aperiodicity of the sequence is not required here: it is a
    classification-level constraint, enforced where labels are built.
    """

    seq: SSeq
    m: int
    lam: Fraction

    def __post_init__(self) -> None:
        if type(self.seq) is not SSeq:
            raise ValueError(f"seq must be an SSeq, got {self.seq!r}")
        _count("multiplicity", self.m)
        object.__setattr__(self, "lam", _scalar(self.lam))

    def __str__(self) -> str:
        return f"({self.seq},{self.m},{self.lam})"


@_frozen
class CuspGeometry:
    """Cycle length s and per-component twist weights b of a degenerate cusp.

    For s = 1 the single weight must be at least 1; for s > 1 all weights
    are non-negative with at least one positive.
    """

    s: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        b = tuple(self.b)
        _count("component count", self.s)
        if len(b) != self.s:
            raise ValueError(f"expected {self.s} weights, got {len(b)}")
        if any(type(w) is not int for w in b):
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


@_frozen
class CohomReport:
    """The combinatorial counts theta and delta with the resulting h^0, h^1."""

    theta: int
    delta: int
    h0: int
    h1: int


def theta(seq: SSeq) -> int:
    """#{d_i >= 0} + runs, where runs counts the maximal cyclic runs of
    non-negative entries that hold a positive entry and are shorter than
    the whole cycle."""
    return _dims(seq.entries, 1, 1)[0]


def _dims(e: Iterable[int], m: int, lam: Fraction | int) -> tuple[int, int, int, int]:
    # theta, delta, h0 and h1 of (e, m, lam) in one walk over any iterable e:
    # the run sums of cohom_dims, the rule sequences._block_lyndon prunes on
    # at m = 1.  The run before the first negative entry joins the open run.
    nonneg = runs = pos = neg = 0
    head = None  # whether the run before the first negative entry is positive
    up = False  # whether the open run holds a positive entry
    for v in e:
        if v < 0:
            neg -= v
            if head is None:
                head = up
            else:
                runs += up
            up = False
        else:
            nonneg += 1
            pos += v
            up = up or v > 0
    if head is not None:
        runs += head or up
    de = 1 if head is None and not up and lam == 1 else 0
    return nonneg + runs, de, m * (pos - runs) + de, m * (neg - runs) + de


def delta(seq: SSeq, lam: Fraction | int | str) -> int:
    """1 exactly for the zero sequence with lam = 1, else 0; lam = 0 raises."""
    return 1 if _scalar(lam) == 1 and not any(seq.entries) else 0


def cohom_dims(triple: BundleTriple) -> CohomReport:
    """Dimensions of H^0 and H^1 of G(d, m, lam) in closed form.

    With runs as in theta, h0 = m * (sum of the positive d_i - runs) + delta
    and h1 = m * (sum of -d_i over the negative d_i - runs) + delta.
    """
    return CohomReport(*_dims(triple.seq.entries, triple.m, triple.lam))


def kahn_condition(triple: BundleTriple) -> bool:
    """Existence test for the CM module attached to the triple.

    The sequence must be non-negative and either positive somewhere, or
    identically zero with lam != 1.
    """
    e = triple.seq.entries
    if min(e) < 0:
        return False
    if max(e) > 0:
        return True
    return triple.lam != 1


def twist_by_cycle(seq: SSeq, geom: CuspGeometry) -> SSeq:
    """Subtract one copy of the weights b from every walk of the cycle."""
    _same_s(seq, geom)
    return SSeq(seq.s, tuple(map(sub, seq.entries, cycle(geom.b))))


def _exists(triple: BundleTriple, geom: CuspGeometry) -> None:
    # The one existence rule for the module of a triple over a cusp: the
    # same cycle, then Kahn's test.  The only place a KahnViolation is made.
    _same_s(triple.seq, geom)
    if not kahn_condition(triple):
        raise KahnViolation(
            f"no CM module for {triple}: the sequence must be non-negative "
            "and either positive somewhere or zero with lam != 1"
        )


def n_global(triple: BundleTriple, geom: CuspGeometry) -> int:
    """Global sections of the twisted bundle: h^0 of (d - B^r, m, lam).

    This is the number of free direct summands split off when the bundle is
    pushed down to the singularity.

    Raises:
        ValueError: for a geometry that is not a CuspGeometry, or another s.
        KahnViolation: when the triple fails the existence test.
    """
    _exists(triple, geom)
    return _dims(map(sub, triple.seq.entries, cycle(geom.b)), triple.m, triple.lam)[2]


def module_rank(triple: BundleTriple, geom: CuspGeometry) -> int:
    """Rank of the CM module attached to the triple: m*r + n_global.

    The rank is affine in m along the tube of (seq, lam):
    m*(r + c) + [seq = B and lam = 1], where c is the section count of the
    twist at m = 1 and generic lam.  The cusp's tube code derives the other
    levels of a tube from one checked label by that rule; this per-level
    count is its reference.
    """
    return triple.m * triple.seq.r + n_global(triple, geom)
