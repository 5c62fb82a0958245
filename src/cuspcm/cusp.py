"""Classification data for maximal Cohen-Macaulay modules over a cusp.

Over the complete local ring of a degenerate cusp with resolution cycle
weights b, the indecomposable CM modules are the free module A of rank 1
and the modules M(d, m, lam) for aperiodic non-negative sequences d and
parameters (m, lam) passing the Kahn test.  For fixed (d, m) the scalar
lam sweeps out a one-parameter family of constant rank, except that the
weight sequence d = B jumps at lam = 1: there M(B, m, 1) is a lone module
of rank m + 1 while the rest of the family has rank m.

This module labels single modules, enumerates everything of a given rank,
and tabulates the family counts whose growth separates the tame cusp case
from wilder singularities.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import attrgetter

from . import _EXPORTS
from .cohomology import BundleTriple, CuspGeometry, _exists, _geometry, module_rank
from .sequences import (
    SSeq, _block_lyndon, _count, _frozen, _least_form, canonical_form, is_aperiodic,
)

__all__ = _EXPORTS["cusp"]

class LambdaBase(Enum):
    """Which scalars lam give a module inside a family."""

    ALL_NONZERO = "all_nonzero"
    NONZERO_EXCEPT_ONE = "nonzero_except_one"


@_frozen
class CMModuleLabel:
    """One point of the classification: the free module or a bundle triple.

    `classify_label` and `free_label` build labels.  A label built directly
    must equal what they give for its data: a canonical sequence, a module
    that exists, and its rank.
    """

    geometry: CuspGeometry
    triple: BundleTriple | None  # None encodes the free module A
    rank: int

    def __post_init__(self) -> None:
        t, geom = self.triple, self.geometry
        if t is not None and type(t) is not BundleTriple:
            raise ValueError(f"triple {t!r} is not a classified label")
        if type(self.rank) is not int or self != (
            free_label(geom) if t is None else classify_label(t, geom)
        ):
            raise ValueError(f"{self} of rank {self.rank!r} is not a classified label")

    @property
    def is_free(self) -> bool:
        return self.triple is None

    @property
    def kind(self) -> str:
        return "free" if self.triple is None else "module"

    def __str__(self) -> str:
        if self.triple is None:
            return "A"
        t = self.triple
        return f"M({t.seq},{t.m},{t.lam})"


@_frozen
class FamilyDescriptor:
    """A one-parameter family M(seq, m, -) of fixed rank.

    base records the parameter space: every nonzero lam, or every nonzero
    lam except 1 (the zero sequence has no module at lam = 1, and over the
    weight sequence B the module at lam = 1 has a different rank).
    """

    seq: SSeq
    m: int
    base: LambdaBase
    rank: int


@_frozen
class RankSlice:
    """Everything indecomposable of one fixed rank."""

    rank: int
    free: bool
    families: tuple[FamilyDescriptor, ...]
    exceptional: tuple[CMModuleLabel, ...]


@_frozen
class GrowthTable:
    """Family counts per rank, with the lone non-family modules listed."""

    counts: dict[int, int]
    exceptional: dict[int, tuple[CMModuleLabel, ...]]


def free_label(geom: CuspGeometry) -> CMModuleLabel:
    """The rank-1 free module A."""
    _geometry(geom, CuspGeometry)
    return CMModuleLabel._trusted(geom, None, 1)


def classify_label(triple: BundleTriple, geom: CuspGeometry) -> CMModuleLabel:
    """Label of the indecomposable CM module attached to the triple.

    The sequence is replaced by its canonical rotation and the rank of the
    module is computed and cached on the label.

    Raises:
        ValueError: periodic sequence, component count mismatch, or a
            geometry that is not a CuspGeometry.
        KahnViolation: no module exists for these parameters.
    """
    canon = _canonical(triple)
    # module_rank checks that the module exists, naming this rotation
    return CMModuleLabel._trusted(geom, canon, module_rank(triple, geom))


def _canonical_triple(triple: BundleTriple, geom: CuspGeometry) -> BundleTriple:
    # The label check without the rank: aperiodicity, then the component
    # count and Kahn's test, as classify_label checks them.
    canon = _canonical(triple)
    _exists(triple, geom)
    return canon


def _canonical(triple: BundleTriple) -> BundleTriple:
    # The canonical rotation of an aperiodic triple, with the same m and lam:
    # the triple itself when its sequence is already least and it is a
    # BundleTriple, checked when it was built.
    seq = triple.seq
    canon, periodic = _least_form(seq)
    if periodic:
        raise ValueError(f"periodic sequence {seq} does not label a module")
    if canon is seq and type(triple) is BundleTriple:
        return triple
    return BundleTriple._trusted(canon, triple.m, triple.lam)


def _special(geom: CuspGeometry, seq: SSeq, lam: Fraction) -> bool:
    # The one jump rule: M(B, m, 1) has rank m + 1, and A is glued to its tube.
    # The tuple test runs first: it is in C and almost always false.
    return seq.entries == geom.b and lam == 1


def _tube_level(label: CMModuleLabel, m: int) -> CMModuleLabel:
    # Level m of the tube through a checked label: the same canonical
    # sequence and lam object, no check re-run.  The rank is affine in m,
    # m*(r + c) + j with j = 1 only over (B, 1).
    t = label.triple
    j = 1 if _special(label.geometry, t.seq, t.lam) else 0
    triple = BundleTriple._trusted(t.seq, m, t.lam)
    return CMModuleLabel._trusted(label.geometry, triple,
                                  (label.rank - j) // t.m * m + j)


def _twist_candidates(geom: CuspGeometry, r: int, slack: int) -> list[tuple[int, ...]]:
    """Block Lyndon words d >= 0 of length r*s, in lexicographic order, whose
    twist v = d - B^r has exactly slack global sections at m = 1 and
    generic lam: `sequences._block_lyndon` with low = 0, b = B^r and
    vmax = slack + 1.
    """
    return _block_lyndon(geom.s, geom.b * r, 0, slack + 1, slack)


def enumerate_rank(geom: CuspGeometry, rank: int) -> RankSlice:
    """All indecomposable CM modules of the given rank.

    Families are keyed by (sequence, m) with lam left symbolic and are
    ordered by (sequence length, sequence, m).  The lone modules M(B, m, 1)
    of rank m + 1 are listed under exceptional; the free module only occurs
    at rank 1.

    Away from the lam = 1 jump the rank of M(d, m, lam) is m times
    (r + sections of the twist d - B^r), so only divisors m of the rank
    occur and the sequences of each (m, r) block are found by a direct
    search for the exact section count rank/m - r.  A sequence has one
    section count, so its m is unique and each r sorts by sequence alone.
    """
    _geometry(geom, CuspGeometry)
    _count("rank", rank)
    s = geom.s
    special = ((0,) * s, geom.b)  # the families without lam = 1
    except_one, every = LambdaBase.NONZERO_EXCEPT_ONE, LambdaBase.ALL_NONZERO
    families: list[FamilyDescriptor] = []
    for r in range(1, rank + 1):
        block: list[FamilyDescriptor] = []
        for m in range(1, rank // r + 1):
            if rank % m:
                continue
            for entries in _twist_candidates(geom, r, rank // m - r):
                # the search made an int tuple of length r*s: checked data
                seq = SSeq._trusted(s, entries)
                # Drops nothing the walk yields.  It stays, with the three
                # traced metrics that read it, until ROADMAP item 1's
                # benchmark-only change.
                if not is_aperiodic(seq) or canonical_form(seq) is not seq:
                    continue
                base = except_one if entries in special else every
                block.append(FamilyDescriptor(seq, m, base, rank))
        block.sort(key=attrgetter("seq.entries"))
        families += block
    exceptional: tuple[CMModuleLabel, ...] = ()
    if rank >= 2:
        exceptional = (classify_label(BundleTriple(geom.b_sequence, rank - 1, 1), geom),)
    return RankSlice(
        rank=rank,
        free=rank == 1,
        families=tuple(families),
        exceptional=exceptional,
    )


def family_counts(geom: CuspGeometry, r_max: int) -> GrowthTable:
    """Number of rank-r families for r = 1..r_max, plus the lone modules."""
    _count("r_max", r_max)
    counts: dict[int, int] = {}
    exceptional: dict[int, tuple[CMModuleLabel, ...]] = {}
    for rank in range(1, r_max + 1):
        piece = enumerate_rank(geom, rank)
        counts[rank] = len(piece.families)
        exceptional[rank] = piece.exceptional
    return GrowthTable(counts=counts, exceptional=exceptional)
