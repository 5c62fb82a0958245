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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cohomology import (
    BundleTriple,
    CuspGeometry,
    kahn_condition,
    kahn_violation,
    module_rank,
)
from .sequences import SSeq, canonical_form, is_aperiodic

__all__ = [
    "LambdaBase",
    "CMModuleLabel",
    "FamilyDescriptor",
    "RankSlice",
    "GrowthTable",
    "free_label",
    "classify_label",
    "enumerate_rank",
    "family_counts",
]

class LambdaBase(Enum):
    """Which scalars lam give a module inside a family."""

    ALL_NONZERO = "all_nonzero"
    NONZERO_EXCEPT_ONE = "nonzero_except_one"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RankSlice:
    """Everything indecomposable of one fixed rank."""

    rank: int
    free: bool
    families: tuple[FamilyDescriptor, ...]
    exceptional: tuple[CMModuleLabel, ...]


@dataclass(frozen=True)
class GrowthTable:
    """Family counts per rank, with the lone non-family modules listed."""

    counts: dict[int, int]
    exceptional: dict[int, tuple[CMModuleLabel, ...]]


def _checked(cls, **fields):
    # A frozen label of data the classification has checked: the fields are
    # set as the dataclass __init__ sets them, and __post_init__ is skipped.
    label = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(label, name, value)
    return label


def free_label(geom: CuspGeometry) -> CMModuleLabel:
    """The rank-1 free module A."""
    return _checked(CMModuleLabel, geometry=geom, triple=None, rank=1)


def classify_label(triple: BundleTriple, geom: CuspGeometry) -> CMModuleLabel:
    """Label of the indecomposable CM module attached to the triple.

    The sequence is replaced by its canonical rotation and the rank of the
    module is computed and cached on the label.

    Raises:
        KahnViolation: no module exists for these parameters.
        ValueError: periodic sequence, or component count mismatch.
    """
    if triple.seq.s != geom.s:
        raise ValueError(
            f"sequence has s={triple.seq.s} but the geometry has s={geom.s}"
        )
    if not is_aperiodic(triple.seq):
        raise ValueError(f"periodic sequence {triple.seq} does not label a module")
    if not kahn_condition(triple):  # before canonicalising, to name this rotation
        raise kahn_violation(triple)
    canon = BundleTriple(canonical_form(triple.seq), triple.m, triple.lam)
    rank = module_rank(canon, geom)
    return _checked(CMModuleLabel, geometry=geom, triple=canon, rank=rank)


def _tube_level(label: CMModuleLabel, m: int) -> CMModuleLabel:
    # Level m of the tube through a checked label: the same canonical
    # sequence and lam object, no check re-run.  The rank is affine in m,
    # m*(r + c) + j with j = 1 only over (B, 1).
    t = label.triple
    j = 1 if t.lam == 1 and t.seq.entries == label.geometry.b else 0
    return _checked(CMModuleLabel, geometry=label.geometry,
                    triple=BundleTriple(t.seq, m, t.lam),
                    rank=(label.rank - j) // t.m * m + j)


def _twist_candidates(geom: CuspGeometry, r: int, slack: int) -> list[tuple[int, ...]]:
    """Block prenecklaces d >= 0 of length r*s, in lexicographic order, whose
    twist v = d - B^r has exactly slack global sections at m = 1 and
    generic lam.

    A block prenecklace is a prefix of a word that is least among its
    rotations by multiples of s; every canonical aperiodic sequence is one,
    and the caller drops the rest.  The walk is the Fredricksen-Kessler-
    Maiorana recursion (Cattell, Ruskey, Sawada, Serra and Miers 2000) over
    the alphabet of s-blocks: p is the period of the prefix, a multiple of
    s, and while the block being filled still equals the block p back,
    entry i is at least d[i - p].  B^r has period s, so that bound reads
    v[i] >= v[i - p] on the twist.

    The section count splits over the maximal cyclic runs of non-negative
    entries of v: a run contributes its sum, minus one unless it is all
    zero or wraps the whole cycle.  Entries are filled left to right in
    increasing order; a partial run can only gain sum, so the accumulated
    count is a lower bound and prunes the search.  The run through
    position 0 is settled last, when its wrap status is known.
    """
    s = geom.s
    b = geom.b * r
    n = s * r
    # a positive entry v_i costs at least v_i - 1 sections
    vmax = slack + 1
    buf = [0] * n
    out: list[tuple[int, ...]] = []

    def close(sigma: int, pos: bool) -> int:
        return sigma - 1 if pos else 0

    def rec(
        i: int,
        p: int,
        gt: bool,
        closed: int,
        cur_sum: int,
        cur_pos: bool,
        cur_open: bool,
        seen_neg: bool,
        head_sum: int,
        head_pos: bool,
        head_any: bool,
    ) -> None:
        # gt: the block being filled already exceeds the block p back
        if gt and i and i % s == 0:
            p, gt = i, False
        if i == n:
            if not seen_neg:
                h = head_sum
            elif cur_open and head_any:
                h = closed + close(cur_sum + head_sum, cur_pos or head_pos)
            else:
                h = closed
                if cur_open:
                    h += close(cur_sum, cur_pos)
                if head_any:
                    h += close(head_sum, head_pos)
            if h == slack:
                out.append(tuple(buf))
            return
        head_lb = close(head_sum, head_pos) if head_any else 0
        first = -b[i] if gt else buf[i - p] - b[i]
        for v in range(first, vmax + 1):
            buf[i] = v + b[i]
            up = gt or v > first
            if v < 0:
                done = closed + (close(cur_sum, cur_pos) if cur_open else 0)
                if done + head_lb > slack:
                    continue
                rec(i + 1, p, up, done, 0, False, False, True, head_sum, head_pos,
                    head_any)
            elif not seen_neg:
                hs, hp = head_sum + v, head_pos or v > 0
                if close(hs, hp) > slack:
                    break
                rec(i + 1, p, up, closed, 0, False, False, False, hs, hp, True)
            else:
                cs, cp = cur_sum + v, cur_pos or v > 0
                if closed + close(cs, cp) + head_lb > slack:
                    break
                rec(i + 1, p, up, closed, cs, cp, True, True, head_sum, head_pos,
                    head_any)

    # the first block has nothing to exceed; it fixes p = s when it ends
    rec(0, 0, True, 0, 0, False, False, False, 0, False, False)
    del rec  # a self-referencing closure: free it now, not at a full collection
    return out


def enumerate_rank(geom: CuspGeometry, rank: int) -> RankSlice:
    """All indecomposable CM modules of the given rank.

    Families are keyed by (sequence, m) with lam left symbolic and are
    ordered by (sequence length, sequence, m).  The lone modules M(B, m, 1)
    of rank m + 1 are listed under exceptional; the free module only occurs
    at rank 1.

    Away from the lam = 1 jump the rank of M(d, m, lam) is m times
    (r + sections of the twist d - B^r), so only divisors m of the rank
    occur and the sequences of each (m, r) block are found by a direct
    search for the exact section count rank/m - r.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    families: list[FamilyDescriptor] = []
    b_seq = geom.b_sequence
    zero = SSeq(geom.s, (0,) * geom.s)
    for m in range(1, rank + 1):
        if rank % m:
            continue
        for r in range(1, rank // m + 1):
            for entries in _twist_candidates(geom, r, rank // m - r):
                seq = SSeq(geom.s, entries)
                if not is_aperiodic(seq):
                    continue
                if canonical_form(seq).entries != entries:
                    continue
                base = (
                    LambdaBase.NONZERO_EXCEPT_ONE
                    if seq == zero or seq == b_seq
                    else LambdaBase.ALL_NONZERO
                )
                families.append(FamilyDescriptor(seq=seq, m=m, base=base, rank=rank))
    families.sort(key=lambda f: (len(f.seq.entries), f.seq.entries, f.m))
    exceptional: tuple[CMModuleLabel, ...] = ()
    if rank >= 2:
        exceptional = (
            classify_label(BundleTriple(b_seq, rank - 1, Fraction(1)), geom),
        )
    return RankSlice(
        rank=rank,
        free=rank == 1,
        families=tuple(families),
        exceptional=exceptional,
    )


def family_counts(geom: CuspGeometry, r_max: int) -> GrowthTable:
    """Number of rank-r families for r = 1..r_max, plus the lone modules."""
    if r_max < 1:
        raise ValueError(f"r_max must be positive, got {r_max}")
    counts: dict[int, int] = {}
    exceptional: dict[int, tuple[CMModuleLabel, ...]] = {}
    for rank in range(1, r_max + 1):
        piece = enumerate_rank(geom, rank)
        counts[rank] = len(piece.families)
        exceptional[rank] = piece.exceptional
    return GrowthTable(counts=counts, exceptional=exceptional)
