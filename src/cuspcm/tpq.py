"""The curve singularities T_pq and descent from their double covers.

For q >= p >= 3 with 1/p + 1/q < 1/2 the plane curve x^p + x^2*y^2 + y^q
has, as its double cover data, a degenerate cusp surface singularity whose
resolution cycle is computed here case by case in p.  The deck involution
sigma acts on degree sequences as an explicit reflection of the cyclic
index set, and Knoerrer-style descent matches CM modules over the surface
with CM modules over the curve: sigma-invariant module labels with
lam = +-1 split into two branch modules downstairs, everything else maps
to a single module determined up to the flip (d, lam) -> (sigma d, 1/lam).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import ClassVar

from . import _EXPORTS
from .cohomology import BundleTriple, CuspGeometry, _exists, _geometry, _same_s
from .cusp import CMModuleLabel, _canonical_triple
from .sequences import SSeq, _count, _frozen, canonical_form

__all__ = _EXPORTS["tpq"]


class TpqCase(Enum):
    P3 = "P3"
    P4 = "P4"
    P5PLUS = "P5plus"


@_frozen
class TpqGeometry:
    """Resolution data of the double cover of T_pq.

    t is the block cut of the reflection sigma and is only meaningful for
    p >= 5 (where t = p - 3); for p in {3, 4} the reflection is anchored at
    position 1 and t is None.  One built directly must equal `geometry_of`'s.
    """

    p: int
    q: int
    cusp: CuspGeometry
    t: int | None
    case_tag: TpqCase

    def __post_init__(self) -> None:
        if self != geometry_of(self.p, self.q):
            raise ValueError(f"not the double cover of T_{self.p},{self.q}: {self}")

    @property
    def axis(self) -> int:
        """Anchor position of the reflection: t for p >= 5, else 1."""
        return 1 if self.t is None else self.t


def geometry_of(p: int, q: int) -> TpqGeometry:
    """Cycle weights of the double cover of T_pq, case by case in p.

    Requires q >= p >= 3 and 1/p + 1/q < 1/2 (checked exactly); the three
    shapes are b = (1, 0, ..., 0) with s = q - 6 for p = 3,
    b = (2, 0, ..., 0) with s = q - 4 for p = 4, and b_1 = b_t = 1 inside
    s = p + q - 8 zeros with t = p - 3 for p >= 5.

    Raises:
        ValueError: for a non-int p or q, p < 3, q < p, or 1/p + 1/q >= 1/2.
    """
    _count("p", p, positive=False)
    _count("q", q, positive=False)
    if p < 3:
        raise ValueError(f"p must be at least 3, got {p}")
    if q < p:
        raise ValueError(f"need q >= p, got p={p}, q={q}")
    if 2 * (p + q) >= p * q:
        raise ValueError(
            f"T_{p},{q} is not in the cusp regime: 1/{p} + 1/{q} >= 1/2"
        )
    if p == 3:
        s = q - 6
        cusp, t, case = CuspGeometry(s, (1,) + (0,) * (s - 1)), None, TpqCase.P3
    elif p == 4:
        s = q - 4
        cusp, t, case = CuspGeometry(s, (2,) + (0,) * (s - 1)), None, TpqCase.P4
    else:
        s = p + q - 8
        t = p - 3
        b = [0] * s
        b[0] = 1
        b[t - 1] = 1
        cusp, case = CuspGeometry(s, tuple(b)), TpqCase.P5PLUS
    return TpqGeometry._trusted(p, q, cusp, t, case)


def apply_sigma(geom: TpqGeometry, seq: SSeq) -> SSeq:
    """Degree sequence of the pullback along the deck involution.

    Entry i of the result is entry (axis + 1 - i) of the input, indices
    cyclic: the reflection of the index circle anchored at the axis.
    """
    _geometry(geom, TpqGeometry)
    _same_s(seq, geom.cusp)
    e = seq.entries
    n = len(e)
    t = geom.axis
    return SSeq(seq.s, tuple(e[(t - 1 - i) % n] for i in range(n)))


def is_sigma_symmetric(geom: TpqGeometry, seq: SSeq) -> bool:
    """True when the reflected sequence is a rotation of the original."""
    reflected = apply_sigma(geom, seq).entries
    e = seq.entries
    return any(reflected == e[cut:] + e[:cut] for cut in range(0, len(e), seq.s))


def _splits(geom: TpqGeometry, seq: SSeq, lam: Fraction) -> bool:
    # The one split rule: sigma-fixed data at lam = +-1 descend to two
    # branch modules; everything else to one single module.
    return lam in (1, -1) and is_sigma_symmetric(geom, seq)


def _flip(geom: TpqGeometry, seq: SSeq, lam: Fraction) -> tuple[SSeq, Fraction]:
    # The one flip rule: (d, lam) -> (sigma d in canonical form, 1/lam).
    return canonical_form(apply_sigma(geom, seq)), 1 / lam


def sigma_of_module(geom: TpqGeometry, triple: BundleTriple) -> BundleTriple:
    """Image of a module label under the involution: (sigma d, m, 1/lam).

    The reflected sequence is returned in canonical form.  Applying this
    twice gives back a triple shift-equivalent to the input.
    """
    _geometry(geom, TpqGeometry)
    _exists(triple, geom.cusp)
    seq, lam = _flip(geom, triple.seq, triple.lam)
    return BundleTriple(seq, triple.m, lam)


class TpqKind(Enum):
    FREE = "free"
    SINGLE = "single"
    SPLIT = "split"


@_frozen
class TpqFree:
    """The free module A' over the curve T_pq."""

    geometry: TpqGeometry
    kind: ClassVar[TpqKind] = TpqKind.FREE

    def __post_init__(self) -> None:
        _geometry(self.geometry, TpqGeometry)

    def __str__(self) -> str:
        return "A'"


@_frozen
class TpqSingle:
    """The module N(seq, m, lam) below surface data that is not sigma-fixed.

    No rank is attached: ranks downstairs are not determined by the label.
    """

    geometry: TpqGeometry
    seq: SSeq
    m: int
    lam: Fraction
    kind: ClassVar[TpqKind] = TpqKind.SINGLE

    def __post_init__(self) -> None:
        _geometry(self.geometry, TpqGeometry)
        triple = BundleTriple(self.seq, self.m, self.lam)
        t = _canonical_triple(triple, self.geometry.cusp)
        if _splits(self.geometry, t.seq, t.lam):
            raise ValueError(f"{t.seq} with lam={t.lam} splits; use branch labels")
        object.__setattr__(self, "seq", t.seq)
        object.__setattr__(self, "lam", t.lam)

    def __str__(self) -> str:
        return f"N({self.seq},{self.m},{self.lam})"


@_frozen
class TpqBranch:
    """Branch module N_branch(seq, m, sign), branch 1 or 2, of the pair that
    sigma-symmetric seq with lam = sign in {+1, -1} splits into."""

    geometry: TpqGeometry
    seq: SSeq
    m: int
    sign: int
    branch: int
    kind: ClassVar[TpqKind] = TpqKind.SPLIT

    def __post_init__(self) -> None:
        _geometry(self.geometry, TpqGeometry)
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if type(self.branch) is not int or self.branch not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {self.branch!r}")
        triple = BundleTriple(self.seq, self.m, self.sign)
        seq = _canonical_triple(triple, self.geometry.cusp).seq
        if not is_sigma_symmetric(self.geometry, seq):
            raise ValueError(f"{seq} is not sigma-symmetric; nothing splits")
        object.__setattr__(self, "seq", seq)

    def __str__(self) -> str:
        return f"N{self.branch}({self.seq},{self.m},{self.sign})"


# Label of an indecomposable CM module over the curve T_pq.
TpqModuleLabel = TpqFree | TpqSingle | TpqBranch


def descend(geom: TpqGeometry, label: CMModuleLabel) -> list[TpqModuleLabel]:
    """CM modules over the curve that a surface module descends to.

    The free module descends to the free module.  A triple whose sequence
    is sigma-symmetric and whose lam is +1 or -1 splits into the two branch
    modules; every other triple descends to one single module.
    """
    _geometry(geom, TpqGeometry)
    if label.geometry != geom.cusp:
        raise ValueError("label belongs to a different geometry")
    if label.is_free:
        return [TpqFree(geom)]
    # The label is checked by construction, so its curve labels are too.
    t = label.triple
    if _splits(geom, t.seq, t.lam):
        sign = int(t.lam)
        return [TpqBranch._trusted(geom, t.seq, t.m, sign, b) for b in (1, 2)]
    return [TpqSingle._trusted(geom, t.seq, t.m, t.lam)]


def tpq_iso(geom: TpqGeometry, a: TpqModuleLabel, b: TpqModuleLabel) -> bool:
    """Whether two curve labels name isomorphic modules.

    Free and branch labels are rigid; single labels are identified under
    the flip N(d, m, lam) = N(sigma d, m, 1/lam).
    """
    if a.geometry != geom or b.geometry != geom:
        raise ValueError("labels belong to a different geometry")
    if a == b:
        return True
    if not (isinstance(a, TpqSingle) and isinstance(b, TpqSingle)):
        return False
    # b flipped, compared field by field: b is checked, and so is its flip.
    seq, lam = _flip(geom, b.seq, b.lam)
    return (a.seq, a.m, a.lam) == (seq, b.m, lam)
