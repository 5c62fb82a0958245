"""Auslander-Reiten quivers over the cusp and their curve-side counterparts.

Over the cusp every non-free indecomposable M(d, m, lam) is fixed by the
AR translation, so the quiver falls apart into homogeneous tubes indexed
by (d, lam): levels m = 1, 2, ... joined by one irreducible map each way.
The tube over (B, 1) is special: the free module A is glued to its bottom
level.  Over the curve T_pq the descended tubes look the same except over
sigma-fixed data, where the tube has period two: two branches swapped by
the translation, with level-raising arrows along each branch and
level-lowering arrows crossing between them; the special tube glues the
free module between the two bottom levels.

Quivers are plain node/arrow/tube containers with a deterministic
construction order, exportable as DOT or as JSON-ready dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _EXPORTS
from .cohomology import BundleTriple, CuspGeometry, _scalar
from .cusp import (
    CMModuleLabel,
    LambdaBase,
    _tube_level,
    classify_label,
    enumerate_rank,
    free_label,
)
from .sequences import SSeq, _count, canonical_form
from .tpq import TpqFree, TpqGeometry, apply_sigma, is_sigma_symmetric

__all__ = _EXPORTS["quiver"]


@dataclass(frozen=True)
class QuiverNode:
    id: str
    kind: str
    rank: int | None = None


@dataclass(frozen=True)
class QuiverArrow:
    src: str
    dst: str


@dataclass(frozen=True)
class Tube:
    id: str
    period: int
    members: tuple[str, ...]


@dataclass(frozen=True, eq=True)
class ARQuiver:
    """Nodes, arrows, tubes and the AR translation on node ids.

    The free module is not in the domain of the translation; every other
    node is.
    """

    nodes: tuple[QuiverNode, ...]
    arrows: tuple[QuiverArrow, ...]
    tubes: tuple[Tube, ...]
    translate: dict[str, str]


@dataclass(frozen=True)
class ARSequence:
    """An almost split sequence 0 -> left -> sum(middle) -> right -> 0."""

    left: CMModuleLabel
    middle: tuple[CMModuleLabel, ...]
    right: CMModuleLabel


def ar_sequence(geom: CuspGeometry, label: CMModuleLabel) -> ARSequence:
    """The almost split sequence starting (and ending) at the label.

    The translation fixes every non-free module, so left = right.  Middle
    terms: the levels m+1 and m-1 of the same tube, the m-1 term dropped at
    the bottom level, and with the free module joining M(B, 2, 1) for the
    bottom of the special tube.

    The label is taken as classify_label built it, already checked.  The
    middle terms are derived from it, not classified again: they keep its
    canonical sequence and lam, and the rank is affine in m along the tube,
    m*(r + c) + [seq = B and lam = 1].

    Raises:
        ValueError: for the free module, which admits no such sequence.
    """
    if label.geometry != geom:
        raise ValueError("label belongs to a different geometry")
    if label.is_free:
        raise ValueError("the free module is not the end of an almost split sequence")
    t = label.triple
    if t.m > 1:
        middle: tuple[CMModuleLabel, ...] = (
            _tube_level(label, t.m + 1), _tube_level(label, t.m - 1),
        )
    elif t.seq.entries == geom.b and t.lam == 1:
        middle = (free_label(geom), _tube_level(label, 2))
    else:
        middle = (_tube_level(label, 2),)
    return ARSequence(left=label, middle=middle, right=label)


def build_tube(
    geom: CuspGeometry, seq: SSeq, lam: Fraction | int | str, depth: int
) -> ARQuiver:
    """The tube over one parameter point: M(seq, m, lam) for m = 1..depth.

    Consecutive levels are joined by one arrow each way.  Over (B, 1) the
    free module is glued to the bottom level and listed as a member of the
    tube; it is excluded from the translation.

    Only the bottom level is classified.  Levels 2..depth are derived from
    that checked label: the rank is affine in m along the tube,
    m*(r + c) + [seq = B and lam = 1].

    Raises:
        ValueError: for a depth that is not an int >= 1, lam = 0, or a base
            point that classify_label rejects (KahnViolation: no module).
    """
    _count("depth", depth)
    lam = _scalar(lam)
    bottom = classify_label(BundleTriple(seq, 1, lam), geom)
    labels = [bottom] + [_tube_level(bottom, m) for m in range(2, depth + 1)]
    nodes = [QuiverNode(id=str(lab), kind="module", rank=lab.rank) for lab in labels]
    if labels[0].triple.seq == geom.b_sequence and lam == 1:
        a = free_label(geom)
        nodes.insert(0, QuiverNode(id=str(a), kind="free", rank=a.rank))
    return _period_one_tube(f"T({labels[0].triple.seq},{lam})", nodes)


def _period_one_tube(tube_id: str, nodes: list[QuiverNode]) -> ARQuiver:
    # The nodes in order, consecutive ones joined by one arrow each way; the
    # translation fixes every node but a free one glued below the bottom.
    ids = [node.id for node in nodes]
    arrows: list[QuiverArrow] = []
    for low, high in zip(ids, ids[1:]):
        arrows += (QuiverArrow(src=low, dst=high), QuiverArrow(src=high, dst=low))
    return ARQuiver(
        nodes=tuple(nodes),
        arrows=tuple(arrows),
        tubes=(Tube(id=tube_id, period=1, members=tuple(ids)),),
        translate={node.id: node.id for node in nodes if node.kind != "free"},
    )


def _merge(quivers: Iterable[ARQuiver]) -> ARQuiver:
    nodes: list[QuiverNode] = []
    arrows: list[QuiverArrow] = []
    tubes: list[Tube] = []
    translate: dict[str, str] = {}
    for q in quivers:
        nodes.extend(q.nodes)
        arrows.extend(q.arrows)
        tubes.extend(q.tubes)
        translate.update(q.translate)
    return ARQuiver(
        nodes=tuple(nodes), arrows=tuple(arrows), tubes=tuple(tubes),
        translate=translate,
    )


def _base_points(
    geom: CuspGeometry, max_base_rank: int, lambdas: Sequence[Fraction | int | str]
) -> list[tuple[SSeq, Fraction]]:
    # Tube bases (seq, lam) whose bottom module has rank <= max_base_rank,
    # in (family rank, sequence length, sequence, lam) order.
    _count("max_base_rank", max_base_rank)
    lams = sorted(set(map(_scalar, lambdas)))
    points: list[tuple[SSeq, Fraction]] = []
    for rank in range(1, max_base_rank + 1):
        for fam in enumerate_rank(geom, rank).families:
            if fam.m != 1:
                continue
            for lam in lams:
                if lam == 1 and fam.base is LambdaBase.NONZERO_EXCEPT_ONE:
                    # Either no module at lam = 1 (zero sequence) or the
                    # special base M(B, 1, 1); keep the latter if its rank
                    # still fits.
                    if fam.seq != geom.b_sequence:
                        continue
                    if rank + 1 > max_base_rank:
                        continue
                points.append((fam.seq, lam))
    return points


def cusp_quiver(
    geom: CuspGeometry,
    max_base_rank: int,
    depth: int,
    lambdas: Sequence[Fraction | int | str] = (1, 2),
) -> ARQuiver:
    """Assemble the tubes whose bottom module has rank <= max_base_rank.

    Tubes are indexed by (seq, lam) with lam drawn from the given sample
    values; parameter points where no module exists are skipped.  The
    result order is deterministic: by family rank, then sequence, then lam.

    Raises:
        ValueError: for a max_base_rank or depth not an int >= 1, or lam = 0.
    """
    points = _base_points(geom, max_base_rank, lambdas)
    _count("depth", depth)  # also when no base survives and no tube is built
    return _merge(build_tube(geom, seq, lam, depth) for seq, lam in points)


def _tpq_tube(
    geom: TpqGeometry, seq: SSeq, lam: Fraction, depth: int
) -> ARQuiver:
    # One curve-side tube over the sigma-orbit of (seq, lam).  Both callers
    # pass a checked base: seq canonical, a module at m = 1, lam a Fraction.
    # Every level's node id is formatted from it as str() of the curve
    # label at that level would be, from the sequence's text made once.
    text = str(seq)
    if not (lam in (1, -1) and is_sigma_symmetric(geom, seq)):
        nodes = [
            QuiverNode(id=f"N({text},{m},{lam})", kind="single")
            for m in range(1, depth + 1)
        ]
        return _period_one_tube(f"T({text},{lam})", nodes)

    sign = 1 if lam == 1 else -1
    special = seq.entries == geom.cusp.b and sign == 1

    def branch_id(branch: int, m: int) -> str:
        return f"N{branch}({text},{m},{sign})"

    nodes = []
    members: list[str] = []
    arrows: list[QuiverArrow] = []
    translate: dict[str, str] = {}
    free_id = str(TpqFree(geom))
    if special:
        nodes.append(QuiverNode(id=free_id, kind="free"))
        members.append(free_id)
    for m in range(1, depth + 1):
        for branch in (1, 2):
            nid = branch_id(branch, m)
            nodes.append(QuiverNode(id=nid, kind="split"))
            members.append(nid)
            translate[nid] = branch_id(3 - branch, m)
    if special:
        # The free module sits in the sequence starting from branch 2.
        arrows.append(QuiverArrow(src=free_id, dst=branch_id(1, 1)))
        arrows.append(QuiverArrow(src=branch_id(2, 1), dst=free_id))
    for m in range(1, depth):
        arrows.append(QuiverArrow(src=branch_id(1, m), dst=branch_id(1, m + 1)))
        arrows.append(QuiverArrow(src=branch_id(2, m), dst=branch_id(2, m + 1)))
        arrows.append(QuiverArrow(src=branch_id(1, m + 1), dst=branch_id(2, m)))
        arrows.append(QuiverArrow(src=branch_id(2, m + 1), dst=branch_id(1, m)))
    tube = Tube(id=f"T({text},{sign})", period=2, members=tuple(members))
    return ARQuiver(
        nodes=tuple(nodes), arrows=tuple(arrows), tubes=(tube,),
        translate=translate,
    )


def tpq_quiver(
    geom: TpqGeometry,
    depth: int,
    max_base_rank: int | None = None,
    lambdas: Sequence[Fraction | int | str] = (1, 2),
    bases: Sequence[tuple[SSeq, Fraction | int | str]] | None = None,
) -> ARQuiver:
    """Curve-side AR quiver assembled from descended tubes.

    Bases are either explicit (seq, lam) pairs or, given max_base_rank, the
    cusp tube bases of that rank bound at the sampled lam values.  Bases in
    one sigma-orbit give the same tube downstairs, so each orbit is built
    once, from its first representative in order.

    Raises:
        ValueError: for a depth or max_base_rank not an int >= 1, not exactly
            one of max_base_rank and bases, lam = 0, or a base that
            classify_label rejects (KahnViolation: no module).
    """
    _count("depth", depth)
    if (bases is None) == (max_base_rank is None):
        raise ValueError("give exactly one of max_base_rank or bases")
    if bases is None:
        points = _base_points(geom.cusp, max_base_rank, lambdas)
    else:
        points = []
        for seq, lam in bases:
            # Validate the base point through the cusp classification.
            base = classify_label(BundleTriple(canonical_form(seq), 1, lam), geom.cusp)
            points.append((base.triple.seq, base.triple.lam))
    seen: set[tuple[tuple[int, ...], Fraction]] = set()
    quivers: list[ARQuiver] = []
    for seq, lam in points:
        flip = (canonical_form(apply_sigma(geom, seq)).entries, 1 / lam)
        key = (seq.entries, lam)
        if key in seen or flip in seen:
            continue
        seen.add(key)
        quivers.append(_tpq_tube(geom, seq, lam, depth))
    return _merge(quivers)


def export_dot(quiver: ARQuiver) -> str:
    """Render as a DOT digraph, one cluster per tube, byte-deterministic.

    Node labels carry the rank when one is defined.
    """
    by_id = {node.id: node for node in quiver.nodes}
    lines = ["digraph ar_quiver {", "  rankdir=BT;"]
    placed: set[str] = set()
    for index, tube in enumerate(quiver.tubes):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{tube.id} period {tube.period}";')
        for nid in tube.members:
            node = by_id[nid]
            text = nid if node.rank is None else f"{nid}\\nrank {node.rank}"
            lines.append(f'    "{nid}" [label="{text}"];')
            placed.add(nid)
        lines.append("  }")
    for node in quiver.nodes:
        if node.id not in placed:
            text = node.id if node.rank is None else f"{node.id}\\nrank {node.rank}"
            lines.append(f'  "{node.id}" [label="{text}"];')
    for arrow in quiver.arrows:
        lines.append(f'  "{arrow.src}" -> "{arrow.dst}";')
    lines += ("}", "")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)


def quiver_to_dict(quiver: ARQuiver) -> dict:
    """JSON-ready dictionary with nodes, arrows, tubes and the translation."""
    nodes = []
    for node in quiver.nodes:
        item: dict = {"id": node.id, "kind": node.kind}
        if node.rank is not None:
            item["rank"] = node.rank
        nodes.append(item)
    # Every arrow is simple; the JSON format keeps its multiplicity key.
    return {
        "nodes": nodes,
        "arrows": [
            {"src": a.src, "dst": a.dst, "mult": 1} for a in quiver.arrows
        ],
        "tubes": [
            {"id": t.id, "period": t.period, "members": list(t.members)}
            for t in quiver.tubes
        ],
        "translate": [
            {"from": src, "to": dst} for src, dst in quiver.translate.items()
        ],
    }
