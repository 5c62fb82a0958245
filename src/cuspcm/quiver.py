"""Auslander-Reiten quivers over the cusp and their curve-side counterparts.

Every tube is the mesh ZA_infinity / tau^p, laid out by one writer: level m
holds one node per branch, and tau moves each branch to the next.  Over the
cusp every non-free indecomposable M(d, m, lam) is fixed by the translation,
so the tubes, indexed by (d, lam), are homogeneous (p = 1).  Over the curve
T_pq, sigma-fixed data at lam = +-1 split into two branches (p = 2).  The
tube over (B, 1) is special: the free module is glued to its bottom level.

Quivers are plain node/arrow/tube containers with a deterministic
construction order, exportable as DOT or as JSON-ready dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import _EXPORTS
from .cohomology import BundleTriple, CuspGeometry, _geometry, _scalar, _scalars
from .cusp import (
    CMModuleLabel,
    LambdaBase,
    _special,
    _tube_level,
    classify_label,
    enumerate_rank,
    free_label,
)
from .sequences import SSeq, _count, _frozen, canonical_form
from .tpq import TpqFree, TpqGeometry, _flip, _splits

__all__ = _EXPORTS["quiver"]


@_frozen
class QuiverNode:
    """One module in a quiver: its id, its kind and its rank where defined."""

    id: str
    kind: str
    rank: int | None = None


@_frozen
class QuiverArrow:
    """An irreducible map between two nodes, by node id."""

    src: str
    dst: str


@_frozen
class Tube:
    """One AR tube: its id, its period and its member node ids in order."""

    id: str
    period: int
    members: tuple[str, ...]


@_frozen
class ARQuiver:
    """Nodes, arrows, tubes and the AR translation on node ids.

    The free module is not in the domain of the translation; every other
    node is.
    """

    nodes: tuple[QuiverNode, ...]
    arrows: tuple[QuiverArrow, ...]
    tubes: tuple[Tube, ...]
    translate: dict[str, str]


@_frozen
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
    elif _special(geom, t.seq, t.lam):
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
    levels = [[QuiverNode(str(lab), "module", lab.rank)] for lab in labels]
    base = bottom.triple.seq  # canonical
    free = None
    if _special(geom, base, lam):
        a = free_label(geom)
        free = QuiverNode(str(a), "free", a.rank)
    return _tube(f"T({base},{lam})", levels, free)


def _tube(
    tube_id: str, levels: Sequence[Sequence[QuiverNode]], free: QuiverNode | None = None
) -> ARQuiver:
    # Between consecutive levels: the raising arrows along every branch, then
    # the lowering arrows into tau's branch.  A free node goes first, glued
    # between branch 1 and its tau-image at the bottom, outside tau's domain.
    p = len(levels[0])
    nodes = [node for level in levels for node in level]
    ids = [node.id for node in nodes]
    tau = ids[:]
    arrows: list = [None] * (2 * len(ids) - 2 * p)
    for i in range(p):
        # Pair j of levels holds arrows 2pj..2pj+2p-1: branch i is raised at
        # 2pj+i and lowered at 2pj+p+i.
        tau[i::p] = ids[(i + 1) % p::p]
        arrows[i::2 * p] = map(QuiverArrow, ids[i::p], ids[p + i::p])
        arrows[p + i::2 * p] = map(QuiverArrow, ids[p + i::p], tau[i::p])
    members = ids
    if free is not None:
        nodes.insert(0, free)
        members = [free.id, *ids]
        arrows[:0] = (QuiverArrow(free.id, ids[0]), QuiverArrow(tau[0], free.id))
    tube = Tube(tube_id, p, tuple(members))
    return ARQuiver(tuple(nodes), tuple(arrows), (tube,), dict(zip(ids, tau)))


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
    lams = sorted(set(_scalars(lambdas)))
    points: list[tuple[SSeq, Fraction]] = []
    for rank in range(1, max_base_rank + 1):
        for fam in enumerate_rank(geom, rank).families:
            if fam.m != 1:
                continue
            for lam in lams:
                if lam == 1 and fam.base is LambdaBase.NONZERO_EXCEPT_ONE:
                    # No module over the zero sequence; M(B, 1, 1) is one
                    # rank above its family, kept if that still fits.
                    if not _special(geom, fam.seq, lam) or rank + 1 > max_base_rank:
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
        ValueError: for a max_base_rank or depth not an int >= 1, lam = 0, or
            lambdas given as a str.
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
    # label at that level would be, from the sequence's text made once;
    # str(lam) of a split base is its sign.
    text = str(seq)
    ms = range(1, depth + 1)
    if not _splits(geom, seq, lam):
        levels = [(QuiverNode(f"N({text},{m},{lam})", "single"),) for m in ms]
        return _tube(f"T({text},{lam})", levels)
    levels = [(QuiverNode(f"N1({text},{m},{lam})", "split"),
               QuiverNode(f"N2({text},{m},{lam})", "split")) for m in ms]
    special = _special(geom.cusp, seq, lam)
    free = QuiverNode(str(TpqFree(geom)), "free") if special else None
    return _tube(f"T({text},{lam})", levels, free)


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
        ValueError: for a geometry that is not a TpqGeometry, a depth or
            max_base_rank not an int >= 1, not exactly one of max_base_rank
            and bases, lam = 0, lambdas given as a str, or a base that
            classify_label rejects (KahnViolation: no module).
    """
    _geometry(geom, TpqGeometry)
    _count("depth", depth)
    if (bases is None) == (max_base_rank is None):
        raise ValueError("give exactly one of max_base_rank or bases")
    if bases is None:
        points = _base_points(geom.cusp, max_base_rank, lambdas)
    else:
        points = []
        for seq, lam in bases:
            # Checked first; a rejection names the canonical rotation.
            t = BundleTriple(seq, 1, lam)
            canon = BundleTriple._trusted(canonical_form(seq), 1, t.lam)
            base = classify_label(canon, geom.cusp)
            points.append((base.triple.seq, base.triple.lam))
    seen: set[tuple[tuple[int, ...], Fraction]] = set()
    quivers: list[ARQuiver] = []
    for seq, lam in points:
        flip_seq, flip_lam = _flip(geom, seq, lam)
        key = (seq.entries, lam)
        if key in seen or (flip_seq.entries, flip_lam) in seen:
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
