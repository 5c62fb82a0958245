"""AR quiver assembly: almost split sequences, tubes, DOT/JSON export."""

import re
from fractions import Fraction

import pytest

from cuspcm import (
    ARQuiver,
    BundleTriple,
    CMModuleLabel,
    CuspGeometry,
    KahnViolation,
    QuiverArrow,
    QuiverNode,
    SSeq,
    TpqBranch,
    TpqFree,
    TpqSingle,
    Tube,
    ar_sequence,
    build_tube,
    classify_label,
    cusp_quiver,
    descend,
    enumerate_rank,
    export_dot,
    free_label,
    geometry_of,
    quiver_to_dict,
    tpq_quiver,
)
from test_cohomology import TUBE_GEOMETRIES, TUBE_LAMBDAS

B1 = CuspGeometry(1, [1])
G38 = geometry_of(3, 8)


def label(entries, m, lam, geom=B1):
    return classify_label(
        BundleTriple(SSeq(geom.s, entries), m, Fraction(lam)), geom
    )


def arrow_pairs(quiver):
    return {(a.src, a.dst) for a in quiver.arrows}


def tube_base(tube_id, s):
    # The (seq, lam) a tube id T(seq,lam) names, on a cycle of length s.
    entries, lam = re.fullmatch(r"T\(\[(.*)\],(.*)\)", tube_id).groups()
    return SSeq(s, tuple(int(v) for v in entries.split(","))), Fraction(lam)


# ------------------------------------------------------------ sequences


def test_ar_sequence_bottom_level():
    seq = ar_sequence(B1, label((2,), 1, 3))
    assert seq.left == seq.right == label((2,), 1, 3)
    assert [str(x) for x in seq.middle] == ["M([2],2,3)"]


def test_ar_sequence_special_bottom():
    seq = ar_sequence(B1, label((1,), 1, 1))
    assert [str(x) for x in seq.middle] == ["A", "M([1],2,1)"]


def test_ar_sequence_inner_level():
    seq = ar_sequence(B1, label((2,), 3, 3))
    assert [str(x) for x in seq.middle] == ["M([2],4,3)", "M([2],2,3)"]


def test_ar_sequence_rejects_free():
    with pytest.raises(ValueError):
        ar_sequence(B1, free_label(B1))


def test_ar_sequence_rejects_other_geometry():
    with pytest.raises(ValueError, match="^label belongs to a different geometry$"):
        ar_sequence(CuspGeometry(1, (2,)), label((2,), 1, 3))


def test_ar_sequence_rank_additive():
    for entries, m, lam in [((2,), 1, 3), ((2,), 3, 3), ((1,), 1, 1), ((0, 1), 2, 5)]:
        left = label(entries, m, lam)
        seq = ar_sequence(B1, left)
        assert sum(x.rank for x in seq.middle) == 2 * left.rank


# ----------------------------------------------------------- cusp tubes


def test_build_tube_ranks_along_levels():
    tube = build_tube(B1, SSeq(1, (2,)), 3, depth=3)
    assert [n.rank for n in tube.nodes] == [2, 4, 6]
    assert tube.tubes[0].period == 1
    assert all(tube.translate[n.id] == n.id for n in tube.nodes)


def test_build_tube_special_contains_free():
    tube = build_tube(B1, SSeq(1, (1,)), 1, depth=2)
    assert [n.id for n in tube.nodes] == ["A", "M([1],1,1)", "M([1],2,1)"]
    assert [n.rank for n in tube.nodes] == [1, 2, 3]
    assert ("A", "M([1],1,1)") in arrow_pairs(tube)
    assert ("M([1],1,1)", "A") in arrow_pairs(tube)
    assert "A" not in tube.translate


def test_build_tube_kahn_violation():
    with pytest.raises(KahnViolation):
        build_tube(B1, SSeq(1, (0,)), 1, depth=1)
    with pytest.raises(ValueError):
        build_tube(B1, SSeq(1, (2,)), 3, depth=0)


@pytest.mark.parametrize("lambdas", [(), (1,)])  # no tube base survives
@pytest.mark.parametrize("depth", [0, -5, True, 2.0])
def test_cusp_quiver_checks_depth_without_a_tube(depth, lambdas):
    with pytest.raises(ValueError, match="^depth must be"):
        cusp_quiver(CuspGeometry(1, (1,)), 1, depth, lambdas=lambdas)


def test_cusp_quiver_partitions_nodes():
    quiver = cusp_quiver(B1, max_base_rank=2, depth=3)
    seen = {}
    for tube in quiver.tubes:
        for member in tube.members:
            assert member not in seen
            seen[member] = tube.id
    assert set(seen) == {n.id for n in quiver.nodes}
    # One special tube only; the free module lives there.
    assert sum(1 for t in quiver.tubes if "A" in t.members) == 1


@pytest.mark.parametrize("b", TUBE_GEOMETRIES)
def test_derived_levels_match_the_per_level_path(b):
    # ar_sequence and build_tube derive levels from one checked label; the
    # reference classifies every level on its own.
    geom = CuspGeometry(len(b), b)
    bases = [
        fam.seq
        for rank in range(1, 5)
        for fam in enumerate_rank(geom, rank).families
        if fam.m == 1
    ]
    assert geom.b_sequence in bases
    special = 0
    for seq in bases:
        for lam in TUBE_LAMBDAS:
            if lam == 1 and not any(seq.entries):
                continue  # no module over the zero sequence at lam = 1
            ref = [
                classify_label(BundleTriple(seq, m, lam), geom) for m in range(1, 7)
            ]
            tube = build_tube(geom, seq, lam, 5)
            modules = [n for n in tube.nodes if n.kind == "module"]
            assert [(n.id, n.rank) for n in modules] == [
                (str(x), x.rank) for x in ref[:5]
            ]
            for m in range(1, 6):
                if m > 1:
                    expected = (ref[m], ref[m - 2])
                elif seq == geom.b_sequence and lam == 1:
                    expected = (free_label(geom), ref[1])
                    special += 1
                else:
                    expected = (ref[1],)
                assert ar_sequence(geom, ref[m - 1]).middle == expected
    assert special == 1


# The criterion-05 geometries, each the double cover of a T_pq, with the
# scalars swept.  As in criterion 05 the largest, b = (1, 1, 0) with 4,041
# tube bases of rank <= 4, is swept at one generic scalar.
CRITERION_05_TPQ = [
    pytest.param((p, q), lams, id=f"T{p},{q}")
    for (p, q), lams in [((3, 7), TUBE_LAMBDAS), ((4, 5), TUBE_LAMBDAS),
                         ((3, 8), TUBE_LAMBDAS), ((5, 6), [Fraction(2)])]
]


@pytest.mark.parametrize("pq", [(3, 7), (4, 5), (3, 8), (5, 6)])
def test_the_special_tube_is_built_once_its_bottom_fits(pq):
    # Both quivers take the (B, 1) tube exactly when max_base_rank reaches
    # the rank of M(B, 1, 1), one above the rest of its family.
    tpq = geometry_of(*pq)
    b = tpq.cusp.b_sequence
    bottom = classify_label(BundleTriple(b, 1, 1), tpq.cusp).rank
    special = f"T({b},1)"
    for rank in range(1, bottom + 2):
        for quiver in (cusp_quiver(tpq.cusp, rank, 1, lambdas=(1, 2)),
                       tpq_quiver(tpq, 1, max_base_rank=rank, lambdas=(1, 2))):
            assert (special in {t.id for t in quiver.tubes}) is (rank >= bottom)


def checked_copy(lab):
    # The label rebuilt through the public, checking constructor.
    if isinstance(lab, CMModuleLabel):
        return CMModuleLabel(lab.geometry, lab.triple, lab.rank)
    if isinstance(lab, TpqSingle):
        return TpqSingle(lab.geometry, lab.seq, lab.m, lab.lam)
    if isinstance(lab, TpqBranch):
        return TpqBranch(lab.geometry, lab.seq, lab.m, lab.sign, lab.branch)
    return TpqFree(lab.geometry)


@pytest.mark.parametrize("pq,lams", CRITERION_05_TPQ)
def test_trusted_labels_equal_their_checked_rebuilds(pq, lams):
    # Labels built past the check (classify_label, free_label, the tube
    # levels, descend) equal what the checking constructors build.
    tpq = geometry_of(*pq)
    geom = tpq.cusp
    labels = {free_label(geom)}
    bases = []
    for rank in range(1, 5):
        piece = enumerate_rank(geom, rank)
        labels.update(piece.exceptional)
        for fam in piece.families:
            # raises unless the family is canonical and of this rank
            CMModuleLabel(geom, BundleTriple(fam.seq, fam.m, 7), rank)
            if fam.m == 1:
                bases.append(fam.seq)
    for seq in bases:
        for lam in lams:
            if lam == 1 and not any(seq.entries):
                continue
            tube = build_tube(geom, seq, lam, 4)
            modules = [n for n in tube.nodes if n.kind == "module"]
            for m, node in enumerate(modules, 1):
                rebuilt = CMModuleLabel(geom, BundleTriple(seq, m, lam), node.rank)
                assert str(rebuilt) == node.id
            # Walk up the tube through the middle terms: level m + 1 is the
            # one of largest rank.
            lab = classify_label(BundleTriple(seq, 1, lam), geom)
            for _ in range(4):
                middle = ar_sequence(geom, lab).middle
                labels.update(middle)
                lab = max(middle, key=lambda x: x.rank)
            labels.add(lab)
    curve = {down for lab in labels for down in descend(tpq, lab)}
    assert {TpqFree, TpqSingle, TpqBranch} <= {type(lab) for lab in curve}
    for lab in [*labels, *curve]:
        copy = checked_copy(lab)
        assert copy == lab and str(copy) == str(lab)


# ------------------------------------------------------------ tpq tubes


def reference_tube_ids(geom, tube, depth):
    # Member ids and translation of one T_pq tube, from a label built per
    # level; the base is read back from the tube id.
    seq, lam = tube_base(tube.id, geom.cusp.s)
    if tube.period == 1:
        ids = [str(TpqSingle(geom, seq, m, lam)) for m in range(1, depth + 1)]
        return ids, {i: i for i in ids}
    ids, translate = [], {}
    if seq == geom.cusp.b_sequence and lam == 1:
        ids.append(str(TpqFree(geom)))
    for m in range(1, depth + 1):
        one, two = (str(TpqBranch(geom, seq, m, int(lam), br)) for br in (1, 2))
        ids += (one, two)
        translate.update({one: two, two: one})
    return ids, translate


@pytest.mark.parametrize("p,q", [(3, 8), (4, 6), (5, 6)])
def test_tpq_tube_ids_are_the_label_strings(p, q):
    geom = geometry_of(p, q)
    quiver = tpq_quiver(geom, depth=5, max_base_rank=4)
    ids, translate = [], {}
    for tube in quiver.tubes:
        members, moves = reference_tube_ids(geom, tube, 5)
        assert list(tube.members) == members
        ids += members
        translate.update(moves)
    assert [n.id for n in quiver.nodes] == ids
    assert quiver.translate == translate
    assert {a.src for a in quiver.arrows} | {a.dst for a in quiver.arrows} <= set(ids)
    assert any(t.period == 2 for t in quiver.tubes)


@pytest.mark.parametrize("p,q", [(3, 8), (4, 6), (5, 6)])
def test_tpq_tube_formats_its_base_once(p, q, monkeypatch):
    # Every id of a tube is made from one text of its base sequence.
    calls = []
    real = SSeq.__str__

    def counted(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(SSeq, "__str__", counted)
    quiver = tpq_quiver(geometry_of(p, q), depth=5, max_base_rank=4)
    assert len(calls) == len(quiver.tubes)


def test_tpq_single_tube_shape():
    quiver = tpq_quiver(G38, depth=2, bases=[(SSeq(2, (1, 2)), 3)])
    assert [n.id for n in quiver.nodes] == ["N([1,2],1,3)", "N([1,2],2,3)"]
    assert quiver.tubes[0].period == 1
    assert arrow_pairs(quiver) == {
        ("N([1,2],1,3)", "N([1,2],2,3)"),
        ("N([1,2],2,3)", "N([1,2],1,3)"),
    }


def test_tpq_split_tube_mesh():
    quiver = tpq_quiver(G38, depth=3, bases=[(SSeq(2, (1, 0)), -1)])
    pairs = arrow_pairs(quiver)
    assert quiver.tubes[0].period == 2
    # Raise along each branch, lower across branches.
    assert ("N1([1,0],1,-1)", "N1([1,0],2,-1)") in pairs
    assert ("N2([1,0],1,-1)", "N2([1,0],2,-1)") in pairs
    assert ("N1([1,0],2,-1)", "N2([1,0],1,-1)") in pairs
    assert ("N2([1,0],2,-1)", "N1([1,0],1,-1)") in pairs
    assert ("N1([1,0],1,-1)", "N2([1,0],2,-1)") not in pairs
    # Translation swaps the branches at every level.
    assert quiver.translate["N1([1,0],1,-1)"] == "N2([1,0],1,-1)"
    assert quiver.translate["N2([1,0],3,-1)"] == "N1([1,0],3,-1)"


def test_tpq_special_tube_attaches_free():
    quiver = tpq_quiver(G38, depth=2, bases=[(SSeq(2, (1, 0)), 1)])
    pairs = arrow_pairs(quiver)
    assert ("N2([1,0],1,1)", "A'") in pairs
    assert ("A'", "N1([1,0],1,1)") in pairs
    assert ("A'", "N2([1,0],1,1)") not in pairs
    assert "A'" in quiver.tubes[0].members
    assert "A'" not in quiver.translate


def test_tpq_quiver_merges_sigma_orbits():
    # (d, lam) and (sigma d, 1/lam) name the same tube downstairs.
    twice = tpq_quiver(
        G38, depth=2,
        bases=[(SSeq(2, (1, 2, 3, 4)), 5), (SSeq(2, (1, 4, 3, 2)), Fraction(1, 5))],
    )
    once = tpq_quiver(G38, depth=2, bases=[(SSeq(2, (1, 2, 3, 4)), 5)])
    assert twice == once


@pytest.mark.parametrize("p,q", [(3, 8), (5, 5)])
def test_tpq_single_tubes_match_cusp_tubes(p, q):
    # A period-1 tube downstairs is the cusp tube over its base, level for
    # level: the same arrows and the same (identity) translation.
    geom = geometry_of(p, q)
    quiver = tpq_quiver(geom, depth=4, max_base_rank=3)
    singles = [t for t in quiver.tubes if t.period == 1]
    assert singles
    for tube in singles:
        seq, lam = tube_base(tube.id, geom.cusp.s)
        cusp = build_tube(geom.cusp, seq, lam, depth=4)
        assert cusp.tubes[0].id == tube.id
        assert len(cusp.tubes[0].members) == len(tube.members) == 4
        level = dict(zip(cusp.tubes[0].members, tube.members))
        members = set(tube.members)
        assert [(level[a.src], level[a.dst]) for a in cusp.arrows] == [
            (a.src, a.dst) for a in quiver.arrows if a.src in members
        ]
        assert {level[k]: level[v] for k, v in cusp.translate.items()} == {
            k: v for k, v in quiver.translate.items() if k in members
        }


def test_tpq_quiver_argument_check():
    with pytest.raises(ValueError):
        tpq_quiver(G38, depth=2)
    with pytest.raises(ValueError):
        tpq_quiver(G38, depth=2, max_base_rank=2, bases=[(SSeq(2, (1, 0)), 1)])


# ------------------------------------------------- reference tube layouts


def reference_period_one_tube(tube_id, nodes):
    # The two-builder layout the tube writer replaced, kept as the reference.
    # The nodes in order, consecutive ones joined by one arrow each way; the
    # translation fixes every node but a free one glued below the bottom.
    ids = [node.id for node in nodes]
    arrows = []
    for low, high in zip(ids, ids[1:]):
        arrows += (QuiverArrow(src=low, dst=high), QuiverArrow(src=high, dst=low))
    return ARQuiver(
        nodes=tuple(nodes),
        arrows=tuple(arrows),
        tubes=(Tube(id=tube_id, period=1, members=tuple(ids)),),
        translate={node.id: node.id for node in nodes if node.kind != "free"},
    )


def reference_period_two_tube(tube_id, nodes):
    # The period-2 mesh the tube writer replaced: an optional free node, then
    # branches 1 and 2 of each level.  Raise along each branch, lower across.
    free_id = nodes[0].id if nodes[0].kind == "free" else None
    split = nodes[1:] if free_id else nodes
    depth = len(split) // 2

    def branch_id(branch, m):
        return split[2 * (m - 1) + branch - 1].id

    members = [free_id] if free_id else []
    arrows = []
    translate = {}
    for m in range(1, depth + 1):
        for branch in (1, 2):
            nid = branch_id(branch, m)
            members.append(nid)
            translate[nid] = branch_id(3 - branch, m)
    if free_id:
        # The free module sits in the sequence starting from branch 2.
        arrows.append(QuiverArrow(src=free_id, dst=branch_id(1, 1)))
        arrows.append(QuiverArrow(src=branch_id(2, 1), dst=free_id))
    for m in range(1, depth):
        arrows.append(QuiverArrow(src=branch_id(1, m), dst=branch_id(1, m + 1)))
        arrows.append(QuiverArrow(src=branch_id(2, m), dst=branch_id(2, m + 1)))
        arrows.append(QuiverArrow(src=branch_id(1, m + 1), dst=branch_id(2, m)))
        arrows.append(QuiverArrow(src=branch_id(2, m + 1), dst=branch_id(1, m)))
    tube = Tube(id=tube_id, period=2, members=tuple(members))
    return ARQuiver(
        nodes=tuple(nodes), arrows=tuple(arrows), tubes=(tube,), translate=translate
    )


def reference_nodes(geom, tube_id, depth):
    # The nodes of one tube from labels classified per level.  geom is a
    # cusp geometry, or a T_pq geometry whose labels are the descended ones.
    cusp = getattr(geom, "cusp", geom)
    seq, lam = tube_base(tube_id, cusp.s)
    nodes = []
    for m in range(1, depth + 1):
        up = classify_label(BundleTriple(seq, m, lam), cusp)
        if cusp is geom:
            nodes.append(QuiverNode(str(up), "module", up.rank))
        else:
            nodes += [QuiverNode(str(x), x.kind.value) for x in descend(geom, up)]
    if seq == cusp.b_sequence and lam == 1:
        free = free_label(cusp) if cusp is geom else TpqFree(geom)
        nodes.insert(0, QuiverNode(str(free), "free", getattr(free, "rank", None)))
    return nodes


def reference_quiver(geom, quiver, depth):
    # Every tube of the quiver laid out again by the replaced builders, in
    # the quiver's tube order, and merged as the quivers are.
    refs = []
    for tube in quiver.tubes:
        nodes = reference_nodes(geom, tube.id, depth)
        splits = any(node.kind == "split" for node in nodes)
        build = reference_period_two_tube if splits else reference_period_one_tube
        refs.append(build(tube.id, nodes))
    translate = {}
    for ref in refs:
        translate.update(ref.translate)
    return ARQuiver(
        nodes=tuple(n for ref in refs for n in ref.nodes),
        arrows=tuple(a for ref in refs for a in ref.arrows),
        tubes=tuple(t for ref in refs for t in ref.tubes),
        translate=translate,
    )


REFERENCE_LAMBDAS = (1, -1, 2, Fraction(1, 2))
REFERENCE_QUIVERS = [
    pytest.param(
        lambda depth, b=b: cusp_quiver(
            CuspGeometry(len(b), b), 3, depth, lambdas=REFERENCE_LAMBDAS
        ),
        lambda b=b: CuspGeometry(len(b), b),
        id=f"cusp-b{''.join(map(str, b))}",
    )
    for b in [(1,), (2,), (1, 0), (1, 1, 0)]
] + [
    pytest.param(
        lambda depth, pq=pq: tpq_quiver(
            geometry_of(*pq), depth, max_base_rank=3, lambdas=REFERENCE_LAMBDAS
        ),
        lambda pq=pq: geometry_of(*pq),
        id=f"T{pq[0]},{pq[1]}",
    )
    for pq in [(3, 8), (4, 6), (5, 6), (5, 5)]
]


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("build,geometry", REFERENCE_QUIVERS)
def test_every_tube_matches_the_replaced_builders(build, geometry, depth):
    # One writer lays out both tube periods; the builders it replaced are
    # the reference for nodes, arrows in order, tubes and the translation.
    geom = geometry()
    quiver = build(depth)
    ref = reference_quiver(geom, quiver, depth)
    assert quiver.nodes == ref.nodes
    assert quiver.arrows == ref.arrows
    assert quiver.tubes == ref.tubes
    assert list(quiver.translate.items()) == list(ref.translate.items())
    # The special tube, with its free node glued at the bottom, is there at
    # every depth; a curve also has split tubes.
    assert sum(node.kind == "free" for node in quiver.nodes) == 1
    if geom is not getattr(geom, "cusp", geom):
        assert {t.period for t in quiver.tubes} == {1, 2}


# --------------------------------------------------------------- export


def test_export_empty_quiver():
    empty = ARQuiver(nodes=(), arrows=(), tubes=(), translate={})
    assert export_dot(empty) == "digraph ar_quiver {\n  rankdir=BT;\n}\n"


def test_export_lists_a_node_in_no_tube_after_the_clusters():
    quiver = ARQuiver(
        nodes=(QuiverNode("a", "module", 1), QuiverNode("b", "module", 2),
               QuiverNode("c", "single")),
        arrows=(QuiverArrow("a", "b"),),
        tubes=(Tube("T", 1, ("a",)),),
        translate={},
    )
    assert export_dot(quiver) == (
        "digraph ar_quiver {\n  rankdir=BT;\n  subgraph cluster_0 {\n"
        '    label="T period 1";\n    "a" [label="a\\nrank 1"];\n  }\n'
        '  "b" [label="b\\nrank 2"];\n  "c" [label="c"];\n  "a" -> "b";\n}\n'
    )


def test_export_counts_round_trip():
    quiver = cusp_quiver(B1, max_base_rank=2, depth=2)
    dot = export_dot(quiver)
    assert dot.count(" -> ") == len(quiver.arrows)
    # Every multiplicity here is 1, so [label= marks exactly the node lines.
    assert dot.count("[label=") == len(quiver.nodes)
    assert dot.count("subgraph cluster_") == len(quiver.tubes)


def test_export_is_deterministic():
    a = export_dot(cusp_quiver(B1, max_base_rank=2, depth=3))
    b = export_dot(cusp_quiver(B1, max_base_rank=2, depth=3))
    assert a == b


def test_quiver_to_dict_schema():
    quiver = tpq_quiver(G38, depth=2, bases=[(SSeq(2, (1, 0)), 1)])
    data = quiver_to_dict(quiver)
    assert set(data) == {"nodes", "arrows", "tubes", "translate"}
    assert {n["kind"] for n in data["nodes"]} == {"free", "split"}
    assert all(set(a) == {"src", "dst", "mult"} for a in data["arrows"])
    assert data["tubes"][0]["period"] == 2
    assert all(set(t) == {"from", "to"} for t in data["translate"])
    # Ranks only appear where defined; curve labels carry none.
    assert all("rank" not in n for n in data["nodes"])
