"""Closed-form invariants: positive parts, theta, delta, h0/h1, ranks.

Expected values for the worked examples were computed by hand from the
run-counting definitions and cross-checked against the linear-algebra
oracle (see test_oracle / test_acceptance for the systematic sweeps).
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspcm import (
    BundleTriple,
    CuspGeometry,
    KahnViolation,
    SSeq,
    apply_sigma,
    build_tube,
    classify_label,
    cohom_dims,
    cusp_quiver,
    delta,
    enumerate_canonical,
    enumerate_rank,
    family_counts,
    geometry_of,
    kahn_condition,
    module_rank,
    n_global,
    oracle_dims,
    shift_by,
    theta,
    tpq_quiver,
    twist_by_cycle,
    verify_grid,
)
from cuspcm import cohomology
from test_sequences import sseqs


def triple(s, entries, m=1, lam=2):
    return BundleTriple(SSeq(s, entries), m, Fraction(lam))


# ------------------------------------------------------ parameter types


def test_bundle_triple_validation():
    with pytest.raises(ValueError):
        triple(1, (0,), m=0)
    with pytest.raises(ValueError):
        triple(1, (0,), lam=0)
    assert triple(1, (0,), lam="3/2").lam == Fraction(3, 2)


@pytest.mark.parametrize("m", [1.5, 2.0, "2", Fraction(2), None, True])
def test_bundle_triple_rejects_a_non_integer_multiplicity(m):
    with pytest.raises(ValueError, match="multiplicity must be an integer"):
        BundleTriple(SSeq(1, (1,)), m, 2)


@pytest.mark.parametrize(
    "make",
    [lambda: SSeq(1, (True, False)), lambda: CuspGeometry(1, (True,))],
    ids=["entries", "weights"],
)
def test_the_value_layer_rejects_bool_for_int(make):
    # bool is an int subclass; True would print as "True" inside a label.
    with pytest.raises(ValueError, match="integers"):
        make()


B1 = CuspGeometry(1, (1,))

# Every count of the public API, as (id, call with the count, the name its
# error uses).  A count is exactly an int >= 1 wherever it comes in.
COUNTS = [
    ("sseq", lambda v: SSeq(v, (1, 2)), "component count"),
    ("geometry", lambda v: CuspGeometry(v, (1,)), "component count"),
    ("triple", lambda v: BundleTriple(SSeq(1, (1,)), v, 2), "multiplicity"),
    ("enumerate-s", lambda v: enumerate_canonical(v, 2, 0, 1), "component count"),
    ("enumerate-max_r", lambda v: enumerate_canonical(1, v, 0, 1), "max_r"),
    ("rank", lambda v: enumerate_rank(B1, v), "rank"),
    ("r_max", lambda v: family_counts(B1, v), "r_max"),
    ("tube-depth", lambda v: build_tube(B1, SSeq(1, (1,)), 2, v), "depth"),
    ("tpq-depth", lambda v: tpq_quiver(geometry_of(3, 7), v, max_base_rank=1), "depth"),
    ("max_base_rank", lambda v: cusp_quiver(B1, v, depth=2), "max_base_rank"),
    ("p", lambda v: geometry_of(v, 8), "p"),
    ("q", lambda v: geometry_of(3, v), "q"),
]


@pytest.mark.parametrize("bad", [True, 2.0, 0], ids=["bool", "float", "zero"])
@pytest.mark.parametrize(
    "make,name", [row[1:] for row in COUNTS], ids=[row[0] for row in COUNTS]
)
def test_the_value_layer_rejects_a_non_int_component_count(make, name, bad):
    # True and 2.0 pass a bare "< 1" test, so the type is checked first.
    # The error names the count; geometry_of's stronger bounds word p=0 and
    # q=0 as the command line shows them.
    if type(bad) is int:
        expected = rf"^{name} must be (positive|at least 3), got 0$|, {name}=0$"
    else:
        expected = rf"^{name} must be an integer, got {bad!r}$"
    with pytest.raises(ValueError, match=expected):
        make(bad)


def test_a_sequence_on_another_cycle_gets_the_one_mismatch_message():
    seq = SSeq(2, (1, 0))
    geom, tpq = B1, geometry_of(3, 8)  # s = 1 and s = 2
    expected = "^sequence has s=2 but the geometry has s=1$"
    with pytest.raises(ValueError, match=expected):
        twist_by_cycle(seq, geom)
    with pytest.raises(ValueError, match=expected):
        n_global(BundleTriple(seq, 1, 2), geom)
    with pytest.raises(ValueError, match=expected):
        classify_label(BundleTriple(seq, 1, 2), geom)
    with pytest.raises(ValueError, match="^sequence has s=1 but the geometry has s=2$"):
        apply_sigma(tpq, SSeq(1, (1,)))


# Every call that builds a triple from a caller's sequence, as (id, call with
# the sequence).  tpq_quiver checks its base before it canonicalises it.
TRIPLE_SEQS = [
    ("triple", lambda seq: BundleTriple(seq, 1, 2)),
    ("cohom_dims", lambda seq: cohom_dims(BundleTriple(seq, 1, 2))),
    ("classify_label", lambda seq: classify_label(BundleTriple(seq, 1, 2), B1)),
    ("tpq_quiver", lambda seq: tpq_quiver(geometry_of(3, 8), 2, bases=[(seq, 1)])),
]


@pytest.mark.parametrize("bad", [(1,), [1], (1, 0), "1", None])
@pytest.mark.parametrize("make", [row[1] for row in TRIPLE_SEQS],
                         ids=[row[0] for row in TRIPLE_SEQS])
def test_a_triple_takes_only_an_sseq(make, bad):
    with pytest.raises(ValueError, match=rf"^seq must be an SSeq, got {re.escape(repr(bad))}$"):
        make(bad)


# Every scalar of the public API, as (id, call with the scalar).
SCALARS = [
    ("triple", lambda v: BundleTriple(SSeq(1, (1,)), 1, v)),
    ("delta-zero-seq", lambda v: delta(SSeq(1, (0,)), v)),
    ("delta", lambda v: delta(SSeq(1, (1,)), v)),
    ("build_tube", lambda v: build_tube(B1, SSeq(1, (1,)), v, 2)),
    ("cusp_quiver", lambda v: cusp_quiver(B1, 1, 2, lambdas=(1, v))),
    ("tpq_quiver", lambda v: tpq_quiver(geometry_of(3, 7), 2, bases=[(SSeq(1, (1,)), v)])),
    ("verify_grid", lambda v: verify_grid(s_values=(1,), rs_max=1, lambdas=(1, v))),
]


@pytest.mark.parametrize("make", [row[1] for row in SCALARS], ids=[row[0] for row in SCALARS])
def test_a_zero_lambda_gets_the_one_scalar_message(make):
    # delta is checked whatever the sequence, though a nonzero one does not
    # need lam to give 0.
    for zero in (0, "0/3"):
        with pytest.raises(ValueError, match="^lam must be a nonzero rational$"):
            make(zero)


@pytest.mark.parametrize("bad", [True, 0.1, 2.0], ids=["bool", "float", "int-float"])
@pytest.mark.parametrize("make", [row[1] for row in SCALARS], ids=[row[0] for row in SCALARS])
def test_a_bool_or_float_lambda_is_rejected(make, bad):
    # As for counts: True would be the special scalar 1, and 0.1 the binary
    # fraction 3602879701896397/36028797018963968.
    with pytest.raises(ValueError, match=rf"^lam must be an exact rational, got {bad!r}$"):
        make(bad)


def test_cusp_geometry_validation():
    assert CuspGeometry(1, (1,)).b_sequence == SSeq(1, (1,))
    assert CuspGeometry(3, (1, 0, 0)).b == (1, 0, 0)
    with pytest.raises(ValueError):
        CuspGeometry(1, (0,))
    with pytest.raises(ValueError):
        CuspGeometry(2, (0, 0))
    with pytest.raises(ValueError):
        CuspGeometry(2, (1, -1))
    with pytest.raises(ValueError):
        CuspGeometry(2, (1,))


# -------------------------------------------------------- run counting


def positive_parts(seq):
    """Maximal cyclic runs of non-negative entries, as (start, length) pairs.

    start is the 0-based position of the first entry of a run; runs may wrap
    around the end of the sequence.  A sequence without negative entries is
    one run of full length starting at 0; a negative sequence has no runs.
    Runs are listed by start position.  This is the reference that theta's
    run-by-run definition is read from.
    """
    e = seq.entries
    n = len(e)
    if all(v >= 0 for v in e):
        return [(0, n)]
    parts = []
    for i in range(n):
        if e[i] >= 0 and e[i - 1] < 0:
            length = 1
            while e[(i + length) % n] >= 0:
                length += 1
            parts.append((i, length))
    return parts


def test_positive_parts_examples():
    assert positive_parts(SSeq(1, (2, -1))) == [(0, 1)]
    assert positive_parts(SSeq(1, (-1, -2))) == []
    assert positive_parts(SSeq(1, (1, -1, 2))) == [(2, 2)]
    assert positive_parts(SSeq(2, (0, 1))) == [(0, 2)]


def test_theta_examples():
    assert theta(SSeq(1, (0,))) == 1
    assert theta(SSeq(1, (2, -1))) == 2
    assert theta(SSeq(1, (1, -1, 2))) == 3
    assert theta(SSeq(1, (0, -1))) == 1


def test_delta_examples():
    assert delta(SSeq(3, (0, 0, 0)), 1) == 1
    assert delta(SSeq(3, (0, 0, 0)), 2) == 0
    assert delta(SSeq(2, (1, 0)), 1) == 0


@given(seq=sseqs())
def test_parts_partition_the_nonnegative_positions(seq):
    n = len(seq.entries)
    covered = set()
    for start, length in positive_parts(seq):
        assert 1 <= length <= n
        for j in range(length):
            pos = (start + j) % n
            assert seq.entries[pos] >= 0
            assert pos not in covered
            covered.add(pos)
    assert covered == {i for i, v in enumerate(seq.entries) if v >= 0}


def reference_theta(seq):
    # theta from its definition, run by run over positive_parts
    e = seq.entries
    n = len(e)
    total = 0
    for start, length in positive_parts(seq):
        whole = length == n
        zero = all(e[(start + j) % n] == 0 for j in range(length))
        total += length if whole or zero else length + 1
    return total


@given(seq=sseqs())
def test_theta_matches_the_run_by_run_definition(seq):
    assert theta(seq) == reference_theta(seq)


@given(seq=sseqs())
def test_theta_bounded_by_length(seq):
    assert 0 <= theta(seq) <= len(seq.entries)


# ----------------------------------------------------------- dimensions


def reference_dims(e, m, lam):
    """theta, delta, h0 and h1 of (e, m, lam): the closed form in several
    passes over e, the reference for the package's single walk.  theta is
    walked from just after a negative entry, so every run ends inside the
    walk."""
    th = len(e)
    cut = next((i for i, v in enumerate(e) if v < 0), None)
    if cut is not None:
        th = 0
        positive = False
        for v in e[cut + 1:] + e[:cut + 1]:
            if v < 0:
                th += positive
                positive = False
            else:
                th += 1
                positive = positive or v > 0
    de = 1 if lam == 1 and not any(e) else 0
    pos = sum(v + 1 for v in e if v >= 0)
    neg = sum(-1 - v for v in e if v < -1)
    return th, de, m * (pos - th) + de, m * (neg + len(e) - th) + de


def check_against_reference(seq, m, lam):
    e = seq.entries
    t = BundleTriple(seq, m, lam)
    r = cohom_dims(t)
    assert (r.theta, r.delta, r.h0, r.h1) == reference_dims(e, m, lam), t
    assert theta(seq) == r.theta
    geom = CuspGeometry(seq.s, (1,) * seq.s)
    if kahn_condition(t):
        assert n_global(t, geom) == reference_dims(twist_by_cycle(seq, geom).entries, m, lam)[2]


def test_the_single_walk_matches_the_reference_on_every_short_sequence():
    # Every sequence with entries -4..3 up to length 5; the closed form does
    # not read s.  The non-negative ones go through n_global too.
    checked = 0
    for n in range(1, 6):
        for e in itertools.product(range(-4, 4), repeat=n):
            seq = SSeq(1, e)
            for m in (1, 2, 3):
                for lam in (Fraction(1), Fraction(2)):
                    check_against_reference(seq, m, lam)
                    checked += 1
    assert checked == 6 * sum(8**n for n in range(1, 6))


@settings(max_examples=300)
@given(
    seq=sseqs(max_s=3, max_r=12, lo=-4, hi=3) | sseqs(max_s=3, max_r=12, lo=0, hi=3),
    m=st.integers(1, 4),
    lam=st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]),
)
def test_the_single_walk_matches_the_reference_on_longer_sequences(seq, m, lam):
    check_against_reference(seq, m, lam)


LAMS = st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)])


@settings(max_examples=300)
@given(seq=sseqs(max_s=3, max_r=8, lo=-4, hi=4), m=st.integers(1, 4), lam=LAMS)
@example(seq=SSeq(1, (2, -1)), m=2, lam=Fraction(2))
@example(seq=SSeq(2, (0, 0)), m=1, lam=Fraction(1))
def test_the_single_walk_reads_any_iterable(seq, m, lam):
    # n_global hands the walk a lazy twist, which has no len.
    e = seq.entries
    assert cohomology._dims(iter(e), m, lam) == cohomology._dims(e, m, lam)


@settings(max_examples=300)
@given(seq=sseqs(max_s=3, max_r=8, lo=-6, hi=6), m=st.integers(1, 4), lam=LAMS)
def test_theta_and_delta_read_only_the_sign_shape(seq, m, lam):
    # The closed form's half of the shape sweep: the rank m*theta - delta of
    # d is that of its sign shape, and h0, h1 add only the degree sums.
    shape = tuple((v > 0) - (v < 0) for v in seq.entries)
    assert cohomology._dims(seq.entries, m, lam)[:2] == cohomology._dims(shape, m, lam)[:2]


def test_cohom_dims_examples():
    r = cohom_dims(triple(1, (0,), lam=1))
    assert (r.h0, r.h1) == (1, 1)
    r = cohom_dims(triple(1, (0,), lam=2))
    assert (r.h0, r.h1) == (0, 0)
    r = cohom_dims(triple(2, (1, 1), m=2, lam=5))
    assert (r.theta, r.delta, r.h0, r.h1) == (2, 0, 4, 0)
    r = cohom_dims(triple(1, (2, -2), lam=3))
    assert (r.theta, r.h0, r.h1) == (2, 1, 1)


@given(seq=sseqs(), m=st.integers(1, 3), lam=st.sampled_from([1, -1, 2, "1/2"]))
def test_euler_characteristic(seq, m, lam):
    r = cohom_dims(BundleTriple(seq, m, Fraction(lam)))
    assert r.h0 - r.h1 == m * sum(seq.entries)
    assert r.h0 >= 0 and r.h1 >= 0


@given(seq=sseqs(), m=st.integers(1, 3), k=st.integers(-5, 5))
def test_dims_shift_invariant(seq, m, k):
    lam = Fraction(1, 2)
    assert theta(seq) == theta(shift_by(seq, k))
    assert delta(seq, lam) == delta(shift_by(seq, k), lam)
    assert cohom_dims(BundleTriple(seq, m, lam)) == cohom_dims(
        BundleTriple(shift_by(seq, k), m, lam)
    )


@given(seq=sseqs(), m=st.integers(1, 3))
def test_dims_depend_on_lam_only_through_one(seq, m):
    away = [cohom_dims(BundleTriple(seq, m, lam)) for lam in (2, -1, Fraction(5, 3))]
    assert away[0] == away[1] == away[2]


# ------------------------------------------------------- Kahn condition


def test_kahn_examples():
    assert kahn_condition(triple(2, (1, 0), lam=1))
    assert kahn_condition(triple(2, (1, 0), lam=7))
    assert not kahn_condition(triple(1, (0,), lam=1))
    assert kahn_condition(triple(1, (0,), lam=2))
    assert not kahn_condition(triple(1, (1, -1), lam=3))


@given(seq=sseqs(max_s=2, lo=0, hi=3), m=st.integers(1, 3))
def test_kahn_forces_vanishing_h1(seq, m):
    t = BundleTriple(seq, m, Fraction(3))
    if kahn_condition(t):
        r = cohom_dims(t)
        assert r.h1 == 0
        if any(v > 0 for v in seq.entries):
            assert r.h0 > 0


# ----------------------------------------------------- twists and ranks


B1 = CuspGeometry(1, (1,))


def test_twist_examples():
    assert twist_by_cycle(SSeq(1, (2,)), B1).entries == (1,)
    assert twist_by_cycle(SSeq(1, (2, 1)), B1).entries == (1, 0)
    geom = CuspGeometry(3, (1, 0, 0))
    assert twist_by_cycle(SSeq(3, (1, 0, 0)), geom).entries == (0, 0, 0)
    with pytest.raises(ValueError):
        twist_by_cycle(SSeq(2, (1, 0)), B1)


def test_n_global_examples():
    assert n_global(triple(1, (2,), lam=5), B1) == 1
    assert n_global(triple(1, (1,), lam=1), B1) == 1
    assert n_global(triple(1, (1,), lam=2), B1) == 0
    with pytest.raises(KahnViolation):
        n_global(triple(1, (0,), lam=1), B1)


def test_module_rank_examples():
    assert module_rank(triple(1, (1,), lam=1), B1) == 2
    assert module_rank(triple(1, (1,), lam=2), B1) == 1
    assert module_rank(triple(1, (2,), m=3, lam=7), B1) == 6


# The criterion-05 geometries and scalars, 1 among them for the jump over B.
TUBE_GEOMETRIES = [(1,), (2,), (1, 0), (1, 1, 0)]
TUBE_LAMBDAS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]


def _entries_over(b):
    # B itself, where the rank jumps at lam = 1, or any short sequence >= 0
    s = len(b)
    short = st.integers(1, max(1, 6 // s)).flatmap(
        lambda r: st.tuples(*[st.integers(0, 3)] * (r * s))
    )
    return st.one_of(st.just(b), short)


@settings(max_examples=150)
@given(
    case=st.sampled_from(TUBE_GEOMETRIES).flatmap(
        lambda b: st.tuples(st.just(b), _entries_over(b))
    ),
    lam=st.sampled_from(TUBE_LAMBDAS),
    m=st.integers(1, 3),
)
@example(case=((1, 0), (1, 0)), lam=Fraction(1), m=2)
@example(case=((1, 1, 0), (1, 1, 0)), lam=Fraction(1), m=3)
def test_n_global_is_h0_of_the_twist(case, lam, m):
    # n_global counts the twist's sections without building it; the twist
    # as a triple, through the closed form and through the oracle, is the
    # reference.
    b, entries = case
    geom = CuspGeometry(len(b), b)
    seq = SSeq(geom.s, entries)
    t = BundleTriple(seq, m, lam)
    if not kahn_condition(t):
        return
    twisted = BundleTriple(twist_by_cycle(seq, geom), m, lam)
    n = n_global(t, geom)
    assert n == cohom_dims(twisted).h0 == oracle_dims(twisted).h0
    assert n >= 0
    assert module_rank(t, geom) == m * seq.r + n
