"""The linear-algebra oracle, checked against two slower references.

The package measures rk h in F/G: it projects the im f generators along the
glueing space G and eliminates sparse integer rows.  Two references measure
dim(im f + G) - dim G in F instead: a plain dense Gaussian elimination over
Fraction, reimplemented from scratch, and the earlier G-first path, which
puts the glueing vectors into the sparse eliminator before im f.  All must
report the same ranks.
"""

import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcm import (
    BundleTriple,
    CohomReport,
    OracleSpace,
    SSeq,
    build_presentation,
    cohom_dims,
    enumerate_canonical,
    is_aperiodic,
    oracle_dims,
    rank_of_h,
    verify_formula,
    verify_grid,
)
from cuspcm import oracle
from cuspcm.oracle import _eliminate
from test_sequences import sseqs


def dense(vec, dim):
    out = [Fraction(0)] * dim
    for c, v in vec.items():
        out[c] = Fraction(v)
    return out


def dense_rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def reference_rank_of_h(triple):
    space = build_presentation(triple)
    g = [dense(vec, space.dim_f) for vec in space.g_basis]
    imf = [dense(vec, space.dim_f) for vec in space.imf_basis]
    dim_g = dense_rank(g)
    assert dim_g == len(space.g_basis)
    return dense_rank(g + imf) - dim_g


def _integer_rows(vectors):
    # Clearing denominators rescales each vector; spans are unchanged.
    rows = []
    for vec in vectors:
        den = 1
        for v in vec.values():
            den = den * v.denominator // gcd(den, v.denominator)
        rows.append({c: int(v * den) for c, v in vec.items()})
    return rows


def g_first_rank_of_h(triple):
    """dim(im f + G) - dim G in F: the glueing vectors are eliminated first
    and checked to be independent, then the im f generators that remain
    independent are counted."""
    space = build_presentation(triple)
    pivots = {}
    dim_g = _eliminate(_integer_rows(space.g_basis), pivots)
    assert dim_g == len(space.g_basis), "glueing vectors came out dependent"
    return _eliminate(_integer_rows(space.imf_basis), pivots)


def triple(s, entries, m=1, lam=2):
    return BundleTriple(SSeq(s, entries), m, Fraction(lam))


PRIME, DOUBLE_PRIME = 0, 1  # the two sides of a coordinate eps_{ik}


def coordinate_index(i, k, side, m):
    """Index of eps_{ik} (i, k 1-based) on a side in the (i, k, side)-
    lexicographic coordinate order of build_presentation."""
    return ((i - 1) * m + (k - 1)) * 2 + side


# ----------------------------------------------------------- the spaces


def test_coordinate_order_is_i_k_side():
    assert coordinate_index(1, 1, PRIME, 2) == 0
    assert coordinate_index(1, 1, DOUBLE_PRIME, 2) == 1
    assert coordinate_index(1, 2, PRIME, 2) == 2
    assert coordinate_index(2, 1, PRIME, 2) == 4


def test_presentation_single_position():
    lam = Fraction(5)
    space = build_presentation(triple(1, (0,), lam=lam))
    assert space.dim_f == 2
    assert space.g_basis == ({0: 1, 1: lam},)
    assert space.imf_basis == ({0: 1, 1: 1},)


def test_presentation_skips_negative_degrees():
    space = build_presentation(triple(1, (2, -1)))
    assert space.dim_f == 4
    i1p = coordinate_index(1, 1, PRIME, 1)
    i1d = coordinate_index(1, 1, DOUBLE_PRIME, 1)
    assert space.imf_basis == ({i1p: 1}, {i1d: 1})


def test_presentation_jordan_block():
    lam = Fraction(3)
    space = build_presentation(triple(1, (0,), m=2, lam=lam))
    e11 = {coordinate_index(1, 1, PRIME, 2): 1, coordinate_index(1, 1, DOUBLE_PRIME, 2): lam}
    e12 = {
        coordinate_index(1, 2, PRIME, 2): 1,
        coordinate_index(1, 2, DOUBLE_PRIME, 2): lam,
        coordinate_index(1, 1, DOUBLE_PRIME, 2): 1,
    }
    assert space.g_basis == (e11, e12)


@given(seq=sseqs(max_s=2, max_r=3), m=st.integers(1, 3))
def test_presentation_generator_counts(seq, m):
    space = build_presentation(BundleTriple(seq, m, Fraction(7)))
    rs = len(seq.entries)
    assert space.dim_f == 2 * m * rs
    assert len(space.g_basis) == m * rs
    expected = sum(2 * m for v in seq.entries if v > 0) + sum(
        m for v in seq.entries if v == 0
    )
    assert len(space.imf_basis) == expected


def sign(v):
    return (v > 0) - (v < 0)


@st.composite
def same_sign_twins(draw):
    """Two sequences on one cycle whose entries agree in sign, position by
    position, and mostly differ in size."""
    seq = draw(sseqs(max_s=2, max_r=3, lo=-4, hi=4))
    twin = tuple(
        draw(st.integers(1, 6)) if v > 0 else draw(st.integers(-6, -1)) if v < 0 else 0
        for v in seq.entries
    )
    return seq, SSeq(seq.s, twin)


def presentation_shape(space, rs, m):
    """The sign of each d_i, read back off the im f generators build_presentation
    wrote for position i: 2m for d_i > 0, m for d_i = 0, none for d_i < 0."""
    per_position = [0] * rs
    for vec in space.imf_basis:
        positions = {c // (2 * m) for c in vec}
        assert len(positions) == 1, vec
        per_position[positions.pop()] += 1
    return tuple({2 * m: 1, m: 0, 0: -1}[n] for n in per_position)


@settings(max_examples=80, deadline=None)
@given(twins=same_sign_twins(), m=st.integers(1, 3),
       lam=st.sampled_from([1, -1, 2, "1/2", "-3/5"]))
def test_presentation_reads_only_the_sign_shape(twins, m, lam):
    seq, twin = twins
    space = build_presentation(BundleTriple(seq, m, Fraction(lam)))
    assert build_presentation(BundleTriple(twin, m, Fraction(lam))) == space
    shape = oracle._sign_shape(seq.entries)
    assert shape == oracle._sign_shape(twin.entries)
    assert shape == tuple(sign(v) for v in seq.entries)
    assert shape == presentation_shape(space, len(seq.entries), m)


# ----------------------------------------------------------- rank of h


def test_rank_examples():
    assert rank_of_h(triple(1, (0,), lam=1)) == 0
    assert rank_of_h(triple(1, (0,), lam=2)) == 1
    assert rank_of_h(triple(1, (2, -1), lam=1)) == 2
    assert rank_of_h(triple(1, (2, -1), lam="4/7")) == 2


@settings(max_examples=40, deadline=None)
@given(seq=sseqs(max_s=2, max_r=2, lo=-2, hi=2), m=st.integers(1, 2),
       lam=st.sampled_from([1, -1, 2, "1/2", "-3/5"]))
def test_rank_matches_dense_reference(seq, m, lam):
    t = BundleTriple(seq, m, Fraction(lam))
    assert rank_of_h(t) == reference_rank_of_h(t)


def box_triples(rs_max):
    """Every case of the default `verify_grid` box, in sweep order."""
    for s in (1, 2, 3):
        for seq in enumerate_canonical(s, rs_max // s, -3, 3):
            for m in (1, 2, 3):
                for lam in (1, -1, 2, -2, Fraction(1, 2)):
                    yield BundleTriple(seq, m, Fraction(lam))


def test_rank_matches_g_first_elimination_on_the_box():
    cases = 0
    for t in box_triples(rs_max=5):
        assert rank_of_h(t) == g_first_rank_of_h(t), t
        cases += 1
    assert cases == 84_840


def _corrupt_presentation(monkeypatch, corrupt):
    # rank_of_h reads the presentation through the module global.
    real = oracle.build_presentation

    def bad(t):
        space = real(t)
        g = [dict(vec) for vec in space.g_basis]
        corrupt(g)
        return OracleSpace(space.dim_f, tuple(g), space.imf_basis)

    monkeypatch.setattr(oracle, "build_presentation", bad)


def _share_lead(g):
    lead = coordinate_index(1, 1, PRIME, 1)
    del g[1][coordinate_index(2, 1, PRIME, 1)]
    g[1][lead] = Fraction(1)


def _scale_lead(g):
    g[0][coordinate_index(1, 1, PRIME, 1)] = Fraction(2)


def _two_leads(g):
    g[0][coordinate_index(2, 1, PRIME, 1)] = Fraction(1)


def _drop_vector(g):
    del g[-1]


@pytest.mark.parametrize("corrupt", [_share_lead, _scale_lead, _two_leads, _drop_vector])
def test_rank_rejects_a_corrupt_glueing_space(monkeypatch, corrupt):
    t = triple(1, (0, 1), lam=3)
    assert rank_of_h(t) == 2
    _corrupt_presentation(monkeypatch, corrupt)
    with pytest.raises(ArithmeticError, match="corrupt presentation"):
        rank_of_h(t)


def random_triple(rng):
    """An aperiodic sequence with rs <= 40, m <= 6 and lam = p/q with
    |p|, |q| <= 10**6."""
    s = rng.randint(1, 4)
    r = rng.randint(1, 40 // s)
    while True:
        seq = SSeq(s, tuple(rng.randint(-3, 3) for _ in range(r * s)))
        if is_aperiodic(seq):
            break
    p = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    q = rng.randint(1, 10**6)
    return BundleTriple(seq, rng.randint(1, 6), Fraction(p, q))


def test_formula_matches_oracle_beyond_the_box():
    rng = random.Random(20020)
    start = time.perf_counter()
    for _ in range(2_000):
        t = random_triple(rng)
        f = cohom_dims(t)
        o = oracle_dims(t)
        rk = rank_of_h(t)
        assert (f.h0, f.h1) == (o.h0, o.h1), t
        assert f.h0 - f.h1 == t.m * sum(t.seq.entries), t
        assert rk == t.m * f.theta - f.delta, t
    # About 1.5 s on a 2-vCPU VM; the bound catches a blow-up in coefficient
    # size or elimination work, not host noise.
    assert time.perf_counter() - start < 30


@given(seq=sseqs(max_s=2, max_r=2), m=st.integers(1, 2))
def test_rank_depends_only_on_the_lam_class(seq, m):
    away = {rank_of_h(BundleTriple(seq, m, lam)) for lam in (2, -1, Fraction(1, 3))}
    assert len(away) == 1


# ------------------------------------------------------ measured dims


def test_oracle_dims_examples():
    r = oracle_dims(triple(1, (0,), lam=1))
    assert (r.h0, r.h1) == (1, 1)
    r = oracle_dims(triple(2, (1, 1), m=2, lam=5))
    assert (r.h0, r.h1) == (4, 0)
    r = oracle_dims(triple(1, (0, -1), lam=7))
    assert (r.h0, r.h1, r.theta) == (0, 1, 1)


def test_verify_formula_examples():
    assert verify_formula(triple(1, (0,), lam=1)).agree
    assert verify_formula(triple(1, (0,), lam=1)).failures == ()
    rep = verify_formula(triple(1, (1, -1, 2), lam=3))
    assert rep.agree
    assert (rep.formula.h0, rep.formula.h1) == (2, 0)


@settings(max_examples=60, deadline=None)
@given(seq=sseqs(max_s=3, max_r=2), m=st.integers(1, 3),
       lam=st.sampled_from([1, -1, 2, "1/2"]))
def test_oracle_agrees_with_formula(seq, m, lam):
    t = BundleTriple(seq, m, Fraction(lam))
    rep = verify_formula(t)
    assert rep.agree, f"{t}: {rep.formula} vs {rep.oracle}"
    assert rep.oracle == cohom_dims(t)  # theta/delta recovery included


# --------------------------------------------------------------- sweeps


def test_verify_grid_small_box():
    report = verify_grid(
        s_values=(1, 2), rs_max=3, lo=-2, hi=2, m_values=(1, 2), lambdas=(1, 2)
    )
    assert report.ok
    assert report.formula_mismatches == ()
    assert report.euler_failures == ()
    assert report.rank_identity_failures == ()
    # Canonical aperiodic sequences: 5 + 10 + 40 for s=1 at lengths 1,2,3
    # and 25 for s=2 at length 2; times 4 (m, lam) pairs.
    assert report.cases == (5 + 10 + 40 + 25) * 4


def test_the_shape_sweep_checks_every_sign_shape_up_to_length_8():
    # Entries -1..1 reach every sign shape, and the rank identity reads d
    # only through its sign shape on both sides, so this box checks it for
    # every aperiodic integer sequence with rs <= 8 at these m and lam.
    report = verify_grid(s_values=(1, 2, 3), rs_max=8, lo=-1, hi=1,
                         m_values=(1, 2, 3), lambdas=(1, -1, 2, -2, "1/2"))
    assert report.ok
    assert report.cases == 54015


def plant_wrong_closed_form(monkeypatch, wrong):
    """Make oracle.cohom_dims report theta and h^0 one too high wherever
    wrong(triple) holds."""
    real = oracle.cohom_dims

    def planted(triple):
        f = real(triple)
        if wrong(triple):
            return CohomReport(theta=f.theta + 1, delta=f.delta, h0=f.h0 + 1, h1=f.h1)
        return f

    monkeypatch.setattr(oracle, "cohom_dims", planted)


def test_verify_grid_reports_every_check_a_wrong_closed_form_fails(monkeypatch):
    plant_wrong_closed_form(
        monkeypatch, lambda t: (t.seq.entries, t.m, t.lam) == ((1,), 1, 2)
    )
    report = verify_grid(s_values=(1,), rs_max=1, lo=0, hi=1, m_values=(1,), lambdas=(2,))
    assert report.cases == 2
    assert report.formula_mismatches == ("s=1 d=[1] m=1 lam=2: formula (2,0) vs oracle (1,0)",)
    assert report.euler_failures == ("s=1 d=[1] m=1 lam=2",)
    assert report.rank_identity_failures == ("s=1 d=[1] m=1 lam=2: rk=1",)
    assert report.ok is False


def plant_rank_plus_one(monkeypatch):
    """Make oracle.rank_of_h measure every rank one too high."""
    real = oracle.rank_of_h
    monkeypatch.setattr(oracle, "rank_of_h", lambda t: real(t) + 1)


def plant_wrong_positive_sum(monkeypatch):
    """Make oracle._measured_dims read sum((d_i + 1)^+) one too high, so the
    measured h^0 is m too high and h^1 is unchanged."""
    real = oracle._measured_dims

    def planted(d):
        measured = real(d)
        return lambda m, rk: (measured(m, rk)[0] + m, measured(m, rk)[1])

    monkeypatch.setattr(oracle, "_measured_dims", planted)


def test_oracle_dims_rejects_a_rank_that_is_not_m_theta_minus_delta(monkeypatch):
    plant_rank_plus_one(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"^measured rank 5 of .* is not of the form"):
        oracle_dims(triple(1, (1, 0), m=2))
    # at m = 1 every rank is of that form: theta reads 3, one above the true 2
    assert oracle_dims(triple(1, (1, 0))).theta == 3


def rank_key(t):
    return oracle._sign_shape(t.seq.entries), t.m, t.lam


def record_ranks(monkeypatch):
    """Wrap oracle.rank_of_h; returns the (key, rank) of each call, in order."""
    real = oracle.rank_of_h
    calls = []

    def recorded(t):
        rk = real(t)
        calls.append((rank_key(t), rk))
        return rk

    monkeypatch.setattr(oracle, "rank_of_h", recorded)
    return calls


def test_verify_grid_uses_the_per_case_rank_on_the_box(monkeypatch):
    # Each rank verify_grid reads back is the one rank_of_h measures for the
    # case itself: the one elimination per key, checked case by case.
    calls = record_ranks(monkeypatch)
    report = verify_grid(rs_max=4)
    monkeypatch.undo()
    used = dict(calls)
    assert len(used) == len(calls)
    assert report.ok and report.cases == 34_440
    cases = 0
    for t in box_triples(rs_max=4):
        assert rank_of_h(t) == used[rank_key(t)], t
        cases += 1
    assert cases == report.cases


SMALL_BOX = {"s_values": (1, 2), "rs_max": 3, "lo": -2, "hi": 2,
             "m_values": (1, 2), "lambdas": (1, 2)}


def tagged_triples(box):
    """Every case of a verify_grid box with its tag, in sweep order."""
    for s in box["s_values"]:
        for seq in enumerate_canonical(s, box["rs_max"] // s, box["lo"], box["hi"]):
            for m in box["m_values"]:
                for lam in box["lambdas"]:
                    yield f"s={s} d={seq} m={m} lam={lam}", BundleTriple(seq, m, lam)


def test_verify_grid_eliminates_each_key_once(monkeypatch):
    calls = record_ranks(monkeypatch)
    report = verify_grid(**SMALL_BOX)
    keys = [key for key, _ in calls]
    assert len(keys) == len(set(keys))
    assert set(keys) == {rank_key(t) for _, t in tagged_triples(SMALL_BOX)}
    assert len(keys) < report.cases == 320


def test_verify_grid_reads_a_wrong_rank_into_every_case(monkeypatch):
    expected = [f"{tag}: rk={rank_of_h(t) + 1}" for tag, t in tagged_triples(SMALL_BOX)]
    plant_rank_plus_one(monkeypatch)
    report = verify_grid(**SMALL_BOX)
    assert list(report.rank_identity_failures) == expected
    assert len(report.formula_mismatches) == report.cases == len(expected)
    assert report.euler_failures == ()  # rk h cancels out of h^0 - h^1


def test_verify_grid_finds_a_wrong_degree_sum_in_every_case(monkeypatch):
    # The Euler check tests the degree sums that h^0 and h^1 are built from:
    # one sum planted wrong on the oracle side fails it in every case.
    tags = [tag for tag, _ in tagged_triples(SMALL_BOX)]
    plant_wrong_positive_sum(monkeypatch)
    report = verify_grid(**SMALL_BOX)
    assert list(report.euler_failures) == tags
    assert len(report.formula_mismatches) == report.cases == len(tags)
    assert report.rank_identity_failures == ()


SINGLE_BOX = {"s_values": (1, 2, 3), "rs_max": 3, "lo": -2, "hi": 2,
              "m_values": (1, 2, 3), "lambdas": (1, -1, 2, Fraction(1, 2))}


def named_cases(report):
    """The tags of the cases that any of the report's failure lists names."""
    failures = (report.formula_mismatches + report.euler_failures
                + report.rank_identity_failures)
    return {failure.partition(":")[0] for failure in failures}


def test_verify_formula_agrees_on_every_case_of_the_box(monkeypatch):
    calls = record_ranks(monkeypatch)
    cases = 0
    for tag, t in tagged_triples(SINGLE_BOX):
        assert verify_formula(t).agree, tag
        cases += 1
    assert len(calls) == cases  # one elimination per call
    monkeypatch.undo()
    assert cases == verify_grid(**SINGLE_BOX).cases == (55 + 25 + 125) * 12


def plant_one_wrong_closed_form(monkeypatch):
    plant_wrong_closed_form(
        monkeypatch, lambda t: (t.seq.s, t.seq.entries, t.m, t.lam) == (1, (-1, 1), 2, -1)
    )


@pytest.mark.parametrize("plant, failing", [
    (plant_one_wrong_closed_form, 1),
    (plant_rank_plus_one, 2460),
    (plant_wrong_positive_sum, 2460),
], ids=["closed-form-one-case", "rank-plus-one", "positive-sum"])
def test_verify_formula_fails_exactly_the_cases_the_grid_names(monkeypatch, plant, failing):
    plant(monkeypatch)
    named = named_cases(verify_grid(**SINGLE_BOX))
    failed = {tag for tag, t in tagged_triples(SINGLE_BOX) if not verify_formula(t).agree}
    assert failed == named
    assert len(named) == failing


@pytest.mark.parametrize("plant", [
    plant_one_wrong_closed_form, plant_rank_plus_one, plant_wrong_positive_sum,
], ids=["closed-form-one-case", "rank-plus-one", "positive-sum"])
def test_verify_formula_lists_the_descriptors_the_grid_gives(monkeypatch, plant):
    # Per case: the grid's descriptors of that case, formula mismatches,
    # then Euler failures, then rank identity failures.
    plant(monkeypatch)
    report = verify_grid(**SINGLE_BOX)
    by_tag: dict = {}
    for failure in (report.formula_mismatches + report.euler_failures
                    + report.rank_identity_failures):
        by_tag.setdefault(failure.partition(":")[0], []).append(failure)
    for tag, t in tagged_triples(SINGLE_BOX):
        rep = verify_formula(t)
        assert rep.failures == tuple(by_tag.get(tag, ())), tag
        assert rep.agree is (not rep.failures)


def test_verify_formula_reports_a_rank_of_no_form_without_raising(monkeypatch):
    # The rank 5 that oracle_dims rejects (see above) fails the rank identity.
    plant_rank_plus_one(monkeypatch)
    rep = verify_formula(triple(1, (1, 0), m=2))
    assert rep.agree is False
    assert (rep.oracle.h0, rep.oracle.h1) == (rep.formula.h0 - 1, rep.formula.h1 - 1)
    assert rep.oracle.delta == rep.formula.delta == 0
    assert rep.oracle.theta == (5 + 0) // 2
    assert rep.failures == ("s=1 d=[1,0] m=2 lam=2: formula (2,0) vs oracle (1,-1)",
                            "s=1 d=[1,0] m=2 lam=2: rk=5")


def test_verify_grid_skips_oversized_s():
    report = verify_grid(
        s_values=(1, 5), rs_max=2, lo=0, hi=1, m_values=(1,), lambdas=(2,)
    )
    # s=1 contributes [0], [1], [0,1]; s=5 exceeds rs_max and is skipped.
    assert report.ok and report.cases == 3


@pytest.mark.parametrize("s", [0, -1])
def test_verify_grid_rejects_s_below_one(s):
    with pytest.raises(ValueError, match=f"s must be at least 1, got {s}"):
        verify_grid(s_values=(1, s), rs_max=2, lo=0, hi=1, m_values=(1,), lambdas=(2,))


@pytest.mark.parametrize(
    "box, message",
    [
        ({"rs_max": True}, "rs_max must be an integer, got True"),
        ({"rs_max": "2"}, "rs_max must be an integer, got '2'"),
        ({"s_values": ("1",)}, "s must be an integer, got '1'"),
    ],
    ids=["rs_max-bool", "rs_max-str", "s-str"],
)
def test_verify_grid_rejects_a_count_that_is_not_an_int(box, message):
    small = {"s_values": (1,), "rs_max": 2, "lo": 0, "hi": 1, "m_values": (1,),
             "lambdas": (2,)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_grid(**{**small, **box})


def test_verify_grid_rejects_a_string_of_lambdas():
    # A str would be read one character at a time: "12" as the scalars 1 and 2.
    with pytest.raises(ValueError, match="^lambdas must be a sequence of scalars"):
        verify_grid(s_values=(1,), rs_max=1, lo=0, hi=1, m_values=(1,), lambdas="12")


@pytest.mark.parametrize(
    "values, repeat",
    [
        ({"s_values": (1, 2, 1)}, "s=1"),
        ({"m_values": (1, 1)}, "m=1"),
        ({"lambdas": (2, "4/2")}, "lambda=2"),
        ({"lambdas": (Fraction(1, 2), "2/4")}, "lambda=1/2"),
    ],
)
def test_verify_grid_rejects_a_repeated_value(values, repeat):
    small = {"rs_max": 2, "lo": 0, "hi": 1, "m_values": (1,), "lambdas": (2,)}
    with pytest.raises(ValueError, match=f"{repeat} is repeated in the grid box"):
        verify_grid(**{**small, **values})


@pytest.mark.parametrize(
    "box", [{"rs_max": -1}, {"m_values": ()}, {"lambdas": ()}, {"s_values": (9,)}]
)
def test_verify_grid_rejects_an_empty_box(box):
    small = {"rs_max": 4, "lo": 0, "hi": 1, "m_values": (1,), "lambdas": (2,)}
    with pytest.raises(ValueError, match="holds no cases"):
        verify_grid(**{**small, **box})


def triple_message(m):
    """The message BundleTriple gives for the multiplicity m."""
    with pytest.raises(ValueError) as caught:
        BundleTriple(SSeq(1, (1,)), m, 2)
    return str(caught.value)


@pytest.mark.parametrize("bad", [0, True, 1.5, "1"])
def test_verify_grid_checks_every_m_before_any_case(monkeypatch, bad):
    message = triple_message(bad)
    assert message.startswith("multiplicity must be ")
    ran = []
    monkeypatch.setattr(oracle, "cohom_dims", ran.append)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_grid(s_values=(1,), rs_max=2, lo=0, hi=1, m_values=(1, 2, bad), lambdas=(2,))
    assert ran == []


def test_verify_grid_checks_m_in_a_box_that_holds_no_case():
    # The m check comes first: an empty box with a bad m fails on the m.
    with pytest.raises(ValueError, match=f"^{re.escape(triple_message(0))}$"):
        verify_grid(s_values=(9,), rs_max=4, lo=0, hi=1, m_values=(0,), lambdas=(2,))


def test_verify_grid_tags_a_failure_with_lam_itself(monkeypatch):
    # Ranks are keyed by lam's position; the tags still print lam.
    plant_wrong_closed_form(
        monkeypatch, lambda t: (t.seq.entries, t.lam) == ((1,), Fraction(1, 2))
    )
    report = verify_grid(s_values=(1,), rs_max=1, lo=0, hi=1, m_values=(1,),
                         lambdas=(2, "1/2"))
    assert report.cases == 4
    assert report.formula_mismatches == (
        "s=1 d=[1] m=1 lam=1/2: formula (2,0) vs oracle (1,0)",
    )
    assert report.euler_failures == ("s=1 d=[1] m=1 lam=1/2",)
    assert report.rank_identity_failures == ("s=1 d=[1] m=1 lam=1/2: rk=1",)
