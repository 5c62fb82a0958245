"""The linear-algebra oracle, checked against a dense textbook eliminator.

The package's eliminator works on sparse integer rows with gcd
normalization; here a plain dense Gaussian elimination over Fraction is
reimplemented from scratch and both must report the same ranks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcm import (
    BundleTriple,
    SSeq,
    build_presentation,
    cohom_dims,
    oracle_dims,
    rank_of_h,
    verify_formula,
    verify_grid,
)
from cuspcm.oracle import DOUBLE_PRIME, PRIME, coordinate_index
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


def triple(s, entries, m=1, lam=2):
    return BundleTriple(SSeq(s, entries), m, Fraction(lam))


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
    "box", [{"rs_max": -1}, {"m_values": ()}, {"lambdas": ()}, {"s_values": (9,)}]
)
def test_verify_grid_rejects_an_empty_box(box):
    small = {"rs_max": 4, "lo": 0, "hi": 1, "m_values": (1,), "lambdas": (2,)}
    with pytest.raises(ValueError, match="holds no cases"):
        verify_grid(**{**small, **box})
