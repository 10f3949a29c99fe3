"""Unit and property tests for the weighted-atom lattice layer.

The algebraic identities asserted exactly here (sup/inf decompositions,
positive/negative parts, translation invariance of the join) hold at the
float level, not just in exact arithmetic, because they only combine max,
min, negation, and monotone rounding of a shared sum.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    DEFAULT_TOL,
    BadExponent,
    LatticeElement,
    NegativeBase,
    NonpositiveExponent,
    SampleSpace,
    SpaceMismatch,
    Tolerance,
    inf_many,
    leq_with_tolerance,
    multiply,
    power,
    sup_many,
)
from rieszmart import lattice
from rieszmart.rng import SplitMix64

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
nonneg_coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def element_family(draw, count=2, values=coord, dim_max=6):
    dim = draw(st.integers(min_value=1, max_value=dim_max))
    space = SampleSpace.uniform(dim)
    out = []
    for _ in range(count):
        coords = draw(st.lists(values, min_size=dim, max_size=dim))
        out.append(space.element(coords))
    return tuple(out)


# --- sample space -----------------------------------------------------------


def test_space_normalizes_weights():
    space = SampleSpace([2.0, 2.0])
    assert np.allclose(space.weights, [0.5, 0.5])
    assert abs(space.weights.sum() - 1.0) < 1e-15


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        SampleSpace([0.5, 0.0])
    with pytest.raises(ValueError):
        SampleSpace([0.5, -0.1])
    with pytest.raises(ValueError):
        SampleSpace([0.5, float("nan")])
    with pytest.raises(ValueError):
        SampleSpace([])
    with pytest.raises(ValueError):
        SampleSpace.uniform(0)


def test_element_shape_and_finiteness():
    space = SampleSpace.uniform(3)
    with pytest.raises(ValueError):
        space.element([1.0, 2.0])
    with pytest.raises(ValueError):
        space.element([1.0, 2.0, float("inf")])
    e = space.unit()
    assert np.array_equal(e.coords, [1.0, 1.0, 1.0])
    assert np.array_equal(space.zero().coords, [0.0, 0.0, 0.0])


def test_space_equality_and_hash():
    assert SampleSpace.uniform(3) == SampleSpace.uniform(3)
    assert SampleSpace.uniform(3) != SampleSpace.uniform(4)
    assert SampleSpace([1, 1]) == SampleSpace([0.5, 0.5])
    assert hash(SampleSpace.uniform(3)) == hash(SampleSpace.uniform(3))


def test_cross_space_operations_raise():
    a = SampleSpace.uniform(2).unit()
    b = SampleSpace.uniform(3).unit()
    c = SampleSpace([0.25, 0.75]).unit()
    with pytest.raises(SpaceMismatch):
        a + b
    with pytest.raises(SpaceMismatch):
        a.sup(c)  # same size, different weights
    with pytest.raises(SpaceMismatch):
        multiply(a, b)
    with pytest.raises(SpaceMismatch):
        leq_with_tolerance(a, b)


# --- hand-computed cases ----------------------------------------------------


def test_sup_inf_hand_case():
    space = SampleSpace.uniform(2)
    f = space.element([1.0, -2.0])
    g = space.element([0.0, 3.0])
    assert np.array_equal(f.sup(g).coords, [1.0, 3.0])
    assert np.array_equal(f.inf(g).coords, [0.0, -2.0])


def test_parts_hand_case():
    f = SampleSpace.uniform(2).element([1.0, -2.0])
    assert np.array_equal(f.pos_part().coords, [1.0, 0.0])
    assert np.array_equal(f.neg_part().coords, [0.0, 2.0])
    assert np.array_equal(f.abs().coords, [1.0, 2.0])


def test_multiply_hand_case():
    space = SampleSpace.uniform(2)
    prod = multiply(space.element([2.0, 3.0]), space.element([4.0, 5.0]))
    assert np.array_equal(prod.coords, [8.0, 15.0])


def test_unit_is_multiplicative_identity():
    space = SampleSpace.uniform(4)
    f = space.element([0.5, -1.0, 2.0, 0.0])
    assert multiply(f, space.unit()).equals(f)


def test_power_hand_cases():
    space = SampleSpace.uniform(2)
    assert np.array_equal(power(space.element([4.0, 9.0]), 0.5).coords, [2.0, 3.0])
    e = space.unit()
    for p in (1.0, 1.5, 2.0, 3.0):
        assert power(e, p).equals(e)


def test_power_integer_exponent_allows_negatives():
    f = SampleSpace.uniform(2).element([-2.0, 3.0])
    assert np.array_equal(power(f, 2).coords, [4.0, 9.0])
    assert np.array_equal(power(f, 3).coords, [-8.0, 27.0])


def test_power_large_integer_exponent_allows_negatives():
    # Past the repeated-multiplication cutoff (p <= 16) integer exponents
    # go to np.power, and must still accept negative coordinates.
    f = SampleSpace.uniform(3).element([-2.0, 3.0, -1.0])
    assert np.array_equal(power(f, 17).coords, [-(2.0**17), 3.0**17, -1.0])
    assert np.array_equal(power(f, 18.0).coords, [2.0**18, 3.0**18, 1.0])
    with pytest.raises(NegativeBase):
        power(f, 17.5)


def test_power_errors():
    space = SampleSpace.uniform(2)
    with pytest.raises(NegativeBase):
        power(space.element([-1.0, 1.0]), 1.5)
    with pytest.raises(NonpositiveExponent):
        power(space.unit(), 0.0)
    with pytest.raises(NonpositiveExponent):
        power(space.unit(), -2.0)


def test_power_rejects_non_finite_exponents():
    # int(p) used to fail on these with ValueError and OverflowError.
    for p in (float("nan"), float("inf")):
        with pytest.raises(BadExponent):
            power(SampleSpace.uniform(2).unit(), p)


def test_leq_with_tolerance_cases():
    space = SampleSpace.uniform(2)
    f = space.element([1.0, 1.0])
    same = leq_with_tolerance(f, f)
    assert same.ok and same.margin == 0.0

    worse = leq_with_tolerance(space.element([1.0, 2.0]), space.element([1.0, 1.0]))
    assert not worse.ok
    assert worse.margin == -1.0
    assert worse.atom == 1

    # A violation smaller than the absolute slack still passes.
    nudged = f + 1e-13 * space.unit()
    assert leq_with_tolerance(nudged, f).ok
    assert not leq_with_tolerance(nudged, f, Tolerance(abs=1e-14, rel=0.0)).ok


def test_tolerance_slack_shape():
    tol = Tolerance(abs=1e-3, rel=1e-2)
    slack = tol.slack(np.array([1.0, -10.0]), np.array([2.0, 0.5]))
    assert np.allclose(slack, [1e-3 + 2e-2, 1e-3 + 1e-1])


def test_sup_inf_many():
    space = SampleSpace.uniform(3)
    fam = [
        space.element([1.0, 0.0, -1.0]),
        space.element([0.0, 2.0, 0.0]),
        space.element([-1.0, 1.0, 3.0]),
    ]
    assert np.array_equal(sup_many(fam).coords, [1.0, 2.0, 3.0])
    assert np.array_equal(inf_many(fam).coords, [-1.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        sup_many([])
    with pytest.raises(ValueError):
        inf_many([])


def test_abs_equals_join_with_negation_on_random_draws():
    space = SampleSpace.uniform(5)
    stream = SplitMix64(2024)
    for _ in range(100):
        f = space.element(stream.uniforms(5, -10.0, 10.0))
        assert f.abs().equals(f.sup(-f))


# --- lattice laws as properties ---------------------------------------------


@given(element_family(count=2))
def test_join_plus_meet_is_sum(pair):
    f, g = pair
    assert (f.sup(g) + f.inf(g)).equals(f + g)


@given(element_family(count=1))
def test_part_decompositions(single):
    (f,) = single
    assert (f.pos_part() - f.neg_part()).equals(f)
    assert (f.pos_part() + f.neg_part()).equals(f.abs())
    assert multiply(f.pos_part(), f.neg_part()).max_abs() == 0.0


@given(element_family(count=3))
def test_join_translation_invariance(triple):
    f, g, h = triple
    assert ((f + g).sup(f + h)).equals(f + g.sup(h))


@given(element_family(count=2))
def test_absorption_laws(pair):
    f, g = pair
    assert f.sup(f.inf(g)).equals(f)
    assert f.inf(f.sup(g)).equals(f)


@given(element_family(count=2))
def test_join_meet_commute(pair):
    f, g = pair
    assert f.sup(g).equals(g.sup(f))
    assert f.inf(g).equals(g.inf(f))


@given(element_family(count=3, values=nonneg_coord))
def test_disjointness_survives_multiplication(triple):
    f, g, h = triple
    # Force disjoint supports: f lives on even atoms, g on odd ones.
    n = f.space.n
    even = np.arange(n) % 2 == 0
    f = f.space.element(np.where(even, f.coords, 0.0))
    g = g.space.element(np.where(even, 0.0, g.coords))
    assert f.inf(g).max_abs() == 0.0
    assert multiply(f, h).inf(g).max_abs() == 0.0


@given(
    element_family(count=2, values=st.floats(min_value=0.0, max_value=50.0)),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_power_is_monotone_on_the_cone(pair, p):
    f, g = pair
    lo, hi = f.inf(g), f.sup(g)
    assert leq_with_tolerance(power(lo, p), power(hi, p), DEFAULT_TOL).ok


@given(
    element_family(count=1, values=st.floats(min_value=0.0, max_value=50.0)),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_power_round_trip(single, p):
    (f,) = single
    back = power(power(f, p), 1.0 / p)
    assert np.allclose(back.coords, f.coords, rtol=1e-10, atol=1e-12)


@given(element_family(count=2))
def test_multiply_commutes_and_distributes(pair):
    f, g = pair
    assert multiply(f, g).equals(multiply(g, f))
    fg = multiply(f + g, f)
    assert np.allclose(
        fg.coords, multiply(f, f).coords + multiply(g, f).coords, rtol=1e-12, atol=1e-12
    )


def test_scalar_arithmetic():
    space = SampleSpace.uniform(2)
    f = space.element([2.0, -4.0])
    assert np.array_equal((3.0 * f).coords, [6.0, -12.0])
    assert np.array_equal((f * 3.0).coords, [6.0, -12.0])
    assert np.array_equal((f / 2.0).coords, [1.0, -2.0])
    assert np.array_equal((-f).coords, [-2.0, 4.0])
    assert np.array_equal((f - f).coords, [0.0, 0.0])


def test_coords_are_immutable():
    f = SampleSpace.uniform(2).element([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coords[0] = 5.0


# --- halving folds ------------------------------------------------------------


def awkward_block(rng, rows, width):
    """Normal draws with signed zeros, infinities and NaNs sprinkled in."""
    x = rng.standard_normal((rows, width))
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.inf, 0.02), (-np.inf, 0.02), (np.nan, 0.01)):
        x[rng.random((rows, width)) < share] = value
    return x


def test_halving_fold_matches_the_reduce_on_both_axes():
    """Equal values and NaN positions; only a tie of -0.0 and +0.0 may keep
    the other sign.  No output reads that sign: decay_report folds |x|,
    which holds no -0.0, and series_report uses its extremes only in
    |s_N - extreme|, the same for either zero."""
    rng = np.random.default_rng(12)
    sign_ties = 0
    shapes = [(1, 1), (1, 9), (9, 1), (2, 3), (7, 8), (8, 7), (300, 40), (40, 300), (257, 13)]
    blocks = [awkward_block(rng, rows, min(width, 40)) for rows, width in shapes]
    blocks += [awkward_block(rng, *rng.integers(1, [300, 40])) for _ in range(20)]
    # Zero extremes: signed zeros over values of one sign only.
    blocks += [rng.choice([-0.0, 0.0, s * 1.5], size=(33, 6)) for s in (-1.0, 1.0)]
    for x in blocks:
        for ufunc, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            for axis in (0, 1):
                got, want = lattice.halving_fold(ufunc, x, axis), reduce(x, axis=axis)
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                sign_ties += int(np.sum(np.signbit(got) != np.signbit(want)))
                assert np.all(got[np.signbit(got) != np.signbit(want)] == 0.0)
                folded_abs = lattice.halving_fold(ufunc, np.abs(x), axis)
                assert not np.any(np.signbit(folded_abs))
    assert sign_ties > 0  # the grid reaches the tie it documents


def test_halving_fold_leaves_its_input_and_rejects_an_empty_axis():
    x = np.arange(12.0).reshape(3, 4)
    before = x.copy()
    assert lattice.halving_fold(np.maximum, x, 1).tolist() == [3.0, 7.0, 11.0]
    assert lattice.halving_fold(np.minimum, x, 0).tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.array_equal(x, before)
    # Callers keep one result per row block: a view would keep its halves.
    for axis in (0, 1):
        for block in (x, np.ones((9, 5)), np.ones((1, 3))):
            assert lattice.halving_fold(np.maximum, block, axis).base is None
    with pytest.raises(ValueError, match="empty axis"):
        lattice.halving_fold(np.maximum, np.zeros((0, 3)), 0)


@pytest.mark.parametrize("axis", [0, 1])
def test_halving_fold_takes_the_reduce_past_the_cut_and_folds_up_to_it(axis, monkeypatch):
    rng = np.random.default_rng(31)
    cut = lattice.FOLD_MAX_WIDTH[axis]
    calls = []
    fold = np.moveaxis
    monkeypatch.setattr(np, "moveaxis", lambda *a: calls.append(a[1:]) or fold(*a))
    for width in (1, cut - 1, cut, cut + 1, 2 * cut + 3, 256):
        for rows in (1, 2, 37):
            x = awkward_block(rng, rows, width)
            for ufunc in (np.maximum, np.minimum):
                calls.clear()
                got = lattice.halving_fold(ufunc, x, axis)
                assert np.array_equal(got, ufunc.reduce(x, axis=axis), equal_nan=True)
                assert bool(calls) == (width <= cut)  # folded, or reduced
                assert got.base is None
    with pytest.raises(ValueError, match="empty axis"):
        lattice.halving_fold(np.maximum, np.zeros((0, 300)), 0)
