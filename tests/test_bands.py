"""Band projections: support masking, the sup-formula oracle, set identities."""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    BandProjection,
    NegativeArgument,
    NegativeGenerator,
    SampleSpace,
    SpaceMismatch,
    apply_sup_formula_oracle,
    band_projection,
    check_exclusion_inequality,
    check_inf_inequality,
    check_sup_identity,
    compose_all,
)
from rieszmart.rng import SplitMix64


def sparse_nonneg(stream, space, hi=5.0):
    vals = stream.uniforms(space.n, 0.0, hi)
    for i in range(space.n):
        if stream.next_float() < 0.4:
            vals[i] = 0.0
    return space.element(vals)


# --- projection mechanics ----------------------------------------------------


def test_projection_hand_case():
    space = SampleSpace.uniform(4)
    g = space.element([0.0, 2.0, 0.0, 1.0])
    proj = band_projection(g)
    assert proj.support == (1, 3)
    f = space.element([5.0, 5.0, 5.0, 5.0])
    assert np.array_equal(proj.apply(f).coords, [0.0, 5.0, 0.0, 5.0])
    assert np.array_equal(proj.co_apply(f).coords, [5.0, 0.0, 5.0, 0.0])
    assert (proj.apply(f) + proj.co_apply(f)).equals(f)


def test_support_is_exact_no_epsilon():
    space = SampleSpace.uniform(3)
    tiny = space.element([1e-300, 0.0, 1.0])
    assert band_projection(tiny).support == (0, 2)


def test_negative_generator_rejected():
    space = SampleSpace.uniform(2)
    with pytest.raises(NegativeGenerator):
        band_projection(space.element([1.0, -0.5]))


def test_identity_zero_complement_compose_leq():
    space = SampleSpace.uniform(4)
    ident = BandProjection.identity(space)
    zero = BandProjection.zero(space)
    p = BandProjection(space, [0, 2])
    q = BandProjection(space, [2, 3])
    assert ident.support == (0, 1, 2, 3)
    assert zero.support == ()
    assert p.compose(q).support == (2,)
    assert p.complement().support == (1, 3)
    assert p.complement().complement() == p
    assert zero.leq(p) and p.leq(ident)
    assert not p.leq(q)
    assert p.compose(p) == p
    assert p.compose(p.complement()) == zero
    # Any iterable of atoms, in any order and with repeats, names one projection.
    assert BandProjection(space, {2, 0}) == p == BandProjection(space, (2, 0, 2))
    assert hash(BandProjection(space, np.array([2, 0]))) == hash(p)
    assert p != BandProjection(SampleSpace.uniform(5), [0, 2])
    assert all(type(a) is int for a in p.support)
    with pytest.raises(SpaceMismatch):
        p.leq(BandProjection.identity(SampleSpace.uniform(5)))
    f = space.element([1.0, 2.0, 3.0, 4.0])
    assert ident.apply(f).equals(f)
    assert zero.apply(f).max_abs() == 0.0


def test_projection_support_validation_and_mismatch():
    space = SampleSpace.uniform(3)
    with pytest.raises(ValueError):
        BandProjection(space, [3])
    with pytest.raises(ValueError):
        BandProjection(space, [-1])
    p = BandProjection(space, [0])
    with pytest.raises(SpaceMismatch):
        p.apply(SampleSpace.uniform(2).unit())
    with pytest.raises(SpaceMismatch):
        p.compose(BandProjection(SampleSpace.uniform(2), [0]))


def test_projection_is_lattice_and_linear_map():
    space = SampleSpace.uniform(5)
    proj = BandProjection(space, [0, 3, 4])
    stream = SplitMix64(21)
    for _ in range(30):
        f = space.element(stream.uniforms(5, -5.0, 5.0))
        g = space.element(stream.uniforms(5, -5.0, 5.0))
        assert proj.apply(f.sup(g)).equals(proj.apply(f).sup(proj.apply(g)))
        assert proj.apply(f.inf(g)).equals(proj.apply(f).inf(proj.apply(g)))
        assert proj.apply(f + g).equals(proj.apply(f) + proj.apply(g))
        assert proj.apply(proj.apply(f)).equals(proj.apply(f))
    h = space.element([1.0, 2.0, 3.0, 4.0, 5.0])
    assert proj.apply(h).is_nonnegative()
    assert np.all(proj.apply(h).coords <= h.coords)


def test_compose_all():
    space = SampleSpace.uniform(4)
    ps = [BandProjection(space, s) for s in ([0, 1, 2], [1, 2, 3], [2, 3])]
    assert compose_all(ps).support == (2,)
    with pytest.raises(ValueError):
        compose_all([])


# --- the order-theoretic oracle ------------------------------------------------


def test_sup_formula_hand_case():
    space = SampleSpace.uniform(4)
    g = space.element([0.0, 2.0, 0.0, 1.0])
    f = space.element([5.0, 5.0, 5.0, 5.0])
    result = apply_sup_formula_oracle(g, f)
    assert np.array_equal(result.value.coords, [0.0, 5.0, 0.0, 5.0])
    assert result.bound == 6
    assert result.stabilized_at == 5
    assert result.stabilized_at <= result.bound


def test_sup_formula_unit_case():
    space = SampleSpace.uniform(3)
    e = space.unit()
    result = apply_sup_formula_oracle(e, e)
    assert result.value.equals(e)
    assert result.stabilized_at == 1
    assert result.bound == 2


def test_sup_formula_zero_generator():
    space = SampleSpace.uniform(3)
    result = apply_sup_formula_oracle(space.zero(), space.unit())
    assert result.value.max_abs() == 0.0
    assert result.stabilized_at == 1


def test_sup_formula_raises():
    space = SampleSpace.uniform(2)
    with pytest.raises(NegativeGenerator):
        apply_sup_formula_oracle(space.element([-1.0, 1.0]), space.unit())
    with pytest.raises(NegativeArgument):
        apply_sup_formula_oracle(space.unit(), space.element([-1.0, 1.0]))
    with pytest.raises(SpaceMismatch):
        apply_sup_formula_oracle(space.unit(), SampleSpace.uniform(3).unit())


def test_sup_formula_agrees_with_masking_on_random_draws():
    stream = SplitMix64(808)
    for trial in range(200):
        space = SampleSpace.uniform(1 + stream.below(8))
        g = sparse_nonneg(stream, space)
        f = sparse_nonneg(stream, space, hi=10.0)
        result = apply_sup_formula_oracle(g, f)
        masked = band_projection(g).apply(f)
        assert result.value.equals(masked), f"trial {trial}"
        assert result.stabilized_at <= result.bound, f"trial {trial}"


def test_sup_formula_long_scan_is_bounded():
    # The first stable n is 10^7; stepping there one n at a time takes ~1 min.
    space = SampleSpace.uniform(2)
    start = time.perf_counter()
    result = apply_sup_formula_oracle(space.element([1e-2, 0.0]), space.element([1e5, 0.0]))
    assert time.perf_counter() - start < 1.0
    assert result.stabilized_at == 10**7
    assert result.bound == 10**7 + 1
    assert result.value.equals(space.element([1e5, 0.0]))


@pytest.mark.parametrize(
    "f, g",
    [
        # fl(n * 1e-17) = fl((n + 1) * 1e-17) from n = 2^53 on, so a search
        # past 2^52 stopped early and returned 0.0844 at atom 0 (mask: 1).
        ([1.0, 1.0], [1e-17, 1.0]),
        # max f / min g overflows: a RuntimeWarning, then OverflowError.
        ([1e200, 1.0], [1e-200, 1.0]),
        # Just above 2^52.
        ([2.0**52 + 2.0, 1.0], [1.0, 1.0]),
    ],
)
def test_sup_formula_rejects_a_ratio_above_2_to_the_52(f, g):
    space = SampleSpace.uniform(2)
    with pytest.raises(ValueError, match="2\\^52"):
        apply_sup_formula_oracle(space.element(g), space.element(f))


def test_sup_formula_at_2_to_the_52_and_with_huge_generators():
    space = SampleSpace.uniform(2)
    f = space.element([2.0**52, 1.0])
    result = apply_sup_formula_oracle(space.unit(), f)
    assert result.value.equals(f)
    assert result.stabilized_at == 2**52
    # n g overflows to inf at the second atom, which is above f there, as n g is.
    g = space.element([1e-10, 1e300])
    result = apply_sup_formula_oracle(g, space.unit())
    assert result.value.equals(band_projection(g).apply(space.unit()))
    assert result.stabilized_at == 10**10


def linear_sup_scan(g, f):
    """The step-by-step scan the search replaced: (value, stabilized_at)."""
    current = np.minimum(f.coords, g.coords)
    n = 1
    while True:
        nxt = np.minimum(f.coords, (n + 1) * g.coords)
        if np.array_equal(nxt, current):
            return current, n
        current = nxt
        n += 1


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_sup_formula_search_matches_linear_scan(seed):
    # f, g >= 0 with exact zeros, g log-uniform over four decades, and half
    # of the f_i exact multiples fl(k g_i), where stability lands on the
    # boundary; max f / min positive g <= 2 * 10^4.
    stream = SplitMix64(seed)
    n = 1 + stream.below(6)
    g = np.where(stream.floats(n) < 0.3, 0.0, 10.0 ** stream.uniforms(n, -3.0, 1.0))
    f = stream.uniforms(n, 0.0, 19.0)
    edge = (g > 0.0) & (stream.floats(n) < 0.5)
    f[edge] = np.floor(f[edge] / g[edge]) * g[edge]
    space = SampleSpace.uniform(n)
    result = apply_sup_formula_oracle(space.element(g), space.element(f))
    value, stabilized_at = linear_sup_scan(space.element(g), space.element(f))
    assert result.stabilized_at == stabilized_at
    assert np.array_equal(result.value.coords, value)
    assert result.stabilized_at <= result.bound <= 2 * 10**4 + 1


# --- set identities --------------------------------------------------------------


def test_sup_identity_hand_case():
    space = SampleSpace.uniform(3)
    report = check_sup_identity(
        [space.element([1.0, 0.0, 0.0]), space.element([0.0, 0.0, 2.0])]
    )
    assert report.passed
    assert report.details["support_size"] == 2


def test_inf_inequality_hand_case():
    space = SampleSpace.uniform(2)
    report = check_inf_inequality(
        [space.element([1.0, 1.0]), space.element([1.0, 0.0])]
    )
    assert report.passed
    # On atoms the support of the pointwise minimum is exactly the
    # intersection, so the containment is never strict here.
    assert report.details["strict"] is False


def test_exclusion_hand_case():
    space = SampleSpace.uniform(2)
    report = check_exclusion_inequality(
        [space.element([1.0, -1.0]), space.element([-1.0, 1.0])]
    )
    assert report.passed
    assert report.failure_count == 0


def test_set_identities_on_random_families():
    stream = SplitMix64(4242)
    for trial in range(200):
        space = SampleSpace.uniform(1 + stream.below(10))
        count = 2 + stream.below(3)
        nonneg = [sparse_nonneg(stream, space) for _ in range(count)]
        signed = [
            space.element(stream.uniforms(space.n, -3.0, 3.0)) for _ in range(count)
        ]
        assert check_sup_identity(nonneg).passed, f"trial {trial}"
        assert check_inf_inequality(nonneg).passed, f"trial {trial}"
        assert check_exclusion_inequality(signed).passed, f"trial {trial}"


@given(st.integers(min_value=1, max_value=64))
def test_sup_identity_scales_to_long_families(count):
    # Families up to length ~50 and beyond keep the exact identity.
    space = SampleSpace.uniform(6)
    stream = SplitMix64(count)
    family = [sparse_nonneg(stream, space) for _ in range(count)]
    assert check_sup_identity(family).passed
    assert check_inf_inequality(family).passed
