"""Tests for partitions, averaging operators, filtrations, and their axioms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmart import (
    BadExponent,
    CompatibleTriple,
    ConditionalExpectationOp,
    Filtration,
    Incompatible,
    NotRefining,
    Partition,
    SampleSpace,
    SpaceMismatch,
    band_projection,
    default_filtration,
    lp_norm,
    make_filtration,
    multiply,
    verify_axioms,
)
from rieszmart.conditional import RaggedOps
from rieszmart.rng import SplitMix64
from chains import random_partition, refining_filtration


def block_average_oracle(space, blocks, values):
    """Straight double-loop weighted block average, independent of the library."""
    out = [0.0] * space.n
    for block in blocks:
        total = sum(space.weights[i] * values[i] for i in block)
        weight = sum(space.weights[i] for i in block)
        for i in block:
            out[i] = total / weight
    return np.array(out)


def tower_on_basis_holds(coarse, fine):
    """T_F T_C = T_C and T_C T_F = T_C on the canonical basis, in floating
    point at rtol 1e-12, atol 1e-14: the dense check Filtration and
    CompatibleTriple once ran at build time, kept as the reference oracle
    for their exact refines() test."""
    basis = np.eye(coarse.space.n)
    ce = coarse.apply_rows(basis)
    cf = coarse.apply_rows(fine.apply_rows(basis))
    return bool(
        np.allclose(fine.apply_rows(ce), ce, rtol=1e-12, atol=1e-14)
        and np.allclose(cf, ce, rtol=1e-12, atol=1e-14)
    )


def blocks_of(labels):
    """Partition blocks from one block label per atom."""
    return [np.flatnonzero(labels == lab).tolist() for lab in np.unique(labels)]


# --- partitions ---------------------------------------------------------------


def test_partition_canonical_order_and_lookup():
    space = SampleSpace.uniform(4)
    part = Partition(space, [[3, 2], [0, 1]])
    assert part.blocks == ((0, 1), (2, 3))
    assert list(part.block_id) == [0, 0, 1, 1]
    assert part.num_blocks == 2


def test_partition_validation():
    space = SampleSpace.uniform(3)
    with pytest.raises(ValueError):
        Partition(space, [[0, 1]])  # atom 2 missing
    with pytest.raises(ValueError):
        Partition(space, [[0, 1], [1, 2]])  # atom 1 twice
    with pytest.raises(ValueError):
        Partition(space, [[0, 1, 2], []])  # empty block


def test_singletons_and_single_block():
    space = SampleSpace.uniform(3)
    fine = Partition.singletons(space)
    coarse = Partition.single_block(space)
    assert fine.is_singletons
    assert not coarse.is_singletons
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.refines(fine)


def test_split_largest_halves_top_block():
    space = SampleSpace.uniform(5)
    part = Partition.single_block(space)
    once = part.split_largest()
    assert once.blocks == ((0, 1, 2), (3, 4))
    twice = once.split_largest()
    assert twice.blocks == ((0, 1), (2,), (3, 4))
    # Splitting singletons is a fixed point.
    fine = Partition.singletons(space)
    assert fine.split_largest() is fine


# --- the operator vs the loop oracle ------------------------------------------


def test_apply_uniform_hand_case():
    space = SampleSpace.uniform(4)
    op = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    out = op.apply(space.element([1.0, 3.0, 5.0, 7.0]))
    assert np.array_equal(out.coords, [2.0, 2.0, 6.0, 6.0])


def test_apply_weighted_hand_case():
    space = SampleSpace([0.1, 0.3, 0.3, 0.3])
    op = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    out = op.apply(space.element([1.0, 3.0, 5.0, 7.0]))
    assert np.allclose(out.coords, [2.5, 2.5, 6.0, 6.0], rtol=0, atol=1e-15)


def test_apply_matches_loop_oracle_on_random_draws():
    stream = SplitMix64(314)
    for trial in range(50):
        n = 1 + stream.below(8)
        weights = stream.uniforms(n, 0.05, 1.0)
        space = SampleSpace(weights)
        # Random partition: shuffle atoms, cut at random points.
        atoms = list(range(n))
        for i in range(n - 1, 0, -1):
            j = stream.below(i + 1)
            atoms[i], atoms[j] = atoms[j], atoms[i]
        k = 1 + stream.below(n)
        cuts = sorted({1 + stream.below(n - 1) for _ in range(k - 1)} | {n})
        blocks, lo = [], 0
        for hi in cuts:
            blocks.append(atoms[lo:hi])
            lo = hi
        part = Partition(space, blocks)
        op = ConditionalExpectationOp(part)
        values = stream.uniforms(n, -5.0, 5.0)
        expected = block_average_oracle(space, blocks, values)
        got = op.apply(space.element(values))
        assert np.allclose(got.coords, expected, rtol=1e-13, atol=1e-13), f"trial {trial}"


def test_apply_array_and_rows_match_apply():
    space = SampleSpace([0.2, 0.1, 0.4, 0.3])
    op = ConditionalExpectationOp(Partition(space, [[0, 2], [1], [3]]))
    stream = SplitMix64(9)
    rows = np.array([stream.uniforms(4, -2.0, 2.0) for _ in range(3)])
    via_rows = op.apply_rows(rows)
    stacked = op.apply_array(rows)
    for i in range(3):
        single = op.apply(space.element(rows[i])).coords
        # The stacked block sum adds each row's terms in apply's order.
        assert np.array_equal(op.apply_array(rows[i]), single)
        assert np.array_equal(stacked[i], single)
        assert np.allclose(via_rows[i], single, rtol=1e-12, atol=1e-14)
    assert op.apply_array(rows[:0]).shape == (0, 4)


def old_apply_array(op, values):
    """ConditionalExpectationOp.apply_array as it had its own bincount."""
    part, rows = op.partition, np.atleast_2d(values)
    size = len(rows) * part.num_blocks
    bins = part.block_id + np.arange(0, size, part.num_blocks)[:, None]
    weighted = (rows * op.space.weights).ravel()
    sums = np.bincount(bins.ravel(), weights=weighted, minlength=size)
    means = sums.reshape(len(rows), part.num_blocks) / op.block_weight
    return means[:, part.block_id].reshape(np.shape(values))


def old_block_max_array(op, values):
    """ConditionalExpectationOp.block_max_array as it had its own maximum.at."""
    part, rows = op.partition, np.atleast_2d(values)
    maxima = np.full(part.num_blocks, -np.inf)
    np.maximum.at(maxima, np.tile(part.block_id, len(rows)), rows.ravel())
    return maxima[part.block_id]


def old_ragged_apply(ops, values):
    """RaggedOps.apply as it took one row of all trials' atoms."""
    sums = np.bincount(ops.bins, weights=values * ops.weights, minlength=len(ops.block_weight))
    return (sums / ops.block_weight)[ops.bins]


def signed_values(stream, shape):
    """Uniforms with zeros of both signs and tiny values mixed in."""
    values = stream.uniforms(int(np.prod(shape)), -2.0, 2.0)
    pick = stream.floats(values.size)
    values = np.where(pick < 0.1, 0.0, np.where(pick < 0.2, -0.0, values))
    return np.where((0.2 <= pick) & (pick < 0.25), values * 1e-300, values).reshape(shape)


def test_one_operator_path_matches_the_bodies_it_replaced():
    stream = SplitMix64(41)
    for _ in range(200):
        dim = 1 + stream.below(32)
        space = SampleSpace(stream.uniforms(dim, 0.05, 1.0))
        op = ConditionalExpectationOp(random_partition(stream, space))
        for shape in ((dim,), (1, dim), (1 + stream.below(4), dim), (0, dim), (3, 2, dim)):
            values = signed_values(stream, shape)
            rows = values.reshape(-1, dim)  # the old bodies took one row or a 2-d stack
            want = old_apply_array(op, values if len(shape) < 3 else rows).reshape(shape)
            assert op.apply_array(values).tobytes() == want.tobytes()
            assert op.apply_array(values).shape == shape
            if values.size:
                got = op.ragged.block_max(values)
                assert got.tobytes() == old_block_max_array(op, rows).tobytes()


def test_ragged_rows_match_the_one_row_body_it_replaced():
    stream = SplitMix64(43)
    for _ in range(100):
        n = np.array([1 + stream.below(16) for _ in range(1 + stream.below(6))])
        starts = np.concatenate(([0], np.cumsum(n)))
        parts = [random_partition(stream, SampleSpace.uniform(m)) for m in n.tolist()]
        ops = RaggedOps(
            starts,
            stream.uniforms(int(n.sum()), 0.05, 1.0),
            np.concatenate([p.block_id for p in parts]),
            np.array([p.num_blocks for p in parts]),
        )
        rows = signed_values(stream, (3, int(n.sum())))
        stacked = ops.apply(rows)
        for row, got in zip(rows, stacked):
            assert ops.apply(row).tobytes() == got.tobytes() == old_ragged_apply(ops, row).tobytes()


def test_apply_rows_returns_the_rows_for_the_identity():
    space = SampleSpace([0.2, 0.1, 0.4, 0.3])
    op = ConditionalExpectationOp(Partition.singletons(space))
    rows = np.array([[1.5, -2.0, 0.0, 3.25], [0.0, 1e-300, -7.0, 2.0]])
    assert op.apply_rows(rows) is rows
    # The dense product it skips gives the same values.
    assert np.array_equal(rows @ op.matrix().T, rows)


def test_matrix_is_stochastic_and_idempotent():
    space = SampleSpace([0.1, 0.2, 0.3, 0.4])
    op = ConditionalExpectationOp(Partition(space, [[0, 1, 2], [3]]))
    m = op.matrix()
    assert np.allclose(m.sum(axis=1), 1.0)
    assert np.allclose(m @ m, m, atol=1e-14)
    f = space.element([1.0, -1.0, 2.0, 0.5])
    assert np.allclose(m @ f.coords, op.apply(f).coords, atol=1e-14)


def test_fixes_and_fixes_exactly():
    space = SampleSpace.uniform(4)
    op = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    flat = space.element([2.0, 2.0, 6.0, 6.0])
    assert op.fixes_exactly(flat)
    assert op.fixes(flat)
    nudged = space.element([2.0, 2.0 + 1e-13, 6.0, 6.0])
    assert not op.fixes_exactly(nudged)
    assert op.fixes(nudged)  # inside the default slack
    assert not op.fixes(space.element([1.0, 3.0, 5.0, 7.0]))


def test_block_max_matches_loop():
    space = SampleSpace([0.1, 0.2, 0.3, 0.2, 0.2])
    blocks = [[0, 3], [1], [2, 4]]
    op = ConditionalExpectationOp(Partition(space, blocks))
    f = space.element([1.0, -2.0, 0.5, 4.0, 3.0])
    got = op.block_max(f)
    expected = np.empty(5)
    for block in blocks:
        m = max(f.coords[i] for i in block)
        for i in block:
            expected[i] = m
    assert np.array_equal(got.coords, expected)


def test_identity_operator():
    space = SampleSpace.uniform(3)
    op = ConditionalExpectationOp(Partition.singletons(space))
    assert op.is_identity
    f = space.element([1.0, -2.0, 3.0])
    assert op.apply(f).equals(f)


def test_apply_space_mismatch():
    op = ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(2)))
    with pytest.raises(SpaceMismatch):
        op.apply(SampleSpace.uniform(3).unit())


# --- range-valued norms --------------------------------------------------------


def test_lp_norm_hand_cases():
    space = SampleSpace.uniform(2)
    op = ConditionalExpectationOp(Partition.single_block(space))
    f = space.element([3.0, -4.0])
    two = lp_norm(op, f, 2.0)
    assert np.allclose(two.coords, [math.sqrt(12.5)] * 2, rtol=1e-15)
    top = lp_norm(op, f, math.inf)
    assert np.array_equal(top.coords, [4.0, 4.0])
    one = lp_norm(op, f, 1.0)
    assert np.array_equal(one.coords, [3.5, 3.5])


def test_lp_norm_identity_partition_is_abs():
    space = SampleSpace.uniform(3)
    op = ConditionalExpectationOp(Partition.singletons(space))
    f = space.element([1.0, -2.0, 0.0])
    for p in (1.0, 2.0, 3.5, math.inf):
        assert np.allclose(lp_norm(op, f, p).coords, [1.0, 2.0, 0.0], atol=1e-15)


def test_lp_norm_rejects_p_below_one():
    space = SampleSpace.uniform(2)
    op = ConditionalExpectationOp(Partition.single_block(space))
    with pytest.raises(BadExponent):
        lp_norm(op, space.unit(), 0.5)


def test_lp_norm_rejects_a_nan_exponent_and_keeps_inf():
    space = SampleSpace.uniform(2)
    op = ConditionalExpectationOp(Partition.single_block(space))
    f = space.element([1.0, -3.0])
    with pytest.raises(BadExponent):
        lp_norm(op, f, math.nan)
    assert lp_norm(op, f, math.inf).coords.tolist() == [3.0, 3.0]


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=1.0, max_value=4.0))
def test_lp_norm_is_monotone_in_p(dim, p):
    # Jensen: for q >= p the q-norm dominates the p-norm under averaging.
    space = SampleSpace.uniform(dim)
    op = ConditionalExpectationOp(Partition.single_block(space))
    stream = SplitMix64(dim * 1000 + int(p * 10))
    f = space.element(stream.uniforms(dim, -3.0, 3.0))
    lo = lp_norm(op, f, p)
    hi = lp_norm(op, f, p + 0.5)
    assert np.all(lo.coords <= hi.coords + 1e-9)


# --- axioms ---------------------------------------------------------------------


def test_verify_axioms_identity_and_single_block():
    for n in (1, 2, 5):
        space = SampleSpace.uniform(n)
        for part in (Partition.singletons(space), Partition.single_block(space)):
            report = verify_axioms(ConditionalExpectationOp(part), trials=40, seed=7)
            assert report.passed, report.failures[:2]
            assert report.min_margin > -1e-10


def test_verify_axioms_random_partitions():
    space = SampleSpace([0.1, 0.15, 0.2, 0.25, 0.3])
    report = verify_axioms(
        ConditionalExpectationOp(Partition(space, [[0, 4], [1, 2], [3]])),
        trials=60,
        seed=11,
    )
    assert report.passed
    assert report.failure_count == 0


def test_averaging_identity_directly():
    space = SampleSpace([0.4, 0.1, 0.1, 0.4])
    op = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    stream = SplitMix64(5)
    f = space.element(stream.uniforms(4, -2.0, 2.0))
    g = space.element(stream.uniforms(4, -2.0, 2.0))
    lhs = op.apply(multiply(op.apply(f), g))
    rhs = multiply(op.apply(f), op.apply(g))
    assert np.allclose(lhs.coords, rhs.coords, rtol=1e-12, atol=1e-14)


def test_commutes_with_band_projection_on_block_constant_generator():
    space = SampleSpace([0.1, 0.3, 0.3, 0.3])
    op = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    g = space.element([1.0, 1.0, 0.0, 0.0])  # indicator of the first block
    proj = band_projection(g)
    stream = SplitMix64(77)
    for _ in range(20):
        f = space.element(stream.uniforms(4, -4.0, 4.0))
        assert op.apply(proj.apply(f)).equals(proj.apply(op.apply(f)))


# --- filtrations -----------------------------------------------------------------


def test_make_filtration_valid_chain():
    space = SampleSpace.uniform(4)
    filt = make_filtration(space, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    assert len(filt) == 3
    assert filt[0].partition.num_blocks == 1
    assert filt[2].is_identity


def test_make_filtration_rejects_crossing():
    space = SampleSpace.uniform(4)
    with pytest.raises(NotRefining):
        make_filtration(space, [[[0, 1], [2, 3]], [[0, 2], [1, 3]]])
    # A crossing stage after a stage repeated by reference is still caught.
    halves = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    crossing = ConditionalExpectationOp(Partition(space, [[0, 2], [1, 3]]))
    with pytest.raises(NotRefining):
        Filtration([halves, halves, crossing])
    # The oracle sees the crossing pair too, so it is no vacuous reference.
    assert not tower_on_basis_holds(halves, crossing)


def test_filtration_allows_repeated_stage():
    space = SampleSpace.uniform(4)
    filt = make_filtration(space, [[[0, 1], [2, 3]], [[0, 1], [2, 3]]])
    assert len(filt) == 2


def test_filtration_tower_property_on_random_elements():
    space = SampleSpace([0.2, 0.2, 0.1, 0.1, 0.4])
    filt = make_filtration(
        space, [[[0, 1, 2, 3, 4]], [[0, 1], [2, 3, 4]], [[0], [1], [2], [3, 4]]]
    )
    stream = SplitMix64(123)
    for _ in range(20):
        f = space.element(stream.uniforms(5, -3.0, 3.0))
        for i in range(len(filt)):
            for j in range(i + 1, len(filt)):
                ij = filt[i].apply(filt[j].apply(f))
                ji = filt[j].apply(filt[i].apply(f))
                ti = filt[i].apply(f)
                assert np.allclose(ij.coords, ti.coords, atol=1e-13)
                assert np.allclose(ji.coords, ti.coords, atol=1e-13)


def test_filtration_needs_a_stage_and_one_space():
    with pytest.raises(ValueError):
        make_filtration(SampleSpace.uniform(2), [])
    a = ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(2)))
    b = ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(3)))
    with pytest.raises(SpaceMismatch):
        from rieszmart.conditional import Filtration

        Filtration([a, b])



def filtration_error_by_loop(ops):
    """Reference Filtration checks: every stage's space, then every
    consecutive pair, one stage at a time."""
    for k, op in enumerate(ops):
        if op.space != ops[0].space:
            return SpaceMismatch, f"stage {k} lives on a different space"
    for k, (coarse, fine) in enumerate(zip(ops, ops[1:])):
        if fine is not coarse and not fine.partition.refines(coarse.partition):
            return NotRefining, f"stage {k + 1} does not refine stage {k}"
    return None


def test_filtration_errors_name_the_stage_the_per_stage_loop_names():
    from rieszmart.conditional import Filtration

    space = SampleSpace.uniform(4)
    top = ConditionalExpectationOp(Partition.single_block(space))
    halves = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    halves2 = ConditionalExpectationOp(Partition(space, [[0, 1], [2, 3]]))
    crossing = ConditionalExpectationOp(Partition(space, [[0, 2], [1, 3]]))
    fine = ConditionalExpectationOp(Partition.singletons(space))
    other = ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(3)))
    cases = [
        [top, top, top, halves, crossing],
        [top, halves, halves, halves2, halves, crossing, crossing],
        [halves, halves, fine, fine, halves],
        [top, halves, crossing, crossing, other],
        [top, top, other, other, crossing],
        [fine, fine, fine, top],
        [top, halves, halves2, fine, fine],
    ]
    raised = 0
    for ops in cases:
        expected = filtration_error_by_loop(ops)
        if expected is None:
            assert len(Filtration(ops)) == len(ops)
            continue
        with pytest.raises(expected[0]) as err:
            Filtration(ops)
        assert str(err.value) == expected[1]
        raised += 1
    assert raised == 6


def test_compatible_triple():
    space = SampleSpace.uniform(4)
    base = ConditionalExpectationOp(Partition.single_block(space))
    filt = make_filtration(space, [[[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    CompatibleTriple(base, filt)  # must not raise

    crossing_base = ConditionalExpectationOp(Partition(space, [[0, 2], [1, 3]]))
    with pytest.raises(Incompatible):
        CompatibleTriple(crossing_base, filt)

    other = ConditionalExpectationOp(Partition.single_block(SampleSpace.uniform(3)))
    with pytest.raises(Incompatible):
        CompatibleTriple(other, filt)

    halves = filt[0]
    shared = Filtration([halves, halves, filt[1]])
    CompatibleTriple(halves, shared)  # the base may be the first stage itself
    with pytest.raises(Incompatible):
        CompatibleTriple(crossing_base, shared)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_refines_implies_tower_identities_on_basis(n, seed):
    # Random refining chains with weights spanning 1e-12 .. 1: wherever the
    # exact refines() test passes, the dense basis identities hold too.
    rng = np.random.default_rng(seed)
    space = SampleSpace(10.0 ** rng.uniform(-12.0, 0.0, n))
    labels = rng.integers(0, 1 + rng.integers(0, 3), n)
    base = ConditionalExpectationOp(Partition(space, blocks_of(labels)))
    ops = []
    for _ in range(5):
        labels = labels * 4 + rng.integers(0, 1 + rng.integers(0, 3), n)
        op = ConditionalExpectationOp(Partition(space, blocks_of(labels)))
        ops.append(op)
        if rng.random() < 0.3:
            ops.append(op)  # a stage repeated by reference
    filt = Filtration(ops)
    CompatibleTriple(base, filt)
    pairs = [(base, ops[0])] + list(zip(ops, ops[1:]))
    for coarse, fine in pairs:
        if fine is coarse:
            continue
        assert fine.partition.refines(coarse.partition)
        assert tower_on_basis_holds(coarse, fine)


def test_split_largest_chains_share_the_singleton_operator():
    space = SampleSpace([0.1, 0.2, 0.3, 0.25, 0.15])
    filt = default_filtration(space, 9)
    # Same stages as one fresh operator per split-largest partition.
    parts = [Partition.single_block(space)]
    while len(parts) < 9:
        parts.append(parts[-1].split_largest())
    assert len(filt) == 9
    assert filt.to_json_dict() == [p.to_json_dict() for p in parts]
    assert [filt[i].partition for i in range(9)] == parts
    assert len({id(op) for op in filt.ops[:5]}) == 5
    assert all(op is filt[4] for op in filt.ops[4:])
    assert filt[4].is_identity and not filt[3].is_identity
    assert len(default_filtration(space, 3)) == 3

    for seed in range(20):
        chain = refining_filtration(SplitMix64(seed), space, 12)
        assert len(chain) == 12
        first = next(i for i, op in enumerate(chain) if op.is_identity)
        assert all(op is chain[first] for op in chain.ops[first:])
        assert len({id(op) for op in chain.ops[: first + 1]}) == first + 1
        for coarse, fine in zip(chain.ops[:first], chain.ops[1 : first + 1]):
            assert fine.partition == coarse.partition.split_largest()
