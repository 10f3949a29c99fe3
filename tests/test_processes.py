"""Adapted processes, classification, square functions, seeded generators."""

import re
from dataclasses import replace

import numpy as np
import pytest

from rieszmart import (
    GeneratorConfig,
    NotAdapted,
    NotDifferenceSequence,
    NotSubmartingale,
    ProcessSequence,
    SampleSpace,
    classify,
    default_filtration,
    generate_mds,
    generate_submartingale,
    increments,
    is_adapted,
    is_difference_sequence,
    make_filtration,
    partial_sums,
    positive_part_process,
    require_difference_sequence,
    square_function,
)
from rieszmart import lattice, processes
from rieszmart.lattice import DEFAULT_TOL
from rieszmart.processes import (
    MARTINGALE,
    NONE,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    _stage_groups,
    make_space,
)
from rieszmart.conditional import ConditionalExpectationOp, Filtration, Partition
from rieszmart.errors import GeneratorResidual
from rieszmart.rng import SplitMix64, derive_seed, seeds_at
from chains import refining_filtration, tamper


def constant_process(space, steps, value):
    filt = default_filtration(space, steps)
    return ProcessSequence(filt, np.full((steps, space.n), float(value)))


def classify_full_matrix(process, tol=DEFAULT_TOL):
    """Reference classify: every distinct operator transforms all stages,
    including those before its first use that are never compared."""
    if not is_adapted(process, tol):
        raise NotAdapted("process value not fixed by its stage operator")
    mat = process.values
    count = mat.shape[0]
    if count < 2:
        return MARTINGALE
    slack = tol.abs + tol.rel * float(np.max(np.abs(mat)))
    is_sub = True
    is_super = True
    for op, idx in op_groups_by_dict(list(process.filtration)[: count - 1]):
        idx = np.asarray(idx)
        transformed = mat if op.is_identity else op.apply_rows(mat)
        suff_min = np.minimum.accumulate(transformed[::-1], axis=0)[::-1]
        suff_max = np.maximum.accumulate(transformed[::-1], axis=0)[::-1]
        here = mat[idx]
        if is_sub and np.any(suff_min[idx + 1] < here - slack):
            is_sub = False
        if is_super and np.any(suff_max[idx + 1] > here + slack):
            is_super = False
        if not (is_sub or is_super):
            return NONE
    if is_sub and is_super:
        return MARTINGALE
    return SUBMARTINGALE if is_sub else SUPERMARTINGALE


# --- container basics -----------------------------------------------------------


def test_process_sequence_validation():
    space = SampleSpace.uniform(3)
    filt = default_filtration(space, 2)
    with pytest.raises(ValueError):
        ProcessSequence(filt, np.zeros((3, 3)))  # wrong step count
    with pytest.raises(ValueError):
        ProcessSequence(filt, np.zeros((2, 2)))  # wrong dimension
    bad = np.zeros((2, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        ProcessSequence(filt, bad)


def test_process_sequence_copies_what_a_caller_passes_in():
    space = SampleSpace.uniform(3)
    filt = default_filtration(space, 2)
    given = np.arange(6.0).reshape(2, 3)
    proc = ProcessSequence(filt, given)
    assert given.flags.writeable
    assert not np.shares_memory(proc.values, given)
    given[0, 0] = 99.0
    assert proc.values[0, 0] == 0.0
    assert not proc.values.flags.writeable


def test_derived_processes_own_fresh_arrays_and_validate_them():
    diffs = generate_mds(GeneratorConfig(seed=5, dim=4, steps=9))
    sums = partial_sums(diffs)
    derived = [sums, square_function(sums), positive_part_process(sums)]
    for mode in ("positive-part", "drift"):
        derived.append(generate_submartingale(GeneratorConfig(5, 4, 9), mode))
    for proc in derived:
        assert not proc.values.flags.writeable
        assert not np.shares_memory(proc.values, diffs.values)
    assert np.array_equal(sums.values, np.cumsum(diffs.values, axis=0))
    with pytest.raises(ValueError, match="finite"):
        ProcessSequence._owning(diffs.filtration, np.full((9, 4), np.inf))
    with pytest.raises(ValueError, match="expected 9 x 4"):
        ProcessSequence._owning(diffs.filtration, np.zeros((9, 3)))


def test_process_sequence_indexing_and_csv():
    space = SampleSpace.uniform(2)
    filt = default_filtration(space, 2)
    proc = ProcessSequence(filt, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(proc) == 2
    assert np.array_equal(proc[1].coords, [3.0, 4.0])
    lines = proc.to_csv().strip().split("\n")
    assert lines[0] == "step,atom,value"
    assert lines[1] == "1,0,1.0"
    assert lines[4] == "2,1,4.0"


def test_increments_uses_zero_start():
    space = SampleSpace.uniform(2)
    filt = default_filtration(space, 3)
    proc = ProcessSequence(filt, np.array([[1.0, 1.0], [3.0, 0.0], [3.0, 2.0]]))
    inc = increments(proc)
    assert np.array_equal(inc, [[1.0, 1.0], [2.0, -1.0], [0.0, 2.0]])


# --- classification ---------------------------------------------------------------


def test_classify_constant_is_martingale():
    space = SampleSpace.uniform(4)
    assert classify(constant_process(space, 5, 2.5)) == MARTINGALE


def test_classify_linear_drift_is_submartingale():
    space = SampleSpace.uniform(4)
    filt = default_filtration(space, 5)
    values = np.array([[float(i + 1)] * 4 for i in range(5)])
    proc = ProcessSequence(filt, values)
    assert classify(proc) == SUBMARTINGALE
    down = ProcessSequence(filt, -values)
    assert classify(down) == SUPERMARTINGALE


def test_classify_oscillation_is_none():
    space = SampleSpace.uniform(1)
    filt = default_filtration(space, 3)
    proc = ProcessSequence(filt, np.array([[1.0], [0.0], [2.0]]))
    assert classify(proc) == NONE


def test_classify_single_stage_defaults_to_martingale():
    # One stage means no pairs to compare; only adaptedness is checked.
    space = SampleSpace.uniform(2)
    proc = ProcessSequence(default_filtration(space, 1), np.array([[2.0, 2.0]]))
    assert classify(proc) == MARTINGALE


def test_classify_rejects_non_adapted():
    space = SampleSpace.uniform(4)
    filt = default_filtration(space, 2)
    # Stage 1 is the single block; a non-constant first value is not adapted.
    values = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    proc = ProcessSequence(filt, values)
    assert not is_adapted(proc)
    with pytest.raises(NotAdapted):
        classify(proc)


def test_classify_matches_full_matrix_reference():
    # Filtrations longer than dim repeat the singleton operator by reference.
    seen = set()
    for seed in range(24):
        dim = 2 + seed % 7
        steps = dim + 1 + seed % 5
        mode = ("uniform", "random")[seed % 2]
        cfg = GeneratorConfig(seed=seed, dim=dim, steps=steps, weight_mode=mode)
        filt = None
        if seed % 3 == 0:
            space = generate_mds(cfg).space
            filt = refining_filtration(SplitMix64(seed), space, steps)
        sums = partial_sums(generate_mds(cfg, filt))
        drift = generate_submartingale(cfg, mode="drift", filtration=filt)
        stream = SplitMix64(1000 + seed)
        noise = np.array(
            [stream.uniforms(op.partition.num_blocks, -1.0, 1.0)[op.partition.block_id]
             for op in sums.filtration]
        )
        for values in (sums.values, drift.values, -drift.values, noise):
            proc = ProcessSequence(sums.filtration, values)
            label = classify(proc)
            assert label == classify_full_matrix(proc), f"seed {seed}"
            seen.add(label)
    assert seen == {MARTINGALE, SUBMARTINGALE, SUPERMARTINGALE, NONE}


def test_classify_uses_all_pairs_not_just_consecutive():
    # Constant filtration (all identity): values rise step to step except
    # between stages 1 and 3, where the comparison must also hold.
    space = SampleSpace.uniform(1)
    filt = make_filtration(space, [[[0]], [[0]], [[0]]])
    proc = ProcessSequence(filt, np.array([[0.0], [2.0], [1.0]]))
    # 0 <= 2, 2 > 1 fails sub between consecutive; 0 <= 1 holds.
    assert classify(proc) == NONE


# --- difference sequences and martingale calculus ----------------------------------


def test_generated_mds_is_deterministic_and_clean():
    cfg = GeneratorConfig(seed=7, dim=6, steps=10)
    a = generate_mds(cfg)
    b = generate_mds(cfg)
    assert np.array_equal(a.values, b.values)
    assert is_adapted(a)
    assert is_difference_sequence(a)
    # Conditioning each increment on the previous stage gives zero.
    for i in range(1, 10):
        prev_op = a.filtration[i - 1]
        residual = np.max(np.abs(prev_op.apply_array(a.values[i])))
        assert residual <= 1e-12


def test_generated_mds_different_seeds_differ():
    a = generate_mds(GeneratorConfig(seed=1, dim=4, steps=6))
    b = generate_mds(GeneratorConfig(seed=2, dim=4, steps=6))
    assert not np.array_equal(a.values, b.values)


def test_mds_two_atoms_is_antisymmetric():
    # With two uniform atoms every later increment must balance to zero mean.
    diffs = generate_mds(GeneratorConfig(seed=11, dim=2, steps=2))
    y2 = diffs.values[1]
    assert abs(y2[0] + y2[1]) <= 1e-15


def test_mds_respects_amplitude_bound():
    cfg = GeneratorConfig(seed=3, dim=5, steps=8, amplitude=0.5)
    diffs = generate_mds(cfg)
    assert np.max(np.abs(diffs.values)) <= 2 * 0.5 + 1e-12


def test_partial_sums_of_mds_are_martingales():
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, dim=1 + seed % 6, steps=5 + seed % 4)
        sums = partial_sums(generate_mds(cfg))
        assert classify(sums) == MARTINGALE, f"seed {seed}"


def test_partial_sums_are_not_difference_sequences():
    sums = partial_sums(generate_mds(GeneratorConfig(seed=5, dim=4, steps=6)))
    # A running sum keeps its past: conditioning does not null it.
    assert not is_difference_sequence(sums)
    with pytest.raises(NotDifferenceSequence):
        require_difference_sequence(sums)
    require_difference_sequence(generate_mds(GeneratorConfig(seed=5, dim=4, steps=6)))


def test_mds_increment_orthogonality():
    diffs = generate_mds(GeneratorConfig(seed=13, dim=6, steps=8))
    t1 = diffs.filtration[0]
    scale = max(1.0, float(np.max(np.abs(diffs.values))) ** 2)
    for i in range(8):
        for j in range(i + 1, 8):
            cross = t1.apply_array(diffs.values[i] * diffs.values[j])
            assert np.max(np.abs(cross)) <= 1e-11 * scale, (i, j)


def test_generate_mds_with_explicit_filtration():
    space = SampleSpace.uniform(4)
    filt = default_filtration(space, 5)
    cfg = GeneratorConfig(seed=2, dim=4, steps=5)
    diffs = generate_mds(cfg, filtration=filt)
    assert diffs.filtration is filt
    with pytest.raises(ValueError):
        generate_mds(GeneratorConfig(seed=2, dim=4, steps=3), filtration=filt)


def generate_mds_per_stage(cfg, filtration):
    """Reference generate_mds rows: one SplitMix64 substream and two
    apply_array calls per stage, the loop the stacked draw replaced."""
    rows = np.empty((cfg.steps, filtration.space.n))
    check_slack = 1e-12 * max(1.0, cfg.amplitude)
    ops = list(filtration)
    for i, op in enumerate(ops):
        stream = SplitMix64(derive_seed(cfg.seed, "mds-step", i))
        vals = stream.uniforms(op.partition.num_blocks, -cfg.amplitude, cfg.amplitude)
        z = vals[op.partition.block_id]
        if i == 0:
            rows[i] = z
        else:
            prev = ops[i - 1]
            rows[i] = z - prev.apply_array(z)
            residual = np.max(np.abs(prev.apply_array(rows[i])))
            if residual > check_slack:
                raise AssertionError(
                    f"difference residual {residual} exceeds {check_slack} at step {i}"
                )
    return rows


def op_groups_by_dict(ops):
    """Reference stage grouping: hash every stage's blocks into a dict."""
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.partition.blocks, (op, []))[1].append(i)
    return list(groups.values())


def equal_partitions_as_distinct_objects(space):
    """A filtration whose repeated stages are equal partitions built anew."""
    n = space.n
    half = [b for b in (list(range((n + 1) // 2)), list(range((n + 1) // 2, n))) if b]
    stages = [[list(range(n))]] * 2 + [half] * 3 + [[[a] for a in range(n)]] * 2
    return make_filtration(space, stages)


@pytest.mark.parametrize("weight_mode", ["uniform", "random"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 13, 16])
@pytest.mark.parametrize("amplitude", [1.0, 1e3])
def test_generate_mds_matches_per_stage_loop_bit_for_bit(weight_mode, dim, amplitude):
    for seed in range(4):
        # steps = 1, fewer than dim, equal to dim, and far past dim.
        for steps in sorted({1, max(1, dim // 2), dim, 5 * dim + 3}):
            cfg = GeneratorConfig(seed, dim, steps, amplitude, weight_mode)
            filt = default_filtration(make_space(cfg), steps)
            got = generate_mds(cfg, filt).values
            assert got.tobytes() == generate_mds_per_stage(cfg, filt).tobytes()
            assert got.tobytes() == generate_mds(cfg).values.tobytes()
        space = make_space(GeneratorConfig(seed, dim, 1, amplitude, weight_mode))
        for filt in (
            refining_filtration(SplitMix64(100 + seed), space, 2 * dim + 1),
            equal_partitions_as_distinct_objects(space),
        ):
            cfg = GeneratorConfig(seed, dim, len(filt), amplitude, weight_mode)
            got = generate_mds(cfg, filt).values
            assert got.tobytes() == generate_mds_per_stage(cfg, filt).tobytes()


def test_generate_mds_random_first_stages_match_per_stage_loop():
    hit_random_first = False
    for seed in range(40):
        stream = SplitMix64(derive_seed(seed, "first-stage"))
        space = SampleSpace(stream.uniforms(3 + seed % 14, 0.05, 1.0))
        filt = refining_filtration(stream, space, 1 + stream.below(40))
        hit_random_first |= filt[0].partition.num_blocks > 1
        cfg = GeneratorConfig(seed, space.n, len(filt), 1.0 + seed % 3)
        got = generate_mds(cfg, filt).values
        assert got.tobytes() == generate_mds_per_stage(cfg, filt).tobytes(), seed
    assert hit_random_first


@pytest.mark.parametrize("tampered", [2, -1])
def test_generate_mds_residual_guard_names_the_oracle_step(tampered):
    # A block weight that disagrees with the atom weights breaks
    # T_{i-1} Y_i = 0 at every stage conditioned on that operator.
    cfg = GeneratorConfig(seed=4, dim=8, steps=14, weight_mode="random")
    built = default_filtration(make_space(cfg), cfg.steps)
    filt = tamper(built, tampered, 1.01)
    with pytest.raises(AssertionError) as oracle:
        generate_mds_per_stage(cfg, filt)
    with pytest.raises(AssertionError) as stacked:
        generate_mds(cfg, filt)
    assert str(stacked.value) == str(oracle.value)
    first = list(built).index(built[tampered]) + 1
    assert str(stacked.value).endswith(f"at step {first}")



def test_a_filtration_takes_only_its_operators_partitions():
    # An operator's ragged block weights, off their atoms' sums, do not reach
    # a filtration built from it: its stages sum the atom weights again.
    cfg = GeneratorConfig(seed=4, dim=8, steps=14, weight_mode="random")
    built = default_filtration(make_space(cfg), cfg.steps)
    ops = list(built)
    op = ConditionalExpectationOp(ops[2].partition)
    op.ragged.block_weight = op.ragged.block_weight * 1.01
    filt = Filtration(ops[:2] + [op] + ops[3:])
    assert filt[2] is not op and filt[2].ragged.block_weight.tobytes() == ops[2].ragged.block_weight.tobytes()
    assert generate_mds(cfg, filt).values.tobytes() == generate_mds(cfg, built).values.tobytes()


def test_block_weights_off_their_atoms_sums_fail_the_guard_at_their_first_step():
    # The library never builds such weights; the generator guard still
    # names the first step they condition, through ScaledStages.
    cfg = GeneratorConfig(seed=4, dim=8, steps=14, weight_mode="random")
    filt = default_filtration(make_space(cfg), cfg.steps)
    before = generate_mds(cfg, filt).values.tobytes()
    with pytest.raises(GeneratorResidual, match="at step 3$"):
        generate_mds(cfg, tamper(filt, 2, 1.01))
    assert generate_mds(cfg, filt).values.tobytes() == before


BLOCK_DIMS = (1, 3, 8)


def stages_around_blocks(dim):
    """Horizons of 1, B - 1, B, B + 1 and 3B + 5 stages, B stages a block."""
    rows = max(1, lattice.BLOCK_ELEMENTS // dim)
    return sorted({1, max(1, rows - 1), rows, rows + 1, 3 * rows + 5})


@pytest.mark.parametrize("block_elements", [1, 24, 48])
@pytest.mark.parametrize("dim", BLOCK_DIMS)
def test_blocked_generate_mds_matches_the_per_stage_loop(block_elements, dim, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    for weight_mode in ("uniform", "random"):
        for amplitude in (1e-3, 1.0, 1e6):
            for steps in stages_around_blocks(dim):
                cfg = GeneratorConfig(dim + steps, dim, steps, amplitude, weight_mode)
                filt = default_filtration(make_space(cfg), steps)
                assert np.array_equal(generate_mds(cfg).values, generate_mds_per_stage(cfg, filt))
                filt = refining_filtration(SplitMix64(steps), make_space(cfg), steps)
                assert np.array_equal(
                    generate_mds(cfg, filt).values, generate_mds_per_stage(cfg, filt)
                )


@pytest.mark.parametrize("dim", [3, 8])
def test_generate_mds_at_the_module_block_size_matches_the_per_stage_loop(dim):
    rows = lattice.BLOCK_ELEMENTS // dim
    for weight_mode in ("uniform", "random"):
        cfg = GeneratorConfig(7, dim, 3 * rows + 5 if dim == 8 else rows + 1, 1.0, weight_mode)
        filt = default_filtration(make_space(cfg), cfg.steps)
        assert np.array_equal(generate_mds(cfg).values, generate_mds_per_stage(cfg, filt))


@pytest.mark.parametrize("block_elements", [8, 16, 80])
@pytest.mark.parametrize("tampered", [2, 5, -1])
def test_blocked_residual_guard_names_the_oracle_step(block_elements, tampered, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    cfg = GeneratorConfig(seed=4, dim=8, steps=30, weight_mode="random")
    built = default_filtration(make_space(cfg), cfg.steps)
    filt = tamper(built, tampered, 1.01)
    with pytest.raises(AssertionError) as oracle:
        generate_mds_per_stage(cfg, filt)
    with pytest.raises(AssertionError) as blocked:
        generate_mds(cfg, filt)
    assert str(blocked.value) == str(oracle.value)
    assert str(blocked.value).endswith(f"at step {list(built).index(built[tampered]) + 1}")


# --- the singleton suffix -------------------------------------------------------
#
# Rows whose stage and previous stage both condition on the identity form a
# suffix.  Off dyadic spaces it is drawn and conditioned in the bins like the
# rows before it, in one row block or many.  The grid below is fixed before
# any comparison.

SINGLETON_AMPLITUDES = (5e-324, 1e-310, 1e-3, 1.0, 1e6, 8.9e307)


def singleton_cut(filtration):
    """The first row conditioned on the identity by an identity stage, or the
    horizon when there is none."""
    stage, last = filtration.stage, len(filtration.distinct) - 1
    if not filtration.distinct[-1].is_identity:
        return len(stage)
    return min(int(np.flatnonzero(stage == last)[0]) + 1, len(stage))


def singleton_horizons(dim):
    """dim - 1, dim and dim + 1 stages (the default filtration's cut is dim),
    and 3B + 5 stages past the cut, B rows a block."""
    rows = max(1, lattice.BLOCK_ELEMENTS // dim)
    return sorted({max(1, dim - 1), dim, dim + 1, dim + 3 * rows + 5})


def singleton_grid(dims, amplitudes):
    for dim in dims:
        for weight_mode in ("uniform", "random"):
            for amplitude in amplitudes:
                for steps in singleton_horizons(dim):
                    cfg = GeneratorConfig(dim + steps, dim, steps, amplitude, weight_mode)
                    yield cfg, default_filtration(make_space(cfg), steps)
                # A random refining first stage: its cut is at most dim.
                steps = singleton_horizons(dim)[-1]
                cfg = GeneratorConfig(3 * dim + steps, dim, steps, amplitude, weight_mode)
                stream = SplitMix64(derive_seed(cfg.seed, "first-stage"))
                yield cfg, refining_filtration(stream, make_space(cfg), steps)


@pytest.mark.parametrize("block_elements", [1, 7, 64])
def test_singleton_rows_match_the_per_stage_loop(block_elements, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    kinds = set()
    for cfg, filt in singleton_grid(range(1, 14), SINGLETON_AMPLITUDES):
        got = generate_mds(cfg, filt).values
        assert got.tobytes() == generate_mds_per_stage(cfg, filt).tobytes(), cfg
        if singleton_cut(filt) < cfg.steps:
            # One block holds the whole suffix, or it spans several.
            kinds.add(cfg.steps > max(1, block_elements // cfg.dim))
    assert kinds == {True, False} or block_elements == 1


def test_singleton_rows_at_the_module_block_size_match_the_per_stage_loop():
    # The per-stage loop takes about 60 us a stage, so the module block size
    # gets four cases: 3B + 5 stages past the cut at dims 8 and 13, and B + 5
    # at the extreme amplitudes.
    rows8, rows13 = lattice.BLOCK_ELEMENTS // 8, lattice.BLOCK_ELEMENTS // 13
    cases = [
        (GeneratorConfig(3, 8, 8 + 3 * rows8 + 5, 1.0, "uniform"), None),
        (GeneratorConfig(4, 13, 13 + 3 * rows13 + 5, 1e-3, "random"), "first-stage"),
        (GeneratorConfig(5, 13, 13 + rows13 + 5, 5e-324, "random"), None),
        (GeneratorConfig(6, 13, 13 + rows13 + 5, 8.9e307, "uniform"), None),
    ]
    for cfg, label in cases:
        space = make_space(cfg)
        if label is None:
            filt = default_filtration(space, cfg.steps)
        else:
            filt = refining_filtration(SplitMix64(derive_seed(cfg.seed, label)), space, cfg.steps)
        assert singleton_cut(filt) < rows8
        got = generate_mds(cfg, filt).values
        assert got.tobytes() == generate_mds_per_stage(cfg, filt).tobytes(), cfg


def test_signed_zero_products_condition_as_the_bincount_does():
    # At amplitude 5e-324 the products w * z underflow to +-0.0, and the
    # bincount's 0.0 + w * z turns -0.0 into +0.0: z - 0.0 == z - -0.0.
    cfg = GeneratorConfig(1, 5, 40, 5e-324, "random")
    filt = default_filtration(make_space(cfg), cfg.steps)
    values = generate_mds(cfg, filt).values
    z = values[singleton_cut(filt) :]
    assert np.any(np.signbit(z * filt.space.weights) & (z * filt.space.weights == 0.0))
    assert values.tobytes() == generate_mds_per_stage(cfg, filt).tobytes()


@pytest.mark.parametrize("block_elements", [lattice.BLOCK_ELEMENTS, 64, 7, 1])
@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("factor", [1.01, 1.0 + 1.5e-12])
def test_tampered_singleton_weight_fails_at_the_oracle_step(
    block_elements, dim, factor, monkeypatch
):
    # factor 1 + 1.5e-12 on one atom fails only the rows whose draw there
    # exceeds about 2/3 in size, so the first failing step lies inside a block.
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    rows = max(1, block_elements // dim)
    steps = set()
    for seed, weight_mode in ((0, "uniform"), (1, "uniform"), (2, "random"), (3, "random")):
        cfg = GeneratorConfig(seed, dim, dim + min(max(3 * rows + 5, 40), 400), 1.0, weight_mode)
        built = default_filtration(make_space(cfg), cfg.steps)
        assert built[-1].is_identity
        filt = tamper(built, -1, factor, -1)
        with pytest.raises(AssertionError) as oracle:
            generate_mds_per_stage(cfg, filt)
        with pytest.raises(AssertionError) as blocked:
            generate_mds(cfg, filt)
        assert str(blocked.value) == str(oracle.value)
        steps.add(int(str(oracle.value).rsplit(" ", 1)[1]) - singleton_cut(filt))
    if factor != 1.01:
        assert max(steps) > 0  # some first failure lies past the cut's row


@pytest.mark.parametrize(
    "cfg, stage, step",
    [
        # the binned path: stage 2 conditions row 3
        (GeneratorConfig(seed=4, dim=8, steps=14, weight_mode="random"), 2, 3),
        # past the singleton cut: a horizon of many row blocks, whose rows
        # from the cut (row 8 on dim 8) condition on the identity
        (GeneratorConfig(seed=4, dim=8, steps=20_000, weight_mode="random"), -1, 8),
        (GeneratorConfig(seed=5, dim=8, steps=20_000), -1, 8),
    ],
)
def test_a_nan_block_weight_fails_the_guard_at_its_first_step(cfg, stage, step):
    # A NaN residual compares False with the slack, so the guard must not
    # test residual > slack; it used to let the NaN through to ProcessSequence.
    filt = tamper(default_filtration(make_space(cfg), cfg.steps), stage, np.nan, 0)
    assert singleton_cut(filt) == 8
    with pytest.raises(GeneratorResidual, match=f"residual nan exceeds 1e-12 at step {step}$"):
        generate_mds(cfg, filt)


# --- the exact-zero suffix ------------------------------------------------------
#
# When every atom weight w is a power of two, the identity divides by the
# atom weights themselves, and the amplitude a has a min(w) >= 2^-968 and
# a max(w) finite, each suffix row is Y = Z - (w Z)/w = +0.0 exactly, and no
# word is drawn for it.  Every other space draws and conditions the suffix.
# The grid is fixed before any comparison.


def weights_as_given(weights):
    """A space with these atom weights, not normalized: SampleSpace never
    builds an atom weight above 1, such as 2.0 here."""
    space = object.__new__(SampleSpace)
    space.n, space.weights = len(weights), np.asarray(weights, dtype=np.float64)
    return space


ZERO_PATH_SPACES = (
    # dyadic uniform
    [SampleSpace.uniform(d) for d in (1, 2, 4, 8, 16, 32)]
    # dyadic, not uniform: the first sums to 4 and is normalized exactly
    + [SampleSpace([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125])]
    + [weights_as_given([2.0, 0.5, 0.25, 0.25])]
    # not dyadic
    + [SampleSpace.uniform(d) for d in (3, 5, 7)]
    + [make_space(GeneratorConfig(seed, dim, 1, weight_mode="random")) for seed, dim in ((1, 4), (2, 8))]
)


def is_dyadic(space):
    return bool((np.frexp(space.weights)[0] == 0.5).all())


def zero_path_amplitudes(space):
    """The exactness bound 2^-968 / min(w), its two neighbours, and the
    extremes and middle of the amplitude range."""
    bound = 2.0**-968 / space.weights.min()
    return (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 5e-324, 1e-310, 1.0, 8.9e307)


def zero_path_grid(module):
    """(cfg, filtration) pairs: horizons up to the cut, and past it by three
    row blocks and five rows.  At the module block size the per-stage loop
    takes about 50 us a stage, so there the horizon passes the cut by one
    block and one row, spaces of fewer than 8 atoms (8,192 rows a block or
    more) are left out, and the amplitudes are the bound, the one below it
    and 1."""
    for space in ZERO_PATH_SPACES:
        if module and space.n < 8:
            continue
        rows = max(1, lattice.BLOCK_ELEMENTS // space.n)
        past = rows + 1 if module else 3 * rows + 5
        amplitudes = zero_path_amplitudes(space)
        for amplitude in (amplitudes[:2] + amplitudes[5:6]) if module else amplitudes:
            for steps in sorted({max(1, space.n - 1), space.n, space.n + 1, space.n + past}):
                cfg = GeneratorConfig(space.n + steps, space.n, steps, amplitude)
                yield cfg, default_filtration(space, steps)
            if not module:  # a random refining first stage: its cut is at most n
                stream = SplitMix64(derive_seed(cfg.seed, "first-stage"))
                yield cfg, refining_filtration(stream, space, cfg.steps)


@pytest.mark.parametrize("block_elements", [1, 7, 64, lattice.BLOCK_ELEMENTS])
def test_exact_zero_suffix_matches_the_per_stage_loop(block_elements, monkeypatch):
    module = block_elements == lattice.BLOCK_ELEMENTS
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    zero, failed = set(), []
    for cfg, filt in zero_path_grid(module):
        try:
            oracle = generate_mds_per_stage(cfg, filt)
        except AssertionError as err:  # w Z sums overflow at 8.9e307 where a weight is 2.0
            with pytest.raises(GeneratorResidual, match=f"^{re.escape(str(err))}$"):
                generate_mds(cfg, filt)
            failed.append(cfg)
            continue
        got = generate_mds(cfg, filt).values
        assert got.tobytes() == oracle.tobytes(), cfg
        space, cut = filt.space, singleton_cut(filt)
        if is_dyadic(space) and cfg.amplitude * space.weights.min() >= 2.0**-968:
            suffix = got[cut:]
            assert not suffix.any() and not np.signbit(suffix).any(), cfg
            zero.add(cut < cfg.steps)
    assert zero == {True, False}
    assert all(cfg.amplitude == 8.9e307 for cfg in failed), failed


def spy_on_draws(monkeypatch):
    """The steps whose words _mds_rows draws (seeds_at)."""
    steps = []

    def seeds(prefix, step):
        steps.extend(np.asarray(step).tolist())
        return seeds_at(prefix, step)

    monkeypatch.setattr(processes, "seeds_at", seeds)
    return steps


@pytest.mark.parametrize("block_elements", [64, lattice.BLOCK_ELEMENTS])
def test_no_word_is_drawn_past_the_cut_on_a_dyadic_space(block_elements, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    steps = spy_on_draws(monkeypatch)
    for dim, weight_mode, dyadic in ((8, "uniform", True), (4, "uniform", True),
                                     (7, "uniform", False), (8, "random", False)):
        cfg = GeneratorConfig(3, dim, 3 * block_elements // dim + 5, 1.0, weight_mode)
        filt = default_filtration(make_space(cfg), cfg.steps)
        steps.clear()
        values = generate_mds(cfg, filt).values
        cut = singleton_cut(filt)
        assert cut == dim and sorted(steps) == list(range(cut if dyadic else cfg.steps)), cfg
        if block_elements == 64:
            assert values.tobytes() == generate_mds_per_stage(cfg, filt).tobytes(), cfg


@pytest.mark.parametrize("block_elements", [64, lattice.BLOCK_ELEMENTS])
def test_scaling_the_amplitude_by_a_power_of_two_scales_every_value(block_elements, monkeypatch):
    # Z, T Z and Z - T Z are sums, products and quotients of the draws and
    # the weights, so each scales with a exactly while nothing goes
    # subnormal or overflows; dyadic uniform spaces take the zero suffix.
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    for dim, weight_mode in ((8, "uniform"), (4, "uniform"), (7, "uniform"), (8, "random")):
        for seed in range(3):
            cfg = GeneratorConfig(seed, dim, 3 * block_elements // dim + 5, 0.75, weight_mode)
            base = generate_mds(cfg).values
            for k in (-800, -30, -1, 1, 30, 1000):
                scaled = generate_mds(replace(cfg, amplitude=np.ldexp(0.75, k))).values
                assert scaled.tobytes() == np.ldexp(base, k).tobytes(), (cfg, k)
                assert np.abs(scaled[scaled != 0.0]).min() >= np.finfo(np.float64).tiny


def stage_index_by_rescan(ops):
    """Reference stage index: the per-stage rescan of ops that the stored
    Filtration.distinct/stage replaced."""
    first: dict = {}
    index = []
    prev = None
    for op in ops:
        if op is not prev:
            prev = op
            g = first.setdefault(op.partition.blocks, (len(first), op))[0]
        index.append(g)
    return [op for _, op in first.values()], np.asarray(index, dtype=np.intp)


def interleaved_equal_operators(space):
    """Equal partitions as distinct objects, with one object repeated after
    another object in between: runs a | a2 | a | fine, two groups."""
    a = ConditionalExpectationOp(Partition.single_block(space))
    a2 = ConditionalExpectationOp(Partition.single_block(space))
    fine = ConditionalExpectationOp(Partition.singletons(space))
    return Filtration([a, a, a2, a, a, fine, fine])


def stored_index_filtrations():
    for weights in (np.ones(1), np.ones(4), np.linspace(0.1, 1.0, 9), np.linspace(1.0, 2.0, 13)):
        space = SampleSpace(weights)
        dim = space.n
        for steps in sorted({1, max(1, dim - 2), dim, dim + 1, 3 * dim + 2}):
            filt = default_filtration(space, steps)
            assert len(filt) == steps
            yield filt
        for seed in range(6):
            yield refining_filtration(SplitMix64(40 + seed), space, 1 + 2 * seed + dim)
        yield equal_partitions_as_distinct_objects(space)
        yield interleaved_equal_operators(space)
    space = SampleSpace.uniform(4)
    halves = Partition(space, [[0, 1], [2, 3]])
    yield make_filtration(space, [[[0, 1, 2, 3]], halves, halves, [[0], [1], [2, 3]]])
    yield make_filtration(space, [halves, [[0, 1], [2, 3]], [[0], [1], [2], [3]], [[0], [1], [2], [3]]])


def test_stored_stage_index_matches_per_stage_rescan():
    for built in stored_index_filtrations():
        ops = list(built)
        # The stage operators handed to a new filtration, which owns its own.
        for filt in (built, Filtration(ops)):
            distinct, stage = stage_index_by_rescan(ops)
            assert len(filt.distinct) == len(distinct)
            assert all(a == b for a, b in zip(filt.distinct, distinct))
            assert all(
                a.ragged.block_weight.tobytes() == b.ragged.block_weight.tobytes()
                for a, b in zip(filt.distinct, distinct)
            )
            assert filt.stage.dtype == np.intp and not filt.stage.flags.writeable
            assert filt.stage.tolist() == stage.tolist()
            # The prefixes the consumers read: [:count - 1], [:-1] and the whole.
            for stop in (None, len(filt) - 1, -1):
                got = _stage_groups(filt, stop)
                expected = op_groups_by_dict(ops[:stop])
                assert [op for op, _ in got] == [op for op, _ in expected]
                assert [idx.tolist() for _, idx in got] == [idx for _, idx in expected]
                assert all(idx.dtype == np.intp for _, idx in got)


def test_interleaved_equal_operators_form_one_group():
    filt = interleaved_equal_operators(SampleSpace.uniform(3))
    assert filt.stage.tolist() == [0, 0, 0, 0, 0, 1, 1]
    assert filt.distinct == [filt[0], filt[5]]
    assert filt.distinct[0] is filt[0]


def test_a_short_chain_repeats_its_last_stage_to_the_horizon():
    # A short chain stops at the requested step count.
    assert len(default_filtration(SampleSpace.uniform(2), 100_000)) == 100_000
    assert default_filtration(SampleSpace.uniform(2), 100_000).stage[-3:].tolist() == [1, 1, 1]


# --- square function ---------------------------------------------------------------


def test_square_function_hand_case():
    space = SampleSpace.uniform(3)
    filt = default_filtration(space, 3)
    e = np.ones(3)
    proc = ProcessSequence(filt, np.array([e, 2 * e, 3 * e]))
    s = square_function(proc)
    assert np.array_equal(s.values[0], e)
    assert np.array_equal(s.values[1], 2 * e)
    assert np.array_equal(s.values[2], 3 * e)


def test_square_function_constant_process():
    space = SampleSpace.uniform(2)
    proc = constant_process(space, 4, 3.0)
    s = square_function(proc)
    # Only the initial jump from X_0 = 0 contributes.
    assert np.array_equal(s.values, np.full((4, 2), 9.0))


def test_square_function_is_nondecreasing():
    for seed in range(10):
        sums = partial_sums(generate_mds(GeneratorConfig(seed=seed, dim=5, steps=9)))
        s = square_function(sums)
        assert np.all(np.diff(s.values, axis=0) >= 0.0)


# --- positive parts -----------------------------------------------------------------


def test_positive_part_process_cases():
    space = SampleSpace.uniform(3)
    nonneg = constant_process(space, 3, 2.0)
    assert np.array_equal(positive_part_process(nonneg).values, nonneg.values)

    negative = constant_process(space, 3, -1.0)
    assert positive_part_process(negative).values.max() == 0.0

    filt = default_filtration(SampleSpace.uniform(1), 3)
    wild = ProcessSequence(filt, np.array([[1.0], [0.0], [2.0]]))
    with pytest.raises(NotSubmartingale):
        positive_part_process(wild)


def test_positive_part_of_martingale_is_submartingale():
    for seed in range(20):
        sums = partial_sums(generate_mds(GeneratorConfig(seed=seed, dim=4, steps=7)))
        pos = positive_part_process(sums)
        assert classify(pos) in (MARTINGALE, SUBMARTINGALE), f"seed {seed}"
        assert np.all(pos.values >= 0.0)


# --- submartingale generator ---------------------------------------------------------


def test_generate_submartingale_modes():
    cfg = GeneratorConfig(seed=17, dim=5, steps=8)
    pos = generate_submartingale(cfg, mode="positive-part")
    assert np.all(pos.values >= 0.0)
    assert classify(pos) in (MARTINGALE, SUBMARTINGALE)

    drift = generate_submartingale(cfg, mode="drift")
    assert classify(drift) in (MARTINGALE, SUBMARTINGALE)

    with pytest.raises(ValueError):
        generate_submartingale(cfg, mode="bogus")


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, dim=0, steps=3)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, dim=3, steps=0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, dim=3, steps=3, amplitude=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, dim=3, steps=3, weight_mode="heavy")
    for amplitude in (float("nan"), float("inf"), 1e308, np.float64(9e307)):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            GeneratorConfig(seed=1, dim=3, steps=3, amplitude=amplitude)


def test_the_largest_amplitudes_whose_double_is_finite_still_generate():
    for amplitude in (8.9e307, np.nextafter(np.finfo(float).max / 2, 0.0)):
        diffs = generate_mds(GeneratorConfig(seed=1, dim=3, steps=20, amplitude=amplitude))
        assert np.all(np.abs(diffs.values) <= 2 * amplitude)


def test_default_filtration_saturates_to_singletons():
    space = SampleSpace.uniform(4)
    filt = default_filtration(space, 6)
    assert filt[0].partition.num_blocks == 1
    assert filt[3].is_identity
    assert filt[5].is_identity
    # Once singletons are hit the generated increments are exactly zero.
    diffs = generate_mds(GeneratorConfig(seed=9, dim=4, steps=6))
    assert np.array_equal(diffs.values[4], np.zeros(4))
    assert np.array_equal(diffs.values[5], np.zeros(4))


def test_random_weight_mode_space_is_reproducible():
    cfg = GeneratorConfig(seed=23, dim=5, steps=4, weight_mode="random")
    a = generate_mds(cfg)
    b = generate_mds(cfg)
    assert a.space == b.space
    assert np.array_equal(a.values, b.values)
    assert np.all(a.space.weights > 0.0)
