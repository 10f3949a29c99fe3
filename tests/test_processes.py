"""Adapted processes, classification, square functions, seeded generators."""

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
from rieszmart.lattice import DEFAULT_TOL
from rieszmart.processes import (
    MARTINGALE,
    NONE,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    _op_groups,
)
from rieszmart.rng import SplitMix64
from rieszmart.suites import _refining_filtration


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
    for op, idx in _op_groups(process.filtration.ops[: count - 1]):
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
            filt = _refining_filtration(SplitMix64(seed), space, steps)
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
