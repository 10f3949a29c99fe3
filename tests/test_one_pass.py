"""The one-scan gate cores and the gather-free T_1 image check against the
bodies they replaced (tests/oracles.py), bit for bit.

_classify, _difference_sequence and the adaptedness check now share one
scan of the values (processes._scan), and limits._image compares runs of
atoms in flat row blocks rather than a gathered copy.  On the grids of
tests/test_gates.py and tests/test_blocks.py, fixed before comparing, every
label, verdict, exception type and message, and the slack's bits must be
the old code's.  Every T_1 image the four experiments form on the
test_blocks grid, and forced images (one atom moved by 1 ulp, a -0.0 in a
block's first column or elsewhere, inf and NaN, several blocks in and out
of atom order), must give the old (stack, layout) at every row-block size.
"""

import math
import types
from itertools import chain

import numpy as np
import pytest
from oracles import old_adapted, old_classify, old_difference_sequence, old_image, old_max_abs, old_slack
from test_blocks import BLOCK_SIZES, cases, difference_candidates, experiment_pairs, outcome
from test_blocks import TOLS as BLOCK_TOLS
from test_gates import (
    GATE_SUITES,
    SHAPES,
    TOLS,
    borderline,
    martingales,
    repeated_stage_cases,
    scaling_cases,
    singleton_processes,
    splitting_cases,
    suite_processes,
)

from rieszmart import (
    DEFAULT_TOL,
    GeneratorConfig,
    SampleSpace,
    default_filtration,
    generate_mds,
    generate_submartingale,
    lattice,
    limits,
)
from rieszmart.processes import NOT_ADAPTED, _classify, _difference_sequence, _max_abs, _scan, partial_sums

GATE_TOLS = list(dict.fromkeys(TOLS))  # the distinct tolerances of test_gates
IMAGE = limits._image  # before any test wraps it


def result(core, *args):
    """What a core returns, or the type and text of what it raises."""
    try:
        return core(*args)
    except Exception as exc:  # the comparison is the point
        return f"{type(exc).__name__}: {exc}"


def bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def gates(mat, weights, ids, stage, tol):
    """Every gate outcome of one process under the new cores: the slack's
    and the identity tail's bits, adaptedness, the label and the
    difference verdict."""
    adapted, slack, _, _, tail = _scan(mat, weights, ids, stage, tol)
    return (
        bits(slack),
        bits(tail),
        adapted,
        result(_classify, mat, weights, ids, stage, tol),
        result(_difference_sequence, mat, weights, ids, stage, tol),
    )


def old_gates(mat, weights, ids, stage, tol):
    """The same outcomes from the replaced bodies; the tail is max|f| over
    the rows after the first identity stage."""
    count, n = mat.shape
    last = int(stage[-1])
    cut = int(stage.searchsorted(last)) if ids(last)[-1] == n - 1 else count
    return (
        bits(old_slack(mat, tol)),
        bits(old_max_abs(mat[cut + 1 :])),
        result(old_adapted, mat, weights, ids, stage, tol),
        result(old_classify, mat, weights, ids, stage, tol),
        result(old_difference_sequence, mat, weights, ids, stage, tol),
    )


def same_gates(processes, tols=GATE_TOLS) -> set:
    """Each (values, weights, ids, stage) under each tolerance against the
    old bodies; returns the (adapted, label, difference) outcomes seen."""
    seen = set()
    for mat, weights, ids, stage in processes:
        for tol in tols:
            new = gates(mat, weights, ids, stage, tol)
            assert new == old_gates(mat, weights, ids, stage, tol), tol
            seen.add(new[2:])
    return seen


def batch(stages, values):
    """The processes of a batch, as the exact cores take them."""
    for k in range(len(stages.n)):
        yield (stages.values(values, k), *stages.table(k))


def of(filtration, *stacks):
    """Processes on one filtration, one per stack of values."""
    for mat in stacks:
        yield (mat, *filtration.stages.table(0))


@pytest.mark.parametrize("suite", GATE_SUITES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_gate_cores_match_the_old_bodies_on_the_suite_batches(suite, shape):
    seen = set()
    for seed in range(2):
        seen |= same_gates(batch(*suite_processes(suite, seed, *shape)))
    assert {True, False} <= {adapted for adapted, _, _ in seen}


def test_gate_cores_match_the_old_bodies_on_singletons_borders_and_extreme_scales():
    for seed in range(3):
        same_gates(batch(*singleton_processes([1, 3, 1, 5, 2], [1 + (k + seed) % 4 for k in range(5)], seed)))
        stages, sums, diffs = martingales(seed, trials=24)
        for kind in ("sub", "super", "difference", "adapted"):
            moved = borderline(stages, diffs if kind == "difference" else sums, kind)
            same_gates(batch(stages, moved))
        for scale in (2.0**900, 2.0**-900):
            same_gates(batch(stages, sums * scale))
            same_gates(batch(stages, diffs * scale))


def test_gate_cores_match_the_old_bodies_on_the_metamorphic_grids():
    repeated = [case[:3] for case in repeated_stage_cases()]
    splitting = [case[:3] for case in splitting_cases()]
    seen = same_gates(chain.from_iterable(of(*case) for case in repeated + splitting))
    seen |= same_gates(chain.from_iterable(of(*case) for case in scaling_cases()), [DEFAULT_TOL])
    labels = {label for _, label, _ in seen}
    assert {"martingale", "submartingale", "supermartingale", f"NotAdapted: {NOT_ADAPTED}"} <= labels
    assert {difference for _, _, difference in seen} == {True, False}


def test_gate_cores_match_the_old_bodies_on_the_block_grid(block_elements):
    seen = set()
    for process in difference_candidates():
        seen |= same_gates(of(process.filtration, process.values), BLOCK_TOLS)
    for cfg, filt in cases():
        for mode in ("positive-part", "drift"):
            process = generate_submartingale(cfg, mode, filt)
            seen |= same_gates(of(process.filtration, process.values), BLOCK_TOLS)
    assert {difference for _, _, difference in seen} == {True, False}


def same_image(t1, operand, *zeros) -> bool:
    """limits._image against old_image: the same stack bytes, at whole
    height, and layout; returns whether the block values were kept.  The
    experiments pass _Talls, and a zeros buffer, old_image the whole height."""
    whole = limits._tall(operand).full()
    (tall, layout), (old_stack, old_layout) = IMAGE(t1, operand, *zeros), old_image(t1, whole)
    stack = tall.full()
    assert stack.shape == old_stack.shape and stack.dtype == old_stack.dtype
    assert stack.tobytes() == old_stack.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(layout, old_layout))
    return len(layout.size) < len(layout.ids)


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block{b}")
def block_elements(request, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", request.param)
    return request.param


def test_experiment_images_match_the_old_check(block_elements, monkeypatch):
    kept = []

    def compared(t1, operand, *zeros):
        kept.append(same_image(t1, operand, *zeros))
        return IMAGE(t1, operand, *zeros)

    monkeypatch.setattr(limits, "_image", compared)
    for cfg, filt in cases():
        for blocked, _ in experiment_pairs(cfg, filt, DEFAULT_TOL):
            outcome(blocked)
    assert True in kept and False in kept


# Layouts of T_1 on 7 atoms: one block, blocks that are runs of atoms, blocks
# out of atom order, and blocks of one atom.
LAYOUTS = [
    [0] * 7,
    [0, 0, 1, 1, 1, 2, 2],
    [0, 1, 0, 2, 1, 0, 2],
    [0, 0, 1, 0, 1, 1, 2],
    list(range(7)),
]


def forced(block_id, image):
    """A stand-in T_1 whose product is image, whatever the operand."""
    partition = types.SimpleNamespace(block_id=np.array(block_id))
    return types.SimpleNamespace(partition=partition, apply_rows=lambda operand: image.copy())


def forced_images(block_id, rows, seed):
    """(name, image) pairs on one layout: block-constant values, then copies
    with one atom moved by 1 ulp (in a run, or at the head of a later run of
    its block), a block of -0.0 or one -0.0 in a zero block, and a block or
    one later atom at inf or NaN."""
    rng = np.random.default_rng(seed)
    block_id = np.array(block_id)
    values = rng.uniform(-2.0, 2.0, (rows, block_id.max() + 1))
    values[rng.random(rows) < 0.3] = 0.0
    base = values[:, block_id]
    first = np.unique(block_id, return_index=True)[1]
    later = np.setdiff1d(np.arange(len(block_id)), first)
    yield "constant", base
    for row in sorted({0, rows // 2, rows - 1}):
        for atom in later[:1].tolist() + later[-1:].tolist():
            moved = base.copy()
            moved[row, atom] = np.nextafter(moved[row, atom], np.inf)
            yield "ulp", moved
        zero = base.copy()
        zero[row, block_id == block_id[first[-1]]] = -0.0
        yield "negative zero first", zero
        if later.size:
            zero = base.copy()
            zero[row] = 0.0
            zero[row, later[-1]] = -0.0
            yield "negative zero later", zero
        for bad in (np.inf, -np.inf, np.nan):
            whole = base.copy()
            whole[row, block_id == block_id[first[-1]]] = bad
            yield "non-finite", whole
            if later.size:
                one = base.copy()
                one[row, later[-1]] = bad
                yield "non-finite", one


def test_forced_images_match_the_old_check(block_elements):
    kept = {}
    for block_id in LAYOUTS:
        for rows in (1, 2, 9, 40):
            for name, image in forced_images(block_id, rows, rows + len(set(block_id))):
                keep = same_image(forced(block_id, image), np.zeros_like(image))
                kept.setdefault(name, set()).add(keep)
    assert kept["constant"] == {True, False}  # kept but for singletons
    for name in ("ulp", "negative zero first", "negative zero later", "non-finite"):
        assert kept[name] == {False}, name


@pytest.mark.parametrize("dim", [4, 8])
def test_a_long_default_t1_image_keeps_one_block_as_before(dim):
    diffs = generate_mds(GeneratorConfig(seed=3, dim=dim, steps=20_000))
    t1 = diffs.filtration[0]
    assert same_image(t1, np.abs(diffs.values) ** 3)
    assert same_image(t1, partial_sums(diffs).values)


# --- NaN in the one max |f| pass -------------------------------------------------
#
# Python's max keeps its first argument when a later one is NaN, so the old
# body dropped a NaN outside the first row block, and _scan's max(head, tail)
# a NaN past the identity cut.


def test_max_abs_keeps_a_nan_outside_the_first_row_block():
    mat = np.ones((20_000, 8))
    mat[15_000, 3], mat[16_000, 5] = np.nan, 5.0  # one row block, its max NaN
    assert len(lattice.row_blocks(*mat.shape)) == 3
    assert old_max_abs(mat) == 1.0
    assert math.isnan(_max_abs(mat))


@pytest.mark.parametrize("block_elements", [1, 8, 4096, lattice.BLOCK_ELEMENTS])
def test_max_abs_is_the_whole_arrays_max_at_every_row_block_size(block_elements, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    base = np.arange(-300.0, 300.0).reshape(75, 8)
    for at in (None, (0, 0), (37, 4), (74, 7)):
        for value in (np.nan, -np.inf, 1e300):
            mat = base.copy()
            if at is not None:
                mat[at] = value
            got, want = _max_abs(mat), float(np.max(np.abs(mat)))
            assert got == want or (math.isnan(got) and math.isnan(want)), (at, value)
    assert _max_abs(base[:0]) == 0.0


def test_scan_slack_keeps_a_nan_past_the_identity_cut():
    filt = default_filtration(SampleSpace.uniform(8), 20)
    mat = np.ones((20, 8))
    mat[15, 2] = np.nan
    _, slack, _, cut, tail = _scan(mat, *filt.stages.table(0), DEFAULT_TOL)
    assert cut < 14 and math.isnan(tail)
    assert math.isnan(slack)
