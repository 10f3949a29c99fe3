"""Stacks carried as their head rows and one repeated row, against the
whole-stack bodies they replaced (tests/oracles.py).

The four limit experiments split the settled rows off each (N, n) stack and
run on its head, one repeated row standing for the rest; the oracle bodies
run every row.  On tests/test_blocks.py's grid and row-block sizes, and on
grids fixed in advance where the head ends inside and exactly at row-block
edges, at H = N // 2 and H = N - 1 (a settled run shorter than the head is
not split off), with the checkpoints and (N + 1) // 2 inside and past the
head, on constant processes and at a negative slack, every report must
come out with the same bytes and every error with the same text.  So must
a T_1 product whose zero tail is moved by 1 ulp: the tail check sees it, and
the head grows to take it in.
"""

import numpy as np
import pytest
from oracles import whole_slln_an_equals_n, whole_slln_p_gt_2, whole_slln_p_le_2, whole_submartingale
from test_blocks import BLOCK_SIZES, TOLS, cases, lenient_gates, nudge_products  # noqa: F401

from rieszmart import (
    GeneratorConfig,
    SampleSpace,
    WeightSequence,
    default_filtration,
    generate_mds,
    generate_submartingale,
    lattice,
    limits,
)
from rieszmart.cli import _constant_process
from rieszmart.conditional import ConditionalExpectationOp, Partition
from rieszmart.processes import ProcessSequence
from rieszmart.reports import dump_json
from rieszmart.rng import SplitMix64
from chains import random_partition, split_largest_chain


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block{b}")
def block_elements(request, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", request.param)
    return request.param


def outcome(run):
    """Report bytes, or the type and text of the exception raised."""
    try:
        return dump_json(run().to_json_dict())
    except Exception as exc:  # the comparison is the point
        return f"{type(exc).__name__}: {exc}"


def pairs(proc, diffs, tol):
    """(tall, whole-stack) runs of the experiments on a submartingale proc
    and a difference sequence diffs, either of them None."""
    power1, power3 = WeightSequence.power(1.0), WeightSequence.power(3.0)
    if proc is not None:
        yield (lambda: limits.submartingale_convergence_experiment(proc, power1, 2.0, tol=tol),
               lambda: whole_submartingale(proc, power1, 2.0, tol=tol))
    if diffs is None:
        return
    for p in (1.5, 2.0):
        yield (lambda: limits.slln_p_le_2(diffs, power1, p, tol=tol),
               lambda: whole_slln_p_le_2(diffs, power1, p, tol=tol))
    for p, gamma, k in ((4.0, 1.5, 2.0), (3.0, 0.5, 1.0)):
        yield (lambda: limits.slln_p_gt_2(diffs, power3, p, gamma, k, tol=tol),
               lambda: whole_slln_p_gt_2(diffs, power3, p, gamma, k, tol=tol))
    for p in (2.5, 3.0, 4.0):
        yield (lambda: limits.slln_an_equals_n(diffs, p, tol=tol),
               lambda: whole_slln_an_equals_n(diffs, p, tol=tol))


def record_heads(monkeypatch) -> list:
    """(operand's H, image's H, N) of every T_1 image the experiments form."""
    seen = []
    image = limits._image

    def recorded(t1, operand, *zeros):
        stack, layout = image(t1, operand, *zeros)
        seen.append((len(limits._tall(operand).head), len(stack.head), stack.count))
        return stack, layout

    monkeypatch.setattr(limits, "_image", recorded)
    return seen


def same(proc, diffs, tol) -> int:
    """Compare every pair; the number of reports with a failure."""
    failing = 0
    for tall, whole in pairs(proc, diffs, tol):
        new = outcome(tall)
        assert new == outcome(whole)
        failing += '"failure_count": 0' not in new
    return failing


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_experiments_match_the_whole_stack_bodies_on_the_block_grid(
    tol, block_elements, lenient_gates, monkeypatch
):
    seen = record_heads(monkeypatch)
    failing = 0
    for cfg, filt in cases():
        failing += same(generate_submartingale(cfg, "positive-part", filt), generate_mds(cfg, filt), tol)
    assert failing > 0
    # The dyadic cases settle; the others, and the short ones, do not.
    assert any(h < n for _, h, n in seen) and any(h == n for _, h, n in seen)


def padded(seed: int, dim: int, mode: str, head: int, steps: int) -> ProcessSequence:
    """A generated difference sequence on steps stages whose rows from
    head - 1 on are +0.0: its first head - 1 rows, drawn at this horizon."""
    diffs = generate_mds(GeneratorConfig(seed=seed, dim=dim, steps=steps, weight_mode=mode))
    values = diffs.values.copy()
    values[head - 1 :] = 0.0
    return ProcessSequence(diffs.filtration, values)


def positive_part(diffs: ProcessSequence) -> ProcessSequence:
    return ProcessSequence(diffs.filtration, np.maximum(np.cumsum(diffs.values, axis=0), 0.0))


def head_grid(width: int):
    """(H, N) pairs fixed before comparing: heads ending one row before, at
    and one row past a row-block edge and at two blocks, and horizons that
    put the checkpoints and (N + 1) // 2 inside and past the head."""
    step = max(1, lattice.BLOCK_ELEMENTS // width)
    for head in sorted({h for h in (1, 2, step - 1, step, step + 1, 2 * step) if 0 < h <= 300}):
        for steps in sorted({head, head + 1, 2 * head - 1, 2 * head, 2 * head + 1, 4 * head + 3, 100}):
            if steps >= head:
                yield head, steps


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_heads_at_and_inside_row_block_edges_match_the_whole_stack_bodies(
    tol, block_elements, lenient_gates, monkeypatch
):
    """On 3 and 5 uniform atoms and 4 random ones every row past the cut is
    a drawn residue, so the head ends where the rows are cut to +0.0."""
    seen = record_heads(monkeypatch)
    heads = set()
    for seed, (dim, mode) in enumerate(((3, "uniform"), (5, "uniform"), (4, "random"))):
        for head, steps in head_grid(dim):
            diffs = padded(seed, dim, mode, head, steps)
            heads.add((len(limits._Tall.of(diffs.values).head), head))
            same(positive_part(diffs), diffs, tol)
    assert any(h == head > 1 for h, head in heads)  # the head is where it was cut
    assert any(1 < h < n for _, h, n in seen)


@pytest.fixture
def no_gates(monkeypatch):
    """Experiments on stacks that are no difference sequence: both bodies
    read the gates from limits."""
    monkeypatch.setattr(limits, "classify", lambda proc, tol=None: "martingale")
    monkeypatch.setattr(limits, "require_difference_sequence", lambda proc, tol=None: None)


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_a_nonzero_repeated_row_keeps_the_whole_height(tol, block_elements, no_gates):
    """A nonzero row repeated over the back half (H = N // 2): the running
    sums do not settle, so every stack built from them is whole.  At
    H = N - 1 the run of one row is shorter than the head, so the stack is
    whole from the start."""
    for seed, dim in enumerate((3, 5, 8)):
        for steps in (3, 17, 300):
            for start in (steps // 2 - 1, steps - 2):
                diffs = generate_mds(GeneratorConfig(seed=seed, dim=dim, steps=steps))
                values = diffs.values.copy()
                values[start:] = values[1]
                diffs = ProcessSequence(diffs.filtration, values)
                head = len(limits._Tall.of(values).head)
                assert head == (start + 1 if 2 * (start + 1) <= steps else steps)
                same(positive_part(diffs), diffs, tol)


@pytest.mark.parametrize("tol", TOLS, ids=["default", "negative-slack"])
def test_constant_processes_match_the_whole_stack_body(tol, block_elements, lenient_gates, monkeypatch):
    """simulate --constant: one row repeated N times, whose terms are all
    +0.0, at horizons within one row block and across several."""
    seen = record_heads(monkeypatch)
    for constant in (0.0, 0.75, 3.0):
        for dim in (1, 3, 8):
            for steps in (1, 2, 17, 200):
                proc = _constant_process(constant, dim, steps)
                assert len(limits._Tall.of(proc.values).head) == 1
                same(proc, None, tol)
    assert any(h == 1 < n for _, h, n in seen)


@pytest.mark.parametrize("share", [1, 2], ids=["every-product", "half-the-products"])
def test_a_zero_tail_moved_by_one_ulp_grows_the_head(share, monkeypatch, lenient_gates):
    """nudge_products moves the middle row of a T_1 product by 1 ulp, past
    the head on these horizons: the tail check must see it, and the reports
    must still be the whole-stack bodies' under the same nudge."""
    nudge_products(monkeypatch, share)
    seen = record_heads(monkeypatch)
    for seed, dim in enumerate((4, 8)):
        for steps in (40, 301):
            cfg = GeneratorConfig(seed=seed, dim=dim, steps=steps)
            for tol in TOLS:
                same(generate_submartingale(cfg), generate_mds(cfg), tol)
    assert any(h > n // 2 > operand for operand, h, n in seen)


@pytest.mark.parametrize("height", [1, 7, 100_000])
def test_the_image_of_a_zero_row_is_zero(height):
    """T_1 of +0.0 rows is +0.0 bit for bit, which the tail check relies on:
    random weights on dims 2 to 9, T_1 of one block, of random blocks (the
    verify suites' partitions) and of blocks split off the largest."""
    stream = SplitMix64(5)
    blocks = set()
    for dim in range(2, 10):
        space = SampleSpace(stream.floats(dim) + 0.01)
        t1s = [default_filtration(space, 1)[0]]
        t1s += [ConditionalExpectationOp(random_partition(stream, space)) for _ in range(3)]
        t1s += [split_largest_chain(Partition.single_block(space), 3)[1]]
        for t1 in t1s:
            blocks.add(t1.partition.num_blocks)
            image = t1.apply_rows(np.zeros((height, dim)))
            assert image.shape == (height, dim) and not image.view(np.int64).any()
    assert 1 in blocks and len(blocks) > 3


def test_the_scan_finds_where_a_stack_settles(block_elements):
    """_Tall.of compares bits: -0.0 is not +0.0, and NaNs differ by payload."""
    rng = np.random.default_rng(3)
    nan, other_nan = np.array([0x7FF8000000000001, 0x7FF8000000000002], np.uint64).view(np.float64)
    for width in (1, 3, 8):
        for rows in (1, 2, 5, 64, 200):
            for start in sorted({0, 1, rows // 2, rows - 2, rows - 1} & set(range(rows))):
                for last, unlike in ((0.0, -0.0), (-0.0, 0.0), (1.5, 2.5), (nan, other_nan)):
                    stack = rng.standard_normal((rows, width))
                    stack[start:] = last
                    if start:
                        stack[start - 1, -1] = unlike
                    tall = limits._Tall.of(stack)
                    # A settled run shorter than the head is not split off.
                    assert len(tall.head) == (start + 1 if 2 * (start + 1) <= rows else rows)
                    assert tall.count == rows
                    assert tall.full().tobytes() == stack.tobytes()


def test_rows_divided_by_their_rates_keep_a_repeated_row_only_where_exact():
    """divided keeps the head only for a zero repeated row whose divisors
    from the head's last row on are positive: 0/0 is NaN and 0/inf is +0.0."""
    rng = np.random.default_rng(7)
    head = rng.standard_normal((4, 3))
    for last in (0.0, -0.0, 2.0):
        head[-1] = last
        tall = limits._Tall(head.copy(), 9)
        for divisors in (np.arange(1.0, 10.0), np.r_[1.0, 1.0, 2.0, 2.0, 3.0, 0.0, 4.0, 4.0, 5.0],
                         np.r_[np.arange(1.0, 8.0), np.inf, np.inf]):
            with np.errstate(divide="ignore", invalid="ignore"):
                want = tall.full() / divisors[:, None]
                for in_place in (False, True):
                    got = limits._Tall(tall.head.copy(), 9).divided(divisors, in_place)
                    assert got.full().tobytes() == want.tobytes()
                    assert (len(got.head) < 9) == (last == 0.0 and divisors.min() > 0.0)
