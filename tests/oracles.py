"""Oracles: bodies replaced in src/, kept as the reference for their
replacements.

The gate cores and the T_1 image check before they read each (N, n) stack
once: the cores took the slack and grouped the stages once for the
adaptedness check and again for their own comparisons, and the difference
check took max|f| over the identity suffix in a third pass.  old_image
compared each row block of the product with a gathered copy of its block
values.  They are the bodies of processes._adapted (now part of _scan),
_classify and _difference_sequence and of limits._image as they were, with
their helpers, and tests/test_one_pass.py holds the new code to them bit for
bit.

old_decide_gates is processes.decide_gates when its certificate also
refused processes, under its rounding bound, and labelled them;
substream_grid drew the generator's rows past the singleton cut as one word
grid (rng.substream_grid).  tests/test_gates.py, tests/test_rng.py and
tests/test_batched.py hold the new code to them.
"""

import numpy as np

from rieszmart.conditional import average_rows
from rieszmart.errors import NotAdapted
from rieszmart.lattice import halving_fold, row_blocks
from rieszmart.limits import _Layout
from rieszmart.processes import (
    _SAFE,
    MARTINGALE,
    NONE,
    NOT_ADAPTED,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    _classify,
    _difference_sequence,
)
from rieszmart.rng import _GOLDEN, _mix64_in_place, derive_seed


def old_groups(stage, stop=None) -> list:
    """Stages [:stop] grouped by distinct partition, the stages of partition
    d at [d]."""
    stage = stage[:stop]
    ends = np.cumsum(np.bincount(stage)).tolist()  # before the sort: bincount copies stage
    order = np.argsort(stage, kind="stable")
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


def old_filled(ids, groups, n):
    for rows in row_blocks(len(groups), n):
        block = ids(np.arange(rows.start, rows.stop)).reshape(-1, n)
        block -= block[:, :1]
        yield from zip(groups[rows], block)


def old_max_abs(mat) -> float:
    blocks = row_blocks(*mat.shape)
    return max((float(np.max(np.abs(mat[rows]))) for rows in blocks), default=0.0)


def old_slack(mat, tol) -> float:
    return tol.abs + tol.rel * old_max_abs(mat)


def old_adapted(mat, weights, ids, stage, tol) -> bool:
    slack = old_slack(mat, tol)
    for idx, block_id in old_filled(ids, old_groups(stage), mat.shape[1]):
        if block_id[-1] == mat.shape[1] - 1:  # the identity fixes everything
            continue
        rows = mat[idx]
        if np.max(np.abs(average_rows(weights, block_id, rows) - rows)) > slack:
            return False
    return True


_SIDES = ((np.minimum, np.less, np.subtract), (np.maximum, np.greater, np.add))


def old_classify(mat, weights, ids, stage, tol) -> str:
    if not old_adapted(mat, weights, ids, stage, tol):
        raise NotAdapted(NOT_ADAPTED)
    count, n = mat.shape
    if count < 2:
        return MARTINGALE
    slack = old_slack(mat, tol)
    last = int(stage[-1])
    cut = int(stage.searchsorted(last)) if ids(last)[-1] == n - 1 else count
    live = [True, True]
    for idx, block_id in old_filled(ids, old_groups(stage, min(cut, count - 1)), n):
        transformed = average_rows(weights, block_id, mat[idx[0] + 1 :])
        m = min(cut - idx[0], len(transformed))
        at, here = m - 1 - (idx - idx[0]), mat[idx]
        for s, (ext, worse, shift) in enumerate(_SIDES):
            if live[s]:
                env = ext.accumulate(transformed[:m][::-1], axis=0)[at]
                if m < len(transformed):
                    ext(env, halving_fold(ext, transformed[m:], 0), out=env)
                live[s] = not worse(env, shift(here, slack)).any()
        if not any(live):
            return NONE
    for s, (ext, worse, shift) in enumerate(_SIDES):
        carry = mat[-1]
        for rows in reversed(row_blocks(count - 1, n, start=cut)) if live[s] else ():
            env = ext.accumulate(mat[rows.stop : rows.start : -1], axis=0)
            if worse(ext(env, carry, out=env), shift(mat[rows][::-1], slack)).any():
                live[s] = False
                break
            carry = env[-1]
    if not any(live):
        return NONE
    if all(live):
        return MARTINGALE
    return SUBMARTINGALE if live[0] else SUPERMARTINGALE


def old_difference_sequence(mat, weights, ids, stage, tol) -> bool:
    if not old_adapted(mat, weights, ids, stage, tol):
        return False
    if mat.shape[0] < 2:
        return True
    slack = old_slack(mat, tol)
    for idx, block_id in old_filled(ids, old_groups(stage, -1), mat.shape[1]):
        if block_id[-1] == mat.shape[1] - 1:
            means = mat[idx[0] + 1 :]
        else:
            means = average_rows(weights, block_id, mat[idx + 1])
        if old_max_abs(means) > slack:
            return False
    return True


_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def old_image(t1, operand) -> tuple:
    image = t1.apply_rows(operand)
    layout = _Layout.of(t1.partition.block_id)
    if len(layout.size) < image.shape[1]:
        values = image[:, layout.first]
        bits = values.view(np.int64)
        if (
            np.isfinite(values).all()
            and not (bits == _NEGATIVE_ZERO).any()
            and all(
                np.array_equal(image[rows].view(np.int64), bits[rows][:, layout.ids])
                for rows in row_blocks(*image.shape)
            )
        ):
            return values, layout
    return image, _Layout.singletons(image.shape[1])


def old_decide_gates(stages, values, tol, labels=True):
    """decide_gates with the failure half of its certificate: a process whose
    adaptedness residual, sub-side step or difference mean exceeds slack + G
    is refused, and labelled, without an exact core."""
    ops, width = stages.row_ops(stages.stage), np.repeat(stages.n, stages.steps)  # atoms of each row
    heads, steps, rows = ops.starts[:-1], stages.steps, stages.first_row
    last = np.zeros(len(width), dtype=bool)
    last[rows + steps - 1] = True
    with np.errstate(all="ignore"):
        ahead = np.take(values, np.arange(values.size) + np.repeat(width, width), mode="clip")
        own, following = ops.apply(values), ops.apply(ahead)
        residual = np.maximum.reduceat(np.abs(own - values), heads)
        identity = stages.num_blocks[stages.stage] == width
        worst = np.maximum.reduceat(np.where(identity, -np.inf, residual), rows)
        big = np.maximum.reduceat(np.abs(values), stages.elements[:-1])
        slack = tol.abs + tol.rel * big
        guard = 1.02 * 2.0**-53 * ((4 * stages.n + 8) * big + (steps + 4) * np.abs(slack))
        lo, hi = slack - guard, slack + guard
        adapted, unadapted = worst <= lo, worst > hi
        safe = np.isfinite(slack) & (np.minimum.reduceat(stages.weights, stages.atoms[:-1]) >= _SAFE[0])
        safe &= (big == 0.0) | ((big >= _SAFE[0]) & (big <= _SAFE[1]))
        if labels:
            d, sides = following - values, []
            for ext, sign in ((np.minimum, -1.0), (np.maximum, 1.0)):
                step = np.where(last, -sign * np.inf, ext.reduceat(d, heads))
                spread = np.add.reduceat(np.maximum(sign * step, 0.0), rows)
                sides.append(((steps < 2) | (spread + (steps + 2) * guard <= slack),
                              sign * ext.reduceat(step, rows) > hi))
            (sub, not_sub), (sup, not_sup) = sides
            good = adapted & sub
            failed = unadapted | (adapted & not_sub & (sup | not_sup))
            label = np.where(unadapted, None, np.where(sup, SUPERMARTINGALE, NONE))
        else:
            means = np.where(last, -np.inf, np.maximum.reduceat(np.abs(following), heads))
            peak = np.maximum.reduceat(means, rows)
            good, failed = adapted & (peak <= lo), unadapted | (adapted & (peak > hi))
            label = np.full(len(steps), None)
    exact = np.zeros(len(steps), dtype=bool)
    for k in np.flatnonzero(~(good & safe)).tolist():
        if not (failed[k] and safe[k]):
            exact[k] = True
            table = (stages.values(values, k), *stages.table(k), tol)
            if labels:
                try:
                    label[k] = _classify(*table)
                except NotAdapted:
                    label[k] = None
                if label[k] in (MARTINGALE, SUBMARTINGALE):
                    continue
            elif _difference_sequence(*table):
                continue
        return np.arange(len(steps)) == k, label[k], exact
    return np.zeros(len(steps), dtype=bool), None, exact


def substream_grid(out, seed, *labels, first=0, work=None) -> None:
    """Row i of the (rows, width) float64 array out becomes
    substream(seed, *labels, first + i).floats(width): word k of the stream
    seeded s is mix64(s + (k + 1) * golden), so the words form one grid.
    work, a uint64 array of at least out.size words, holds the grid."""
    rows, width = out.shape
    prefix = np.uint64(derive_seed(seed, *labels))
    seeds = _mix64_in_place(np.arange(first, first + rows, dtype=np.uint64) ^ prefix)
    if work is None:
        work = np.empty(out.size, dtype=np.uint64)
    # Laid out (width, rows), so every ufunc runs along the long axis.
    words = work[: out.size].reshape(width, rows)
    np.multiply(np.arange(1, width + 1, dtype=np.uint64)[:, None], np.uint64(_GOLDEN), out=words)
    words += seeds
    _mix64_in_place(words)
    words >>= np.uint64(11)
    np.multiply(words.T, 2.0**-53, out=out)
