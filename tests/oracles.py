"""Oracles: the gate cores and the T_1 image check before they read each
(N, n) stack once.

The cores below took the slack and grouped the stages once for the
adaptedness check and again for their own comparisons, and the difference
check took max|f| over the identity suffix in a third pass.  old_image
compared each row block of the product with a gathered copy of its block
values.  They are the bodies of processes._adapted (now part of _scan),
_classify and _difference_sequence and of limits._image as they were, with
their helpers, and tests/test_one_pass.py holds the new code to them bit for
bit.
"""

import numpy as np

from rieszmart.conditional import average_rows
from rieszmart.errors import NotAdapted
from rieszmart.lattice import halving_fold, row_blocks
from rieszmart.limits import _Layout
from rieszmart.processes import MARTINGALE, NONE, NOT_ADAPTED, SUBMARTINGALE, SUPERMARTINGALE


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
