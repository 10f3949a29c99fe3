"""processes._classify against the body it replaced and the full-matrix
reference.

old_classify below is the replaced body: every distinct operator builds
two reversed suffix envelopes over all its later stages, the identity's
included.  _classify compares the stages from the singleton cut c in one
pass over row blocks and folds each earlier operator's rows past stage c
into one extreme.  classify_full_matrix (tests/test_processes.py)
transforms every stage by every operator; a BLAS product over more rows
may round a row differently, so that reference is held to the label at
positive slack only.  Labels, exception types and messages must be
identical on a grid fixed before comparing:

- dims 1-16 at N = 1, 2, 3, dim - 1, dim, dim + 1, 10^4 and 10^5, and
  dim = N up to 256, on uniform and random weights;
- martingales, positive-part and drift submartingales, supermartingales,
  processes labelled none, and non-adapted processes;
- violations placed only at pairs i < c <= j, only at i = c - 1, or only
  inside the identity suffix next to a row-block edge, at BLOCK_ELEMENTS
  1, 7, 64 and 65536, some of them two steps that each stay within the
  slack;
- values scaled up to 1e300 and to the largest float.  A block mean is at
  most max|f|, so no product overflows, but f_i -+ slack may, and the
  RuntimeWarning, an error under the test configuration, must match too.
"""

import numpy as np
import pytest

from rieszmart import DEFAULT_TOL, Tolerance, lattice
from rieszmart.conditional import average_rows
from rieszmart.processes import (
    MARTINGALE,
    NONE,
    NOT_ADAPTED,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    GeneratorConfig,
    NotAdapted,
    ProcessSequence,
    _classify,
    default_filtration,
    generate_mds,
    make_space,
    partial_sums,
)
from rieszmart.rng import SplitMix64, derive_seed
from oracles import old_adapted, old_groups, old_slack
from test_processes import classify_full_matrix

TOLS = [DEFAULT_TOL, Tolerance(abs=0.0, rel=0.0), Tolerance(abs=-1e-12, rel=1e-9)]


def old_classify(mat, weights, ids, stage, tol):
    """The replaced _classify."""
    if not old_adapted(mat, weights, ids, stage, tol):
        raise NotAdapted(NOT_ADAPTED)
    count = mat.shape[0]
    if count < 2:
        return MARTINGALE
    slack = old_slack(mat, tol)
    is_sub = True
    is_super = True
    for d, idx in enumerate(old_groups(stage, count - 1)):
        # Only stages after the operator's first use are ever compared.
        transformed = average_rows(weights, ids(d), mat[idx[0] + 1 :])
        # suffix envelopes of T_i-transformed values over j = i+1 .. N-1,
        # row r standing for stage idx[0] + 1 + r
        suff_min = np.minimum.accumulate(transformed[::-1], axis=0)[::-1]
        suff_max = np.maximum.accumulate(transformed[::-1], axis=0)[::-1]
        here = mat[idx]
        after = idx - idx[0]
        if is_sub and np.any(suff_min[after] < here - slack):
            is_sub = False
        if is_super and np.any(suff_max[after] > here + slack):
            is_super = False
        if not (is_sub or is_super):
            return NONE
    if is_sub and is_super:
        return MARTINGALE
    return SUBMARTINGALE if is_sub else SUPERMARTINGALE


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point
        return f"{type(exc).__name__}: {exc}"


def same_label(filtration, values, tol, full=True):
    """The outcome of _classify, asserted equal to old_classify's and, with
    full, to classify_full_matrix's."""
    process = ProcessSequence(filtration, values)
    table = (process.values, *filtration.stages.table(0), tol)
    label = outcome(_classify, *table)
    assert label == outcome(old_classify, *table)
    if full:
        assert label == outcome(classify_full_matrix, process, tol)
    return label


def base_processes(cfg):
    """The filtration of cfg and, on it, a martingale, its positive part, a
    drift submartingale, its negative (a supermartingale), the martingale
    plus a random constant per stage (none) and, but on one atom, the
    martingale with one atom of a coarse stage moved (not adapted)."""
    filt = default_filtration(make_space(cfg), cfg.steps)
    sums = partial_sums(generate_mds(cfg, filt)).values
    stream = SplitMix64(derive_seed(cfg.seed, "classify-grid"))
    drift = sums + np.cumsum(stream.uniforms(cfg.steps, 0.0, 0.5))[:, None]
    kinds = {
        "martingale": sums,
        "positive-part": np.maximum(sums, 0.0),
        "drift": drift,
        "super": -drift,
        "none": sums + stream.uniforms(cfg.steps, -1.0, 1.0)[:, None],
    }
    if cfg.dim > 1:
        moved = sums.copy()
        moved[0, stream.below(cfg.dim)] += 0.25
        kinds["not-adapted"] = moved
    return filt, kinds


def horizons(dim):
    return sorted({1, 2, 3, max(dim - 1, 1), dim, dim + 1, 10**4, 10**5})


GRID = [(dim, steps) for dim in range(1, 17) for steps in horizons(dim)]
KINDS = ["martingale", "positive-part", "drift", "super", "none", "not-adapted"]


def cases(dim, steps, seed):
    """(filtration, kind, values, tol, full) of one grid point.  Past 10^3
    stages each dim takes one weight mode, uniform or random in turn, and
    at the longest horizon one kind of process, each kind in turn.  With
    full, the full-matrix reference is compared too: at positive slack, and
    past 10^3 stages on the martingale at 10^4 only, for time."""
    long = steps > 1000
    modes = [("uniform", "random")[dim % 2]] if long else ["uniform", "random"]
    for mode in modes:
        filt, kinds = base_processes(GeneratorConfig(seed, dim, steps, 1.0, mode))
        for kind, values in kinds.items():
            if steps == 10**5 and kind != KINDS[dim % 6]:
                continue
            for tol in TOLS[:1] if long else TOLS:
                full = tol is DEFAULT_TOL and (not long or (steps < 10**5 and kind == "martingale"))
                yield filt, kind, values, tol, full


def test_classify_matches_the_replaced_body_on_dims_1_to_16():
    seen = set()
    for seed, (dim, steps) in enumerate(GRID):
        for filt, kind, values, tol, full in cases(dim, steps, seed):
            seen.add((kind, same_label(filt, values, tol, full)))
    labels = {label for _, label in seen}
    assert {MARTINGALE, SUBMARTINGALE, SUPERMARTINGALE, NONE} <= labels
    assert ("not-adapted", f"NotAdapted: {NOT_ADAPTED}") in seen


@pytest.mark.parametrize("dim", [17, 31, 64, 128, 256])
def test_classify_matches_the_replaced_body_on_wide_atoms(dim):
    mode = ("uniform", "random")[dim % 2]
    filt, kinds = base_processes(GeneratorConfig(dim, dim, dim, 1.0, mode))
    for kind, values in kinds.items():
        same_label(filt, values, DEFAULT_TOL, full=dim <= 64)


# --- violations placed around the cut -------------------------------------------


def around_the_cut(filtration):
    """The cut c, stage c - 1's and c - 2's block ids, the atoms whose block
    stage c - 1 splits off, and the atoms in a block of two or more there."""
    cut = int(filtration.stage.searchsorted(len(filtration.distinct) - 1))
    fine, coarse = (filtration.distinct[d].partition.block_id for d in (-2, -3))
    atoms = range(len(fine))
    split = [a for a in atoms if np.any((coarse == coarse[a]) & (fine != fine[a]))]
    paired = [a for a in atoms if np.count_nonzero(fine == fine[a]) > 1]
    return cut, fine, coarse, split, paired


def unit(weights, inner, outer):
    """The indicator of inner less its weight's share of outer's: every
    stage whose blocks hold outer whole averages it to 0 (up to rounding)."""
    return inner - outer * weights[inner].sum() / weights[outer].sum()


def placed(filtration, values, where, at, atom, delta):
    """values with the sub side refuted at atom, by delta, or within the
    slack by the borderline placements, where delta is a fraction of it:
    "cross" steps every row from the cut c down, so only pairs i < c <= j
    miss; "edge" raises row c - 1 by a unit of its block within its block at
    stage c - 2, so only i = c - 1 misses; "inside" raises row at by a unit
    of atom within its block at stage c - 1, so only pairs of identity stages
    miss.  Borderline: "late" steps the rows from c down at a singleton of
    stage c - 1, and row at (> c) once more, so only pairs (i < c, at) miss;
    "dip" steps the rows from at - 1 down by a unit of atom within its block
    at stage c - 1, and row at once more, so only pairs (c <= i < at - 1, at)
    miss, which a scan must carry across row blocks of one row."""
    out = values.copy()
    cut, fine, coarse, _, _ = around_the_cut(filtration)
    weights, atoms = filtration.space.weights, np.arange(len(fine))
    inner = unit(weights, atoms == atom, fine == fine[atom])
    if where in ("cross", "late"):
        out[cut:, atom] -= delta
        out[at, atom] -= delta if where == "late" else 0.0
    elif where == "edge":
        out[cut - 1] += delta * unit(weights, fine == fine[atom], coarse == coarse[atom])
    elif where == "inside":
        out[at] += delta * inner
    else:
        out[at - 1 :] -= delta * inner
        out[at] -= delta * inner
    return out


@pytest.mark.parametrize("block_elements", [1, 7, 64, 65536])
def test_violations_around_the_cut_and_the_row_block_edges(block_elements, monkeypatch):
    monkeypatch.setattr(lattice, "BLOCK_ELEMENTS", block_elements)
    dim = 8
    step = max(1, block_elements // dim)  # the rows of one suffix block
    steps = dim + 3 * step + 3  # past three block edges
    seed = [1, 7, 64, 65536].index(block_elements)
    filt, kinds = base_processes(GeneratorConfig(seed, dim, steps, 1.0, ("uniform", "random")[seed % 2]))
    cut, fine, _, split, paired = around_the_cut(filt)
    edges = [cut + m * step + e for m in (1, 2, 3) for e in (-1, 0, 1)]
    rows = sorted({cut, cut + 1, *edges, steps - 2, steps - 1})
    placements = [("cross", cut, a) for a in range(dim)] + [("edge", cut - 1, a) for a in split]
    placements += [("inside", r, a) for r in rows for a in paired[:1]]
    # On the drift, delta beats the drift from the first later stage, not
    # from the last, so an envelope built from the wrong end misses it.
    climb = kinds["drift"][:, 0] - kinds["martingale"][:, 0]
    labels = set()
    for kind in ("martingale", "drift"):
        for where, at, atom in placements:
            first = min(at + 1, steps - 1) if where == "inside" else cut
            delta = 1e-3 if kind == "martingale" else 4 * (climb[first] - climb[first - 1]) + 1e-3
            values = placed(filt, kinds[kind], where, at, atom, delta)
            labels.add((kind, where, same_label(filt, values, DEFAULT_TOL, full=steps < 2000)))
    # Borderline, on the martingale: each step stays within the slack, the
    # two together do not.  The dip's atom is the lighter of its pair, so
    # the unit's other atom moves by less than the slack too.
    slack = old_slack(kinds["martingale"], DEFAULT_TOL)
    single = [a for a in range(dim) if a not in paired]
    light = min(paired, key=lambda a: filt.space.weights[a])
    share = filt.space.weights[light] / filt.space.weights[fine == fine[light]].sum()
    for where, atom, delta in (("late", single[0], 0.6 * slack), ("dip", light, 0.75 * slack / (1 - share))):
        for at in [r for r in rows if r > cut + (where == "dip")]:
            values = placed(filt, kinds["martingale"], where, at, atom, delta)
            labels.add(("martingale", where, same_label(filt, values, DEFAULT_TOL, full=steps < 2000)))
    for where in ("cross", "edge", "inside", "late", "dip"):
        assert {label for kind, w, label in labels if kind == "martingale" and w == where} <= {SUPERMARTINGALE, NONE}
    for where in ("cross", "edge", "inside"):
        assert ("drift", where, NONE) in labels


@pytest.mark.parametrize("top", [1e300, np.finfo(float).max], ids=["1e300", "max"])
def test_values_scaled_to_the_largest_floats(top):
    labels = set()
    for seed, (dim, steps) in enumerate([(5, 9), (8, 2000), (16, 40), (3, 3)]):
        for mode in ("uniform", "random"):
            filt, kinds = base_processes(GeneratorConfig(seed, dim, steps, 1.0, mode))
            for values in kinds.values():
                if not np.any(values):
                    continue
                scaled = values / np.abs(values).max() * top
                for tol in TOLS:
                    labels.add(same_label(filt, scaled, tol))
    overflows = {label for label in labels if label.startswith("RuntimeWarning: overflow")}
    assert len(overflows) == (2 if top > 1e300 else 0)  # in subtract and in add
