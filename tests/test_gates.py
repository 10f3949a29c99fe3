"""processes.decide_gates, the batched label and difference-sequence gates,
against copies of the per-trial loops they replace.

The copies below ran the exact cores _classify and _difference_sequence one
process at a time, stopping at the first that fails; they are the reference.
Every run must give the same bad mask and, through raise_first, the same
exception type and message, on a grid fixed before comparing: the process
shapes of the hrc, doob and burkholder suites under seven tolerances,
1-atom and all-singleton processes at negative slack, drifts, adaptedness
residuals and conditional means placed a few ulps either side of the slack,
and values scaled by 2^900 and 2^-900, which only the exact cores decide.
"""

import numpy as np
import pytest
from chains import refining_filtration

from rieszmart import DEFAULT_TOL, Tolerance, inequalities, suites
from rieszmart.errors import NotAdapted, NotDifferenceSequence, NotSubmartingale
from rieszmart.inequalities import difference_check, label_check
from rieszmart.lattice import SampleSpace, raise_first
from rieszmart.conditional import Filtration, Partition, Stages, make_filtration
from rieszmart.processes import (
    MARTINGALE,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    GeneratorConfig,
    ProcessSequence,
    _classify,
    _difference_sequence,
    _mds_rows,
    classify,
    decide_gates,
    default_filtration,
    generate_mds,
    generate_submartingale,
    is_adapted,
    is_difference_sequence,
    make_space,
)
from rieszmart.rng import SplitMix64, derive_seed, derive_seeds
from rieszmart.suites import RunConfig, run_suite

TOLS = [
    DEFAULT_TOL,
    Tolerance(abs=0.0, rel=0.0),
    Tolerance(abs=1e-12, rel=1e-15),
    Tolerance(abs=-1e-3, rel=1e-9),
    Tolerance(abs=1e-12, rel=-1e-9),
    Tolerance(abs=1e-3, rel=0.0),
    Tolerance(abs=0.0, rel=0.0),
]
SHAPES = [(16, 12), (3, 40), (40, 5)]  # (dim_max, steps_max)
GATE_SUITES = ("hrc", "doob", "burkholder")

# --- the per-trial loops ------------------------------------------------------


def old_require_submartingale(label):
    if label not in (MARTINGALE, SUBMARTINGALE):
        raise NotSubmartingale(f"maximal inequality needs a (sub)martingale, got {label}")


def old_difference_check(stages, values, tol):
    bad = np.zeros(len(stages.n), dtype=bool)
    for k in range(len(bad)):
        if not _difference_sequence(stages.values(values, k), *stages.table(k), tol):
            bad[k] = True
            break
    return bad, lambda k: NotDifferenceSequence(
        "sequence is not a martingale difference sequence for its filtration"
    )


def old_label_check(stages, values, tol):
    bad = np.zeros(len(stages.n), dtype=bool)
    errors = {}
    for k in range(len(bad)):
        try:
            old_require_submartingale(_classify(stages.values(values, k), *stages.table(k), tol))
        except (NotAdapted, NotSubmartingale) as exc:
            bad[k], errors[k] = True, exc
            break
    return bad, errors.get


def outcome(check):
    """The bad mask and the exception raise_first raises, as type and message."""
    bad, error = check
    try:
        raise_first((bad, error))
    except Exception as exc:  # the comparison is the point
        return bad.tolist(), f"{type(exc).__name__}: {exc}"
    return bad.tolist(), None


def tail(stages, values, k):
    """Processes k, k + 1, ... of stages, and their values."""
    g, row = int(stages.stage[stages.first_row[k]]), int(stages.first_row[k])
    part = Stages(
        stages.n[k:],
        stages.steps[k:],
        stages.weights[stages.atoms[k] :],
        stages.ids[stages.id_starts[g] :],
        stages.id_starts[g:] - stages.id_starts[g],
        stages.num_blocks[g:],
        stages.block_weight[stages.weight_starts[g] :],
        stages.stage[row:] - g,
    )
    return part, values[stages.elements[k] :]


def same_gates(stages, values, tol):
    """Both gates against their loops, restarted after each failing process
    so that every process is compared; returns how many processes
    decide_gates sent to the exact cores."""
    sent = 0
    for labels, check, old in ((True, label_check, old_label_check), (False, difference_check, old_difference_check)):
        start = 0
        while start < len(stages.n):
            part, vals = tail(stages, values, start)
            new = outcome(check(part, vals, tol))
            assert new == outcome(old(part, vals, tol)), (labels, start)
            sent += int(decide_gates(part, vals, tol, labels)[2].sum())
            start += new[0].index(True) + 1 if True in new[0] else len(new[0])
    return sent


# --- the grids ----------------------------------------------------------------


def suite_processes(suite, seed, dim_max, steps_max, trials=24):
    """The Stages of one batch of a suite's trials, and the values its gate
    sees: the submartingales of hrc and doob, the differences of burkholder."""
    cfg = suites.RunConfig(suite=suite, trials=trials, seed=seed, dim_max=dim_max, steps_max=steps_max)
    t = np.arange(trials)
    if suite != "burkholder":
        stages, values, _, _ = suites._maximal_trials(cfg, suite, t)
        return stages, values
    head = suites._head(cfg, suite, t, 3)
    n = 1 + suites.below(head[:, 0], dim_max)
    steps = 1 + suites.below(head[:, 1], steps_max)
    seeds = suites._process_seeds(cfg, suite, t)
    weights = suites._weights(n, [suites._made_space(seeds, n, head[:, 2] >= 0.5)])
    stages, diffs, _ = suites._differences(seeds, n, steps, weights)
    return stages, diffs


def singleton_processes(n, steps, seed):
    """Processes on the singleton partition throughout, with random weights
    and values: every stage is the identity."""
    n, steps = np.asarray(n), np.asarray(steps)
    rng = np.random.default_rng(seed)
    weights = np.concatenate([w / w.sum() for w in (rng.uniform(0.05, 1.0, m) for m in n)])
    first = np.concatenate([np.arange(m) for m in n])
    stages = Stages.split_chains(n, steps, weights, first, n.copy())
    return stages, rng.uniform(-2.0, 2.0, stages.size)


@pytest.mark.parametrize("suite", GATE_SUITES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_batched_gates_match_the_per_trial_loops(suite, shape):
    fallbacks = 0
    for seed in range(4):
        stages, values = suite_processes(suite, seed, *shape)
        for tol in TOLS:
            sent = same_gates(stages, values, tol)
            if tol is DEFAULT_TOL:
                assert sent == 0, seed
            fallbacks += sent
    assert fallbacks > 0  # the zero and negative slacks leave some undecided


@pytest.mark.parametrize("tol", [Tolerance(abs=-1e-3, rel=0.0), Tolerance(abs=1e-12, rel=-1e-9)])
def test_singleton_processes_at_negative_slack_match_the_per_trial_loops(tol):
    for seed in range(6):
        n = [1, 1, 3, 1, 2, 1, 5, 1][seed:] + [1, 4][: seed % 2 + 1]
        steps = [1 + (k * 5 + seed) % 4 for k in range(len(n))]
        same_gates(*singleton_processes(n, steps, seed), tol)
        # One atom each: the next process's first row follows every last row.
        same_gates(*singleton_processes([1] * 12, [1 + k % 3 for k in range(12)], seed), tol)


def martingales(seed, trials=60):
    """hrc-shaped processes (random first partitions and weights) carrying
    the partial sums of their generated differences, and the differences."""
    cfg = suites.RunConfig(suite="hrc", trials=trials, seed=seed, dim_max=12, steps_max=8)
    stages, _, _, _ = suites._maximal_trials(cfg, "hrc", np.arange(trials))
    seeds = derive_seeds(suites._process_seeds(cfg, "hrc", np.arange(trials)), "mds-step")
    diffs, _ = _mds_rows(stages, seeds, 1.0)
    return stages, stages.accumulate(np.add, diffs), diffs


SLACK = 1e-3
BORDER = Tolerance(abs=SLACK, rel=0.0)


def borderline(stages, values, kind):
    """values moved so that one comparison of each process sits within a
    few ulps of the slack: kind "sub" drifts every row after the middle one
    down by the slack, "super" drifts them down by twice the slack at the
    first step and up by the slack after the middle, "difference" adds the
    slack to the middle row (a constant, which every stage fixes), and
    "adapted" adds to the middle row the slack times a unit element that its
    stage averages to 0."""
    out = values.copy()
    for k in range(len(stages.n)):
        mat = stages.values(out, k)
        steps, n = mat.shape
        mid = steps // 2
        ulps = (k % 9 - 4) * 2.0**-52
        if kind == "sub":
            mat[mid + 1 :] -= SLACK + ulps
        elif kind == "super":
            mat[1:] -= 2 * SLACK
            mat[mid + 1 :] += SLACK + ulps
        elif kind == "difference":
            mat[mid] += SLACK + ulps
        else:
            weights, ids, stage = stages.table(k)
            block, atom = ids[stage[mid]], k % n
            same = block == block[atom]
            unit = (np.arange(n) == atom) - same * weights[atom] / weights[same].sum()
            if np.abs(unit).max() > 0:
                mat[mid] += (SLACK + ulps) * unit / np.abs(unit).max()
    return out


@pytest.mark.parametrize("kind", ["sub", "super", "difference", "adapted"])
def test_borderline_processes_match_the_per_trial_loops(kind):
    fallbacks = 0
    for seed in range(3):
        stages, sums, diffs = martingales(seed)
        values = borderline(stages, diffs if kind == "difference" else sums, kind)
        fallbacks += same_gates(stages, values, BORDER)
    assert fallbacks > 0


@pytest.mark.parametrize("scale", [2.0**900, 2.0**-900], ids=["2^900", "2^-900"])
def test_extreme_scales_go_to_the_exact_cores(scale):
    for seed in range(2):
        stages, sums, diffs = martingales(seed, trials=12)
        for values in (sums, diffs):
            for tol in (DEFAULT_TOL, Tolerance(abs=0.0, rel=1e-9)):
                same_gates(stages, values * scale, tol)
                for labels in (True, False):
                    bad, _, exact = decide_gates(stages, values * scale, tol, labels)
                    decided = int(np.argmax(bad)) + 1 if bad.any() else len(bad)
                    assert exact.tolist() == [True] * decided + [False] * (len(bad) - decided)


@pytest.mark.parametrize("suite", GATE_SUITES)
def test_default_verify_runs_send_no_process_to_the_exact_cores(suite, monkeypatch):
    sent = []

    def counting(stages, values, tol, labels=True):
        out = decide_gates(stages, values, tol, labels)
        sent.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(inequalities, "decide_gates", counting)
    for seed in (7, 42):
        run_suite(RunConfig(suite=suite, trials=200, seed=seed))
    assert sent and sum(sent) == 0


# --- a repeated stage moves no gate ---------------------------------------------
#
# Inserting right after stage i a copy of it (the same operator) with the
# same value leaves every comparison T_i f_j >= f_i of a process as it was,
# and with a zero increment every T_{i-1} Y_i of a difference sequence.


def repeated(filtration, values, at, zero):
    """filtration and values with stage at repeated right after itself: the
    same operator object, and the same value, or with zero a zero increment."""
    ops = list(filtration)
    ops = ops[: at + 1] + [ops[at]] + ops[at + 1 :]
    row = np.zeros(values.shape[1]) if zero else values[at]
    return Filtration(ops), np.insert(values, at + 1, row, axis=0)


def label_of(filtration, values):
    try:
        return classify(ProcessSequence(filtration, values))
    except NotAdapted:
        return None


def gates_of(filtration, values, labels):
    bad, label, _ = decide_gates(filtration.stages, values.ravel(), DEFAULT_TOL, labels)
    return bad.tolist(), label


def repeated_stage_cases():
    """(filtration, process values, difference values) on a grid fixed before
    comparing: dims 1-16, steps 1-20, both weight modes; martingales,
    submartingales of both modes, and non-adapted processes, whose
    differences are not difference sequences either."""
    for seed in range(48):
        cfg = GeneratorConfig(seed, 1 + seed % 16, 1 + (7 * seed) % 20, 1.0, ("uniform", "random")[seed % 2])
        filt = default_filtration(make_space(cfg), cfg.steps)
        diffs = generate_mds(cfg, filt).values
        stream = SplitMix64(derive_seed(seed, "repeated-stage"))
        noisy = np.cumsum(diffs, axis=0) + stream.uniforms(cfg.steps * cfg.dim, -0.5, 0.5).reshape(cfg.steps, -1)
        kinds = [
            np.cumsum(diffs, axis=0),
            generate_submartingale(cfg, ("positive-part", "drift")[seed // 2 % 2], filt).values,
            noisy,
        ]
        for values in kinds:
            yield filt, values, np.diff(values, axis=0, prepend=0.0), stream.below(cfg.steps)
        yield filt, kinds[0], diffs, stream.below(cfg.steps)


def test_a_repeated_stage_moves_no_gate():
    labels, differences = set(), set()
    for filt, values, diffs, at in repeated_stage_cases():
        longer, inserted = repeated(filt, values, at, zero=False)
        assert label_of(longer, inserted) == label_of(filt, values)
        assert gates_of(longer, inserted, True) == gates_of(filt, values, True)
        longer, inserted = repeated(filt, diffs, at, zero=True)
        verdict = is_difference_sequence(ProcessSequence(filt, diffs))
        assert is_difference_sequence(ProcessSequence(longer, inserted)) == verdict
        assert gates_of(longer, inserted, False) == gates_of(filt, diffs, False)
        labels.add(label_of(filt, values))
        differences.add(verdict)
    # The grid holds martingales, strict submartingales and unadapted
    # processes, and sequences on both sides of the difference check.
    assert {MARTINGALE, SUBMARTINGALE, None} <= labels and differences == {True, False}


# --- exact 2^k scaling moves no gate ------------------------------------------
#
# Multiplying every value by 2^k multiplies every block mean, difference, sum
# and max|f| by 2^k without rounding, as long as nothing overflows or becomes
# subnormal, and at tol.abs = 0 the slack tol.rel * max|f| too.  So every
# comparison of the exact cores keeps its outcome.  decide_gates' rounding
# bound scales the same way, and max|f| stays inside its safe range, so its
# bad mask, label and exact mask must not move either.

SCALE_EXPONENTS = [-300, -37, 1, 300]
SCALE_TOLS = [Tolerance(abs=0.0, rel=1e-9), Tolerance(abs=0.0, rel=0.0), Tolerance(abs=0.0, rel=-1e-12)]


def scaling_cases():
    """(filtration, process values, difference values) on a grid fixed before
    comparing: the repeated-stage grid, and dim 8 at N = 10^4 on both weight
    modes, where the identity suffix runs from stage 7."""
    for filt, values, diffs, _ in repeated_stage_cases():
        yield filt, values, diffs
    for seed, mode in ((0, "uniform"), (1, "random")):
        cfg = GeneratorConfig(seed, 8, 10**4, 1.0, mode)
        filt = default_filtration(make_space(cfg), cfg.steps)
        diffs = generate_mds(cfg, filt).values
        sums = np.cumsum(diffs, axis=0)
        moved = sums.copy()
        moved[3, 0] += 0.25  # not adapted
        for values in (sums, np.maximum(sums, 0.0), -np.maximum(sums, 0.0), moved):
            yield filt, values, np.diff(values, axis=0, prepend=0.0)


def gates_at(filt, values, diffs, tol):
    """classify's label (or "NotAdapted"), is_adapted, is_difference_sequence,
    and decide_gates' (bad, label, exact) on the values and the differences."""
    stages = filt.stages
    process, differences = ProcessSequence(filt, values), ProcessSequence(filt, diffs)
    try:
        out = [classify(process, tol)]
    except NotAdapted:
        out = ["NotAdapted"]
    out += [is_adapted(process, tol), is_difference_sequence(differences, tol)]
    for vals, labels in ((values, True), (diffs, False)):
        bad, label, exact = decide_gates(stages, vals.ravel(), tol, labels)
        out.append((bad.tolist(), label, exact.tolist()))
    return out


def test_exact_power_of_two_scaling_moves_no_gate():
    seen = set()
    for filt, values, diffs in scaling_cases():
        for tol in SCALE_TOLS:
            base = gates_at(filt, values, diffs, tol)
            for k in SCALE_EXPONENTS:
                assert gates_at(filt, values * 2.0**k, diffs * 2.0**k, tol) == base, k
            seen.add((base[0], base[2], any(base[3][2] + base[4][2])))
    labels = {label for label, _, _ in seen}
    assert {MARTINGALE, SUBMARTINGALE, SUPERMARTINGALE, "NotAdapted"} <= labels
    assert {difference for _, difference, _ in seen} == {True, False}
    assert {exact for _, _, exact in seen} == {True, False}  # both paths of decide_gates


# --- splitting an atom moves no gate ----------------------------------------------
#
# Splitting atom a into two atoms of half its weight that carry its value, and
# lifting every partition so that both halves share a's block, keeps every
# block's weight and every block mean; only the rounding of the sums, which
# take one term more, can move.  So classify, is_adapted and
# is_difference_sequence must give the unsplit verdicts wherever no margin lies
# within rounding of the slack.  The lifted filtration is built from one
# operator per stage (make_filtration), the operators-to-table path.


def split_atom(filtration, atom):
    """filtration with atom split in two, the copy right after it, both of
    half its weight, and the atom map that carries the values over."""
    lift = np.insert(np.arange(filtration.space.n), atom + 1, atom)
    weights = filtration.space.weights[lift]
    weights[atom : atom + 2] /= 2.0
    space = SampleSpace(weights)
    parts = [Partition(space, block_id=op.partition.block_id[lift]) for op in filtration]
    return make_filtration(space, parts), lift


def verdicts(filtration, values, diffs):
    """classify's label (or None when not adapted), is_adapted, and
    is_difference_sequence of the differences."""
    process = ProcessSequence(filtration, values)
    return (
        label_of(filtration, values),
        is_adapted(process),
        is_difference_sequence(ProcessSequence(filtration, diffs)),
    )


def splitting_cases():
    """(filtration, process values, difference values, atom) on a grid fixed
    before comparing: dims 2-16, horizons 1 to 3 dim, both weight modes,
    split-largest chains from a single block and from random first
    partitions; martingales, positive-part and drift submartingales, and a
    non-adapted process."""
    for seed in range(60):
        dim = 2 + seed % 15
        cfg = GeneratorConfig(seed, dim, 1 + (5 * seed) % (3 * dim), 1.0, ("uniform", "random")[seed % 2])
        space = make_space(cfg)
        if seed % 3:
            filt = default_filtration(space, cfg.steps)
        else:
            filt = refining_filtration(SplitMix64(derive_seed(seed, "split-atom")), space, cfg.steps)
        diffs = generate_mds(cfg, filt).values
        sums = np.cumsum(diffs, axis=0)
        moved = sums.copy()
        moved[0, 0] += 0.25  # not adapted where stage 1 joins atom 0 to another
        kinds = [sums, moved]
        kinds += [generate_submartingale(cfg, mode, filt).values for mode in ("positive-part", "drift")]
        for values in kinds:
            yield filt, values, np.diff(values, axis=0, prepend=0.0), (3 * seed) % dim
        yield filt, sums, diffs, (3 * seed) % dim


def test_splitting_an_atom_moves_no_gate():
    seen = set()
    for filt, values, diffs, atom in splitting_cases():
        expected = verdicts(filt, values, diffs)
        lifted, lift = split_atom(filt, atom)
        assert len(lifted) == len(filt) and len(lifted.distinct) == len(filt.distinct)
        assert verdicts(lifted, values[:, lift], diffs[:, lift]) == expected
        seen.add(expected)
    assert {MARTINGALE, SUBMARTINGALE, None} <= {label for label, _, _ in seen}
    assert {difference for _, _, difference in seen} == {True, False}
