"""Conditional expectation as weighted block averaging along a partition.

Grouping the atoms into blocks and replacing each coordinate with its
block's weighted mean gives a linear, positive, idempotent operator that
fixes the unit — the finite-dimensional model of conditioning on a
sub-sigma-algebra.  Chains of refining partitions give filtrations with
the tower property.
"""

from rieszmart import (
    ConditionalExpectationOp,
    Partition,
    SampleSpace,
    lp_norm,
    make_filtration,
    verify_axioms,
)
from rieszmart.conditional import averaging_matrix


def banner(text: str) -> None:
    print(f"\n--- {text} ---")


def main() -> None:
    banner("averaging over blocks")
    space = SampleSpace([0.1, 0.3, 0.3, 0.3])
    part = Partition(space, [[0, 1], [2, 3]])
    op = ConditionalExpectationOp(part)
    f = space.element([1.0, 3.0, 5.0, 7.0])
    print(f"weights        : {space.weights}")
    print(f"blocks         : {part.blocks}")
    print(f"f              : {f.coords}")
    print(f"T f            : {op.apply(f).coords}")
    print("(block 0 mean is (0.1*1 + 0.3*3)/0.4 = 2.5, block 1 mean is 6)")

    banner("operator laws")
    tf = op.apply(f)
    print(f"idempotent   T(Tf) == Tf : {op.apply(tf).equals(tf)}")
    print(f"fixes unit   T e  ==  e  : {op.apply(space.unit()).equals(space.unit())}")
    print(f"positive     T f+ >=  0  : {op.apply(f.pos_part()).is_nonnegative()}")
    matrix = averaging_matrix(space.weights, part.block_id)
    print(f"matrix is row-stochastic : {matrix.sum(axis=1)}")

    banner("randomized axiom verification")
    report = verify_axioms(op, trials=200, seed=7)
    print(
        f"suite={report.suite} trials={report.trials} "
        f"failures={report.failure_count} min_margin={report.min_margin:.3e}"
    )

    banner("filtrations and the tower property")
    filt = make_filtration(
        space,
        [
            [[0, 1, 2, 3]],
            [[0, 1], [2, 3]],
            [[0], [1], [2, 3]],
            [[0], [1], [2], [3]],
        ],
    )
    coarse, fine = filt[0], filt[-1]
    towered = coarse.apply(fine.apply(f))
    print(f"stages              : {len(filt)}")
    print(f"T_1 T_4 f == T_1 f  : {towered.equals(coarse.apply(f))}")

    banner("conditional p-norms")
    h = space.element([3.0, -4.0, 0.0, 1.0])
    for p in (1.0, 2.0, float("inf")):
        print(f"N_{p}(h) under the two-block operator: {lp_norm(op, h, p).coords}")


if __name__ == "__main__":
    main()
