"""Guarded n-sweep of filtration build time, for conditional.scaling_exponent.

n doubles from 64 toward 4096.  default_filtration(space, n) has n distinct
stages, each with a dense n x n float64 operator matrix, so a size needs
n * n^2 * 8 computed bytes (8.6 GB at n = 1024).  A size is skipped, and
recorded with the reason, before anything is built for it when those bytes
exceed the memory budget or when an earlier size overran the time cap.
"""

from __future__ import annotations

import math

SWEEP_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
MEMORY_BUDGET_BYTES = 512 * 2**20
TIME_CAP_S = 10.0


def dense_bytes(n: int) -> int:
    """Computed bytes of the operator matrices of an n-stage filtration on n atoms."""
    return n * n * n * 8


def guarded_sweep(build, sizes=SWEEP_SIZES, budget=MEMORY_BUDGET_BYTES, cap=TIME_CAP_S) -> list:
    """Time build(n) for each size the guards allow; build returns seconds."""
    rows = []
    overran = None
    for n in sizes:
        reasons = []
        if dense_bytes(n) > budget:
            reasons.append(f"{dense_bytes(n)} dense bytes exceed the {budget}-byte budget")
        if overran is not None:
            reasons.append(f"n={overran[0]} took {overran[1]:.3f} s, over the {cap} s cap")
        if reasons:
            rows.append({"n": n, "dense_bytes": dense_bytes(n), "skipped": "; ".join(reasons)})
            continue
        seconds = build(n)
        rows.append({"n": n, "dense_bytes": dense_bytes(n), "seconds": seconds})
        if seconds > cap:
            overran = (n, seconds)
    return rows


def scaling_exponent(rows) -> float:
    """Least-squares slope of log(seconds) against log(n) over measured sizes."""
    points = [(math.log(r["n"]), math.log(r["seconds"])) for r in rows if "seconds" in r]
    if len(points) < 2:
        raise ValueError("the sweep measured fewer than two sizes")
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)
