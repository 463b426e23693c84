"""Quickstart: cluster a point set with the MPC (2+ε)-approximation
k-center algorithm and compare against the sequential optimum-factor
GMM baseline.

The one-call facade (``solve_kcenter``) assembles the metric, the
machine partition, and the execution backend internally; pass
``backend="process"`` to fan the per-machine work out to local worker
processes (same results bit-for-bit, same seed).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import EuclideanMetric, solve_kcenter
from repro.analysis.lower_bounds import kcenter_lower_bound
from repro.analysis.reports import format_table
from repro.baselines import gonzalez_kcenter
from repro.workloads import gaussian_mixture


def main() -> None:
    rng = np.random.default_rng(42)
    points, _ = gaussian_mixture(n=2000, dim=2, components=10, rng=rng)
    k = 10

    # --- the paper's algorithm on a simulated 8-machine MPC cluster -------
    result = solve_kcenter(points, k=k, eps=0.1, machines=8, seed=42)

    # --- sequential reference (2-approximation, sees all data at once) ----
    metric = EuclideanMetric(points)
    _, gmm_radius = gonzalez_kcenter(metric, k)

    lb = kcenter_lower_bound(metric, k)
    rows = [
        {
            "algorithm": "MPC k-center (2+eps)",
            "radius": result.radius,
            "ratio vs LB (<= true ratio bound)": result.radius / lb,
            "rounds": result.rounds,
            "max machine words": result.stats["max_machine_total_words"],
        },
        {
            "algorithm": "sequential GMM (2-approx)",
            "radius": gmm_radius,
            "ratio vs LB (<= true ratio bound)": gmm_radius / lb,
            "rounds": 0,
            "max machine words": 0,
        },
    ]
    print(format_table(rows, title=f"k-center, n={metric.n}, k={k}, m=8"))
    print(
        f"\ncertified optimum lower bound: {lb:.4f}"
        f"\ntheorem guarantee: radius <= 2(1+0.1) * r* = {2.2 * lb:.4f} (vs LB)"
    )
    assert result.radius <= 2.0 * (1.0 + 0.1) * gmm_radius + 1e-9, "2+eps bound violated"


if __name__ == "__main__":
    main()
