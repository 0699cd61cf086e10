"""Quickstart: the paper's Section 4.1.1 linear-regression example, end to end.

Creates an in-memory "Greenplum" with 4 segments, loads a small regression
table, runs ``SELECT linregr(y, x) FROM data`` and prints the composite result
record the way psql's expanded display does in the paper, then does the same
for logistic regression (the multi-pass, driver-function method).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Database
from repro.engine.types import format_value
from repro.methods import linear_regression, logistic_regression


def main() -> None:
    # A 4-segment database: the shared-nothing layout of a small Greenplum cluster.
    db = Database(num_segments=4)

    # -- load a table of (x double precision[], y double precision) points ------
    rng = np.random.default_rng(42)
    independent = np.column_stack([np.ones(5000), rng.uniform(0.0, 10.0, size=5000)])
    response = 1.7 + 2.2 * independent[:, 1] + rng.normal(scale=1.0, size=5000)
    db.execute("CREATE TABLE data (x double precision[], y double precision)")
    db.load_rows("data", [(independent[i], float(response[i])) for i in range(5000)])

    # -- single-pass method: ordinary least squares (Section 4.1) ----------------
    print("psql# SELECT (linregr(y, x)).* FROM data;")
    model = linear_regression.train(db, "data", "y", "x")
    record = {
        "coef": model.coef,
        "r2": model.r2,
        "std_err": model.std_err,
        "t_stats": model.t_stats,
        "p_values": model.p_values,
        "condition_no": model.condition_no,
    }
    width = max(len(name) for name in record)
    print("-[ RECORD 1 ]+" + "-" * 44)
    for name, value in record.items():
        print(f"{name.ljust(width)} | {format_value(value)}")
    print()
    print(f"True generating model was y = 1.7 + 2.2 * x2 + noise; "
          f"fitted intercept {model.coef[0]:.3f}, slope {model.coef[1]:.3f}.")
    print()

    # -- multi-pass method: logistic regression via the IRLS driver (Section 4.2) --
    labels = (rng.uniform(size=5000) < 1.0 / (1.0 + np.exp(-(independent[:, 1] - 5.0)))).astype(float)
    db.execute("CREATE TABLE labeled (x double precision[], y double precision)")
    db.load_rows("labeled", [(independent[i], float(labels[i])) for i in range(5000)])

    print("SELECT * FROM logregr('y', 'x', 'labeled');")
    logit = logistic_regression.train(db, "labeled", "y", "x")
    print(f"coefficients : {format_value(logit.coef)}")
    print(f"odds ratios  : {format_value(logit.odds_ratios)}")
    print(f"iterations   : {logit.num_iterations} (converged={logit.converged})")
    print(f"log likelihood: {logit.log_likelihood:.2f}")

    # The per-query timing statistics the Section 4.4 experiments are built on.
    stats = db.last_stats
    if stats and stats.aggregate_timings:
        timing = stats.aggregate_timings[0]
        print()
        slowest = max(timing.per_segment_seconds)
        print(f"Last aggregate ran on {timing.num_segments} segments; "
              f"fold + merge + final {timing.serial_seconds * 1000:.1f} ms in all, "
              f"slowest segment fold {slowest * 1000:.2f} ms.")


if __name__ == "__main__":
    main()
