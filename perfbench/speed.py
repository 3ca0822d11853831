"""Host speed probe: a fixed reference process timed around every measurement.

The benchmark runs on shared virtual machines whose speed drifts by 15-30%
over minutes; CPU time drifts with wall time.  Medians within a run cannot
remove a drift that spans the run, so the benchmark runs this file as a
fresh process before and after every timed repetition and set-up round, and
scales the measured time by ``NOMINAL_S`` over the mean of the two probe
times (``scaled`` below).

A scaled time is in "reference seconds": the time the measurement would
have taken on a host that runs the probe in exactly ``NOMINAL_S``.  The
probe imports numpy only, never ``wassersurf``, so a change to the program
cannot change it.  Like the workloads it pays process start and the numpy
import, then runs call-overhead-bound numpy on small, freshly allocated
arrays, numpy on a wide 65x65x128 field and float text parsing.  An
in-process kernel without the process start tracked the workloads' drift
much worse.

    python3 perfbench/speed.py     # one probe; prints nothing
"""

import numpy as np

# Median probe time on the 2-vCPU x86-64 host the benchmark was tuned on.
# Only the scale of the reported times depends on it.
NOMINAL_S = 0.45


def scaled(measured: float, before: float, after: float) -> float:
    """``measured`` seconds in reference seconds, given the probes around it."""
    return measured * NOMINAL_S / ((before + after) / 2.0)


def kernel() -> float:
    rng = np.random.default_rng(1)
    # small fields, as in the solves: call overhead and fresh allocations
    x = rng.random((65, 65, 3))
    acc = 0.0
    for _ in range(1500):
        d = x[1:, :] - x[:-1, :]
        g = np.einsum("ijk,ijk->ij", d, d)
        y = np.empty((129, 129, 3))
        y[:] = 1.0
        x[1:-1, 1:-1] += 1e-6 * (x[2:, 1:-1] + x[:-2, 1:-1] - 2.0 * x[1:-1, 1:-1])
        acc += float(np.sqrt(g).sum()) + float(y[::7, ::7].sum())
    # a wide field and float text, as in the verify and export reads
    w = rng.random((65, 65, 128))
    for _ in range(200):
        d = w[1:] - w[:-1]
        acc += float(np.sqrt(np.einsum("ijk,ijk->ij", d, d)).sum())
    text = ",".join(map(repr, w[:4].ravel().tolist()))
    return acc + sum(float(v) for v in text.split(","))


if __name__ == "__main__":
    kernel()
