"""Reference kernels that measure the host's speed beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes as other tenants load it. Each workload has a
fixed reference kernel here, written to do the same kind of work as its
operation: numpy matmuls and Adam-like updates for ff-train, plus some row
parsing; many small numpy calls of linear training steps for
frontier-sweep; generating, JSON-encoding, hashing and parsing rows for
data-pipeline; elementwise exp/log and reductions on 20k-element vectors
for saddle-certify. The kernels use only numpy and the standard library,
never ``racer``, so a change to the program cannot change them.

``run.py`` times the kernel right before and after every timed operation
and set-up and multiplies the measured time by ``NOMINAL_S`` over the mean
of those two kernel times: the time the operation would have taken at the
host speed at which ``NOMINAL_S`` was recorded. The raw times are recorded
beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

# Median kernel time in seconds on a quiet host (2-vCPU x86-64 VM, numpy
# 2.4.6 with scipy-openblas 0.3.31 on one BLAS thread), rounded. It only
# sets the scale of the reported figures and is fixed, so that every commit
# is measured in the same units.
NOMINAL_S = {"ff-train": 0.15, "frontier-sweep": 0.18, "data-pipeline": 0.15,
             "saddle-certify": 0.12}


def _mlp_kernel(rng: np.random.Generator, steps: int) -> float:
    # A 4 -> 256 -> 128 -> 64 -> 1 network, batch 64, forward, backward and an
    # Adam-style update per step: the shape of the ff-train step.
    sizes = (4, 256, 128, 64, 1)
    params = [rng.standard_normal((a, b)) * 0.1 for a, b in zip(sizes, sizes[1:])]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    x_all = rng.standard_normal((64 * steps, sizes[0]))
    total = 0.0
    for step in range(steps):
        x = x_all[64 * step:64 * (step + 1)]
        acts = [x]
        for w in params[:-1]:
            acts.append(np.maximum(acts[-1] @ w, 0.0))
        out = acts[-1] @ params[-1]
        grad = out / len(out)
        grads = []
        for i in range(len(params) - 1, -1, -1):
            grads.append(acts[i].T @ grad)
            grad = (grad @ params[i].T) * (acts[i] > 0)
        grads.reverse()
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= 0.9
            mi += 0.1 * g
            vi *= 0.999
            vi += 0.001 * g * g
            p += 1e-4 * mi / (np.sqrt(vi) + 1e-8)
        total += float(out.sum())
    return total


def _linear_kernel(rng: np.random.Generator, steps: int = 6000) -> float:
    # Logistic steps of a linear router on batches of 64 rows, with an
    # exponential tilt of the batch weights and an Adam-style update: many
    # small numpy calls, the shape of one frontier-sweep training step.
    x_all = rng.standard_normal((64 * 27, 8))
    reward = rng.random(64 * 27)
    w, m, v = np.zeros(8), np.zeros(8), np.zeros(8)
    total = 0.0
    for step in range(steps):
        lo = 64 * (step % 27)
        x, r = x_all[lo:lo + 64], reward[lo:lo + 64]
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        tilt = np.exp(-0.5 * (r - r.mean()))
        tilt /= tilt.mean()
        g = x.T @ (tilt * (r - p)) / len(r)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w + 2e-3 * m / (np.sqrt(v) + 1e-8)
        total += float(p.mean())
    return total


def _rows_kernel(rng: np.random.Generator, n: int = 7000) -> float:
    # Generate rows, JSON-encode them one per line, hash the text, parse it
    # back into arrays: the shape of gen-synth followed by eval.
    features = rng.standard_normal((n, 4))
    cost = rng.lognormal(0.0, 0.5, size=(n, 2))
    correct = rng.random((n, 2)) < 0.7
    lines = []
    for i in range(n):
        record = {"id": f"row-{i:06d}", "domain": "reference",
                  "features": features[i].tolist(), "correct": correct[i].tolist(),
                  "cost": cost[i].tolist()}
        lines.append(json.dumps(record))
    text = "\n".join(lines)
    digest = hashlib.sha256(text.encode()).digest()
    parsed = [json.loads(line) for line in text.split("\n")]
    back = np.array([r["features"] for r in parsed])
    return float(back.sum()) + digest[0]


def _vector_kernel(rng: np.random.Generator) -> float:
    # Exponential tilts and KL divergences on 20k-element vectors, searched by
    # bisection: the shape of saddle-demo and exact_tilt.
    n = 20_000
    rho = rng.random(n)
    rho /= rho.sum()
    f = rng.standard_normal(n)
    total = 0.0
    lo, hi = 0.0, 10.0
    for _ in range(800):
        tau = 0.5 * (lo + hi)
        z = -tau * f
        z -= z.max()
        q = rho * np.exp(z)
        q /= q.sum()
        kl = float(np.sum(q * np.log(q / rho)))
        lo, hi = (lo, tau) if kl > 0.05 else (tau, hi)
        total += kl
    return total


def _train_kernel(rng: np.random.Generator) -> float:
    # An ff-train operation spends about a third of its time outside the
    # training steps, mostly reading the JSONL training file.
    return _mlp_kernel(rng, steps=100) + _rows_kernel(rng, n=2300)


KERNELS = {"ff-train": _train_kernel, "frontier-sweep": _linear_kernel,
           "data-pipeline": _rows_kernel, "saddle-certify": _vector_kernel}


class HostClock:
    """Scales wall times to the nominal host speed of one workload.

    Construction runs the kernel twice (the first run warms it up). Each
    ``factor()`` call runs it once more and returns ``NOMINAL_S`` over the
    mean of that run and the one before, i.e. over the kernel time around
    the interval timed since the previous run.
    """

    def __init__(self, workload: str):
        self.kernel = KERNELS[workload]
        self.nominal = NOMINAL_S[workload]
        self.kernel_s: list[float] = []
        self.measure()
        self._before = self.measure()

    def measure(self) -> float:
        """Run the kernel once; returns and records its wall time."""
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        self.kernel(rng)
        seconds = time.perf_counter() - start
        self.kernel_s.append(seconds)
        return seconds

    def factor(self) -> float:
        after = self.measure()
        around = 0.5 * (self._before + after)
        self._before = after
        return self.nominal / around

    def median_factor(self) -> float:
        """``NOMINAL_S`` over the median of the kernel times so far, without
        the warm-up: for intervals too short to scale one by one."""
        return self.nominal / statistics.median(self.kernel_s[1:])
