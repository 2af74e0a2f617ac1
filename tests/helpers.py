"""Shared builders for the test suite."""

import numpy as np

from racer.core import Dataset, FeedForwardPolicy, LinearPolicy


def make_instance(i, features, correct, cost_raw, tag=None):
    """The row (id, features, correct, cost_raw, tag) that Dataset(rows) takes."""
    return (f"z{i}", np.asarray(features, dtype=float), correct, cost_raw, tag)


def random_dataset(seed, n=50, d=4, ratio_scale=4.0):
    """Generic dataset with heterogeneous costs and correctness."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        features = rng.standard_normal(d)
        correct = (int(rng.random() < 0.7), int(rng.random() < 0.8))
        c0 = float(rng.uniform(50, 150))
        c1 = c0 * float(rng.uniform(1.5, ratio_scale * 2 - 1.5))
        instances.append(make_instance(i, features, correct, (c0, c1)))
    return Dataset(instances)


def mean412_dataset():
    """Three instances with mean normalized reasoning cost exactly 4.12."""
    rows = [
        ((1, 1), (100.0, 200.0)),
        ((0, 1), (100.0, 400.0)),
        ((1, 0), (100.0, 636.0)),
    ]
    return Dataset([
        make_instance(i, [float(i), 1.0], correct, cost)
        for i, (correct, cost) in enumerate(rows)
    ])


def scoring_case(kind, n):
    """(policy, dataset) of n random rows drawn from seed n: a linear policy
    on 4 features, or a (256, 128, 64) network on 12."""
    rng = np.random.default_rng(n)
    d = 4 if kind == "linear" else 12
    data = Dataset.from_columns([f"r{i}" for i in range(n)], [None] * n,
                                rng.standard_normal((n, d)), rng.integers(0, 2, (n, 2)),
                                rng.uniform(0.1, 50.0, (n, 2)))
    if kind == "linear":
        return LinearPolicy(rng.standard_normal(d), float(rng.standard_normal())), data
    dims = [d, 256, 128, 64, 1]
    return FeedForwardPolicy(
        tuple(rng.standard_normal((w_out, w_in)) / 8 for w_in, w_out in zip(dims, dims[1:])),
        tuple(rng.standard_normal(w) for w in dims[1:])), data
