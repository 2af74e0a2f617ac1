"""Shared builders for the test suite."""

import numpy as np

from racer.core import Dataset


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
