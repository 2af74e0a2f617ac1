"""Independent oracles used to validate the library's analytic paths.

These deliberately avoid the closed forms under test: the worst-case
expectation over the KL ball is found by lattice enumeration (with local
refinement), the binary tilt by bisection on the entropy equation, and
derivatives by central finite differences.
"""

import math

import numpy as np


def _kl_rows(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q / rho), 0.0)
    return terms.sum(axis=1)


def _lattice(axes) -> np.ndarray:
    """All simplex points whose first n-1 coordinates lie on the given axes."""
    grids = np.meshgrid(*axes, indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=1)
    last = 1.0 - head.sum(axis=1)
    ok = last >= -1e-12
    pts = np.concatenate([head[ok], np.clip(last[ok], 0.0, None)[:, None]], axis=1)
    return pts


def grid_worst_case(values, rho, delta, direction, coarse=None, box_points=17,
                    min_half=2e-5):
    """Worst-case expectation of f over the KL ball by dense lattice search.

    A global lattice pass seeds a pattern search: local lattices recenter on
    the incumbent while they improve it and halve their extent when they
    stop, down to `min_half`. The objective is linear on a convex feasible
    set, so recentring cannot lose the optimum; staying at a scale while it
    pays lets the search crawl along near-flat stretches of the KL boundary.
    Returns (expectation, distribution).
    """
    f = np.asarray(values, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = f.size
    if coarse is None:
        coarse = {2: 0.002, 3: 0.005, 4: 0.04, 5: 0.0625}[n]
    sign = 1.0 if direction == "worst_high" else -1.0

    def best_of(points):
        feasible = points[_kl_rows(points, rho) <= delta]
        if feasible.size == 0:
            return None, -math.inf
        scores = sign * (feasible @ f)
        k = int(np.argmax(scores))
        return feasible[k], scores[k]

    # global pass; rho itself is always feasible (KL = 0)
    axes = [np.arange(0.0, 1.0 + coarse / 2, coarse)] * (n - 1)
    incumbent, score = best_of(_lattice(axes))
    if incumbent is None or sign * (rho @ f) > score:
        incumbent, score = rho, sign * (rho @ f)

    half = 3.0 * coarse
    while half >= min_half:
        axes = [
            np.linspace(max(0.0, c - half), min(1.0, c + half), box_points)
            for c in incumbent[:-1]
        ]
        cand, cand_score = best_of(_lattice(axes))
        if cand is not None and cand_score > score + 1e-13:
            incumbent, score = cand, cand_score
        else:
            half /= 2.0
    return sign * score, incumbent


def binary_tilt_oracle(delta: float) -> tuple[float, float]:
    """Worst-high mass p for f=[0,1], rho=[1/2,1/2]: solve log2 - H(p) = delta.

    Returns (p_star, tau_star) with tau_star from the density-ratio identity
    p/(1-p) = exp(1/tau).
    """

    def gap(p):
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        return math.log(2.0) - h - delta

    lo, hi = 0.5, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    tau = 1.0 / math.log(p / (1.0 - p))
    return p, tau


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def finite_diff_gradient(fn, params, h=1e-5):
    """Central-difference gradient of a scalar function of a parameter list."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = fn(params)
            p[idx] = orig - h
            down = fn(params)
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def sign_test_pvalue(wins: int, losses: int) -> float:
    """One-sided exact binomial sign test: P(X >= wins | n, 1/2)."""
    n = wins + losses
    total = 0.0
    for k in range(wins, n + 1):
        total += math.comb(n, k)
    return total / 2.0**n


# Reference saddle kernels: the closed-form softmax written over the action
# axis of (n, 2) arrays, and the primal-dual loop that stores every policy.
# The library computes the same quantities column by column; tests hold the
# two bitwise equal.

def _saddle_logits(problem, lam):
    return (problem.w1[:, None] * problem.reward
            - lam * problem.w2[:, None] * problem.cost) / problem.beta


def saddle_policy_matrix(problem, lam):
    logits = _saddle_logits(problem, lam)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def saddle_partition_values(problem, lam):
    logits = _saddle_logits(problem, lam)
    m = logits.max(axis=1)
    return np.exp(m) * np.exp(logits - m[:, None]).sum(axis=1)


def saddle_dual_function(problem, lam):
    logits = _saddle_logits(problem, lam)
    m = logits.max(axis=1)
    log_q = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    d = problem.beta * float(np.sum(problem.rho * log_q)) \
        + lam * problem.budget + 0.5 * problem.beta * lam**2
    pi = saddle_policy_matrix(problem, lam)
    mean_c = np.sum(pi * problem.cost, axis=1)
    var_c = pi[:, 0] * pi[:, 1] * (problem.cost[:, 1] - problem.cost[:, 0]) ** 2
    d1 = -float(np.sum(problem.rho * problem.w2 * mean_c)) \
        + problem.budget + problem.beta * lam
    d2 = problem.beta + float(np.sum(problem.rho * problem.w2**2 * var_c)) / problem.beta
    return d, d1, d2


def saddle_policy_kl(problem, pi, pi_ref):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pi > 0, pi * (np.log(pi) - np.log(pi_ref)), 0.0)
    return float(np.sum(problem.rho * terms.sum(axis=1)))


def saddle_iterate(problem, lambda0, iterations, eta, pi_star):
    """(lambdas, policies, kls) of the exact primal-dual iteration."""
    lambdas = np.empty(iterations + 1)
    kls = np.empty(iterations + 1)
    policies = np.empty((iterations + 1, problem.n_contexts, 2))
    lam = float(lambda0)
    for t in range(iterations + 1):
        pi = saddle_policy_matrix(problem, lam)
        lambdas[t] = lam
        policies[t] = pi
        kls[t] = saddle_policy_kl(problem, pi, pi_star)
        if t == iterations:
            break
        weighted_cost = float(np.sum(problem.rho * problem.w2
                                     * np.sum(pi * problem.cost, axis=1)))
        lam = np.maximum(0.0, lam + eta * (weighted_cost - problem.budget - problem.beta * lam))
    return lambdas, policies, kls
