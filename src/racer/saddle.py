"""Exact saddle-point solver for the entropy-regularized routing Lagrangian.

For a finite context set with fixed reweighting ratios, the inner policy
maximization has a closed-form softmax solution and the dual function

    d(lambda) = beta * E_rho[log Q(z, lambda)] + lambda * C + beta/2 * lambda^2

is beta-strongly convex with (beta + M^2 K^2 / beta)-Lipschitz gradient,
where M bounds the costs and K bounds the cost-side density ratios. The
projected dual gradient iteration with step 2*beta/(M^2 K^2 + 2 beta^2)
therefore contracts at rate kappa = M^2 K^2 / (M^2 K^2 + 2 beta^2), and the
policy iterates converge linearly in KL divergence. This module computes
all of those objects exactly so the guarantees can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TabularPolicy, ValidationError


class InfeasibleProblemError(ValueError):
    """The all-instruct policy already exceeds the budget under the weights."""


@dataclass(frozen=True)
class TabularProblem:
    """Finite routing problem with per-context probabilities and weights.

    rho, w1, w2 have shape (n,); reward and cost have shape (n, 2) with
    action 0 = instruct, action 1 = reasoning. w1/w2 are the reward- and
    cost-side density ratios (uniformly 1 for the non-robust problem).
    """

    rho: np.ndarray
    reward: np.ndarray
    cost: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    budget: float
    beta: float

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=np.float64)
                  for name in ("rho", "reward", "cost", "w1", "w2")}
        rho, reward, cost, w1, w2 = arrays.values()
        if rho.ndim != 1 or rho.shape[0] == 0:
            raise ValidationError("rho must be a non-empty 1-d vector")
        n = rho.shape[0]
        if reward.shape != (n, 2) or cost.shape != (n, 2):
            raise ValidationError("reward and cost must have shape (n, 2)")
        if w1.shape != (n,) or w2.shape != (n,):
            raise ValidationError("w1 and w2 must have shape (n,)")
        for name, arr in (*arrays.items(), ("budget", self.budget)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        if np.any(rho <= 0) or abs(rho.sum() - 1.0) > 1e-9:
            raise ValidationError("rho must be strictly positive and sum to 1")
        if np.any(cost <= 0):
            raise ValidationError("costs must be strictly positive")
        if np.any(w1 < 0) or np.any(w2 < 0):
            raise ValidationError("density ratios must be non-negative")
        if not 0 < self.beta < np.inf:
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        instruct_cost = float(np.sum(rho * w2 * cost[:, 0]))
        if not instruct_cost < self.budget:
            raise InfeasibleProblemError(
                f"weighted all-instruct cost {instruct_cost:.6g} >= budget {self.budget:.6g}; "
                "no strictly feasible policy exists"
            )
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def n_contexts(self) -> int:
        return self.rho.shape[0]

    @property
    def feasibility_slack(self) -> float:
        """xi > 0: budget margin of the deterministic all-instruct policy."""
        return self.budget - float(np.sum(self.rho * self.w2 * self.cost[:, 0]))


@dataclass(frozen=True)
class ConvergenceConstants:
    """Problem-derived constants entering the linear-convergence bound."""

    M: float
    K: float
    eta: float
    kappa: float

    @classmethod
    def from_problem(cls, problem: TabularProblem) -> "ConvergenceConstants":
        M = float(problem.cost.max())
        K = float(problem.w2.max())
        mk2 = (M * K) ** 2
        eta = 2.0 * problem.beta / (mk2 + 2.0 * problem.beta**2)
        kappa = mk2 / (mk2 + 2.0 * problem.beta**2)
        return cls(M=M, K=K, eta=eta, kappa=kappa)


def _logit_columns(problem: TabularProblem, lam: float) -> list[np.ndarray]:
    """Logits of action 0 and action 1: (w1 r_a - (lam w2) c_a) / beta."""
    lam_w2 = lam * problem.w2
    return [(problem.w1 * r - lam_w2 * c) / problem.beta
            for r, c in zip(problem.reward.T, problem.cost.T)]


def _softmax_columns(problem: TabularProblem, lam: float):
    """Closed-form softmax over the two actions as (p0, p1, m, z): m is the
    larger logit and z = exp(l0 - m) + exp(l1 - m)."""
    l0, l1 = _logit_columns(problem, lam)
    m = np.maximum(l0, l1)
    e0, e1 = np.exp(l0 - m), np.exp(l1 - m)
    z = e0 + e1
    return e0 / z, e1 / z, m, z


def policy_matrix(problem: TabularProblem, lam: float) -> np.ndarray:
    """(n, 2) matrix of the closed-form softmax policy at multiplier lam."""
    return np.stack(_softmax_columns(problem, lam)[:2], axis=1)


def closed_form_policy(problem: TabularProblem, lam: float) -> TabularPolicy:
    """Closed-form primal maximizer as a tabular policy keyed by context index."""
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    p1 = _softmax_columns(problem, lam)[1]
    return TabularPolicy(dict(zip(map(str, range(p1.shape[0])), p1.tolist())))


def dual_function(problem: TabularProblem, lam: float) -> tuple[float, float, float]:
    """d(lambda) together with its first and second derivatives, analytically.

    d'(lambda)  = -E_{rho, pi_lam}[w2 c] + C + beta lambda
    d''(lambda) = beta + E_rho[w2^2 Var_{pi_lam}(c)] / beta
    """
    p0, p1, m, z = _softmax_columns(problem, lam)
    log_q = m + np.log(z)
    d = problem.beta * float(np.sum(problem.rho * log_q)) \
        + lam * problem.budget + 0.5 * problem.beta * lam**2

    c0, c1 = problem.cost.T
    # two actions: E(c) = pi0 c0 + pi1 c1 and Var(c) = pi0 * pi1 * (c1 - c0)^2
    var_c = p0 * p1 * (c1 - c0) ** 2
    d1 = -float(np.sum(problem.rho * problem.w2 * (p0 * c0 + p1 * c1))) \
        + problem.budget + problem.beta * lam
    d2 = problem.beta + float(np.sum(problem.rho * problem.w2**2 * var_c)) / problem.beta
    return d, d1, d2


def lagrangian(problem: TabularProblem, pi: np.ndarray, lam: float) -> float:
    """Regularized Lagrangian L_beta(pi, lambda) for an arbitrary (n,2) policy."""
    pi = np.asarray(pi, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(pi > 0, pi * np.log(pi), 0.0)
    entropy = -plogp.sum(axis=1)
    reward = problem.w1 * np.sum(pi * problem.reward, axis=1)
    cost = problem.w2 * np.sum(pi * problem.cost, axis=1)
    return float(
        np.sum(problem.rho * (reward - lam * cost + problem.beta * entropy))
        + lam * problem.budget + 0.5 * problem.beta * lam**2
    )


def dual_update(lam, eta: float, weighted_cost, budget, beta: float):
    """One projected dual ascent step on the budget multiplier.

    Elementwise, so it steps one multiplier or a vector of them.
    """
    return np.maximum(0.0, lam + eta * (weighted_cost - budget - beta * lam))


@dataclass(frozen=True)
class SaddleSolution:
    """Unique saddle point of the regularized Lagrangian."""

    lambda_star: float
    dual_value: float
    pi_matrix: np.ndarray


def solve_saddle(problem: TabularProblem, tol: float = 1e-10,
                 bracket_init: float = 1.0) -> SaddleSolution:
    """Minimize the strongly convex dual by safeguarded Newton.

    Stops at |d'(lambda)| <= tol, or returns lambda = 0 when d'(0) >= 0
    (the budget constraint is slack at the unconstrained optimum).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _, g0, _ = dual_function(problem, 0.0)
    if g0 >= 0.0:
        lam = 0.0
    else:
        hi = bracket_init  # then the smallest power-of-two multiple with d'(hi) > 0
        while dual_function(problem, hi)[1] <= 0.0:
            hi *= 2.0
            if hi > 2.0**60:
                raise InfeasibleProblemError(
                    "dual bracket expansion exceeded 2**60; the cheapest policy "
                    "exceeds the budget under the weights"
                )
        lo = 0.0
        lam = 0.5 * (lo + hi)
        for _ in range(200):
            _, g, h = dual_function(problem, lam)
            if abs(g) <= tol:
                break
            if g > 0.0:
                hi = lam
            else:
                lo = lam
            step = lam - g / h
            lam = step if lo < step < hi else 0.5 * (lo + hi)
    pi = policy_matrix(problem, lam)
    return SaddleSolution(lambda_star=lam, dual_value=dual_function(problem, lam)[0],
                          pi_matrix=pi)


@dataclass(frozen=True)
class IterateTrace:
    """Primal-dual trajectory: lambdas[t] and KL(pi_t || pi_star)[t]."""

    lambdas: np.ndarray
    kl_to_star: np.ndarray
    constants: ConvergenceConstants
    solution: SaddleSolution
    beta: float

    def kl_bound(self) -> np.ndarray:
        """Envelope (MK/beta)^2/2 * kappa^(2t) * (lambda_0 - lambda*)^2."""
        c = self.constants
        t = np.arange(self.lambdas.shape[0])
        gap0 = self.lambdas[0] - self.solution.lambda_star
        lead = (c.M * c.K) ** 2 / (2.0 * self.beta**2)
        return lead * c.kappa ** (2 * t) * gap0**2

    def lambda_bound(self) -> np.ndarray:
        """Envelope kappa^t * |lambda_0 - lambda*| for the dual gap."""
        c = self.constants
        t = np.arange(self.lambdas.shape[0])
        return c.kappa**t * abs(self.lambdas[0] - self.solution.lambda_star)


def primal_dual_iterate(problem: TabularProblem, lambda0: float, iterations: int,
                        constants: ConvergenceConstants | None = None,
                        solution: SaddleSolution | None = None) -> IterateTrace:
    """Run the exact primal-dual iteration and record distance to the saddle.

    At step t the primal update is the closed-form policy at lambda_t and
    the dual update is a projected gradient step with the theory step size,
    so lambdas has iterations+1 entries lambda_0..lambda_T.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if lambda0 < 0:
        raise ValueError("lambda0 must be non-negative")
    if constants is None:
        constants = ConvergenceConstants.from_problem(problem)
    if solution is None:
        solution = solve_saddle(problem, tol=1e-12)

    # loop invariants: log pi_star per action and rho * w2; where pi_star
    # underflowed to 0 its log is l_a - m - log z, which stays finite
    with np.errstate(divide="ignore"):
        log_star = np.log(solution.pi_matrix.T)
    under = np.isneginf(log_star)
    if under.any():
        _, _, m, z = _softmax_columns(problem, solution.lambda_star)
        log_star[under] = (np.stack(_logit_columns(problem, solution.lambda_star))
                           - m - np.log(z))[under]
    log_star0, log_star1 = log_star
    rho_w2 = problem.rho * problem.w2
    c0, c1 = problem.cost.T

    lambdas = np.empty(iterations + 1)
    kls = np.empty(iterations + 1)
    lam = float(lambda0)
    for t in range(iterations + 1):
        p0, p1, _, _ = _softmax_columns(problem, lam)
        lambdas[t] = lam
        with np.errstate(divide="ignore", invalid="ignore"):
            kl0 = np.where(p0 > 0, p0 * (np.log(p0) - log_star0), 0.0)
            kl1 = np.where(p1 > 0, p1 * (np.log(p1) - log_star1), 0.0)
        kls[t] = float(np.sum(problem.rho * (kl0 + kl1)))
        if t == iterations:
            break
        weighted_cost = float(np.sum(rho_w2 * (p0 * c0 + p1 * c1)))
        lam = dual_update(lam, constants.eta, weighted_cost, problem.budget, problem.beta)
    return IterateTrace(lambdas, kls, constants, solution, problem.beta)


def random_problem(seed: int, n_contexts: int = 8, beta: float = 0.05,
                   budget: float | None = None, unit_bounds: bool = False) -> TabularProblem:
    """Random feasible tabular problem for tests and demos.

    unit_bounds forces max cost and max w2 to exactly 1 (and leaves w1 in
    (0, 1]) so the convergence constants become M = K = 1.
    """
    rng = np.random.default_rng(seed)
    rho = rng.dirichlet(np.ones(n_contexts) * 5.0)
    reward = rng.integers(0, 2, size=(n_contexts, 2)).astype(np.float64)
    if unit_bounds:
        cost = rng.uniform(0.05, 1.0, size=(n_contexts, 2))
        cost[rng.integers(0, n_contexts), rng.integers(0, 2)] = 1.0
        w1 = rng.uniform(0.2, 1.0, size=n_contexts)
        w2 = rng.uniform(0.2, 1.0, size=n_contexts)
        w2[rng.integers(0, n_contexts)] = 1.0
    else:
        cost = np.stack([rng.uniform(0.5, 1.5, size=n_contexts),
                         rng.uniform(1.0, 6.0, size=n_contexts)], axis=1)
        w1 = rng.uniform(0.3, 2.0, size=n_contexts)
        w2 = rng.uniform(0.3, 2.0, size=n_contexts)
    if budget is None:
        floor = float(np.sum(rho * w2 * cost[:, 0]))
        ceil = float(np.sum(rho * w2 * cost.max(axis=1)))
        share = rng.uniform(0.15, 0.85)
        budget = floor + share * (ceil - floor)
        if not budget > floor:  # reasoning is nowhere costlier: no budget binds
            budget = floor * (1.0 + share)
    return TabularProblem(rho=rho, reward=reward, cost=cost, w1=w1, w2=w2,
                          budget=budget, beta=beta)
