"""Diffusion-time bookkeeping: noise schedule, forward noising, clean-latent
estimate, and the posterior sampling step.

Timesteps are 1-based: t ranges over 1..T, and the cumulative product
``alpha_bar`` at t=0 is defined as 1 (the first entry of ``alpha_bar_prev``)
so the final (t=1) step is well formed. Each stage checks t once.
Noise is always supplied by the caller. ``predict_x0`` and ``posterior_step``
write their result into a caller-owned grid passed as ``out=``, which may be
the one input each names. ``posterior_step`` also forms its clean-estimate
and noise terms in those two inputs, which the sampler owns and drops after
the step; every other function writes only into its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .util import as_grid, check_out, require_same_shape


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t; alpha_t = 1 - beta_t, alpha_bar_t, their
    cumulative product, and alpha_bar_prev, alpha_bar at t-1 with the
    boundary value alpha_bar_0 = 1, are derived from them as read-only
    arrays. Entry t - 1 of each array belongs to timestep t; callers check t
    with ``check_t`` once and then read the entries they need."""

    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    alpha_bar_prev: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a 1-D array of length >= 1")
        if not ((beta > 0.0).all() and (beta < 1.0).all()):
            raise ValueError("every beta_t must lie in (0, 1)")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        # Rounding can still break these: beta_t = 1e-17 gives alpha_t = 1.0.
        if not ((alpha_bar > 0.0).all() and (alpha_bar < 1.0).all()):
            raise ValueError("alpha_bar must lie in (0, 1)")
        if alpha_bar.size > 1 and not (np.diff(alpha_bar) < 0.0).all():
            raise ValueError("alpha_bar must be strictly decreasing")
        alpha_bar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
        for name, arr in (("beta", beta), ("alpha", alpha), ("alpha_bar", alpha_bar),
                          ("alpha_bar_prev", alpha_bar_prev)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def steps(self) -> int:
        return int(self.beta.size)

    def check_t(self, t: int) -> None:
        if not isinstance(t, (int, np.integer)) or not 1 <= t <= self.steps:
            raise ValueError(f"timestep t={t!r} out of range [1, {self.steps}]")


def make_linear_schedule(T: int, start: float = 1e-4, end: float = 0.02) -> NoiseSchedule:
    """Linearly spaced beta_t over T steps, from ``start`` to ``end``.

    Defaults follow the common 1000-step convention (1e-4 .. 0.02) when T=1000;
    shorter schedules reuse the same endpoints.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < start <= end < 1.0):
        raise ValueError(f"betas must satisfy 0 < start <= end < 1, got ({start}, {end})")
    beta = np.linspace(start, end, int(T), dtype=np.float64)
    return NoiseSchedule(beta=beta)


def make_geometric_schedule(
    T: int,
    noise_floor: float = 1e-4,
    knee: float = 0.06,
    terminal: float = 1.0 - 4e-5,
) -> NoiseSchedule:
    """Short-run schedule: the cumulative noise variance (1 - alpha_bar) is
    log-spaced from ``noise_floor`` up to ``knee``, then accelerates to
    ``terminal`` over the last ~10% of steps.

    A linear beta schedule compressed to a few dozen steps places its rungs
    too coarsely around small noise variances, so ancestral sampling visibly
    under-disperses fine-scale data; log spacing below the knee fixes that
    while the short tail still reaches (near) pure noise. Use this for step
    counts well below the 1000-step linear convention.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not 0.0 < noise_floor < knee < terminal < 1.0:
        raise ValueError(
            "ladder must satisfy 0 < noise_floor < knee < terminal < 1, got "
            f"({noise_floor}, {knee}, {terminal})"
        )
    T = int(T)
    if T == 1:
        om = np.array([terminal])
    else:
        tail = max(1, round(0.1 * T))
        body = T - tail
        om = np.concatenate(
            [np.geomspace(noise_floor, knee, body),
             np.geomspace(knee, terminal, tail + 1)[1:]]
        )
    alpha_bar = 1.0 - om
    beta = 1.0 - alpha_bar / np.concatenate([[1.0], alpha_bar[:-1]])
    return NoiseSchedule(beta=beta)


def forward_diffuse(z0: np.ndarray, t: int, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Noise a clean grid to timestep t: sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps."""
    z0 = as_grid(z0, "z0")
    eps = as_grid(eps, "eps")
    require_same_shape(z0, eps, "z0", "eps")
    s.check_t(t)
    abar = float(s.alpha_bar[t - 1])
    return math.sqrt(abar) * z0 + math.sqrt(1.0 - abar) * eps


def predict_x0(z_t: np.ndarray, eps_hat: np.ndarray, t: int, s: NoiseSchedule,
               out: np.ndarray | None = None) -> np.ndarray:
    """Clean-latent estimate implied by a noisy grid and a noise prediction,
    ``(z_t - sqrt(1 - abar_t) * eps_hat) / sqrt(abar_t)``. ``out`` may be
    ``eps_hat``; it must not overlap ``z_t``."""
    z_t = as_grid(z_t, "z_t")
    eps_hat = as_grid(eps_hat, "eps_hat")
    require_same_shape(z_t, eps_hat, "z_t", "eps_hat")
    check_out(out, z_t.shape, z_t=z_t)
    s.check_t(t)
    abar = float(s.alpha_bar[t - 1])
    out = np.multiply(eps_hat, math.sqrt(1.0 - abar), out=out)
    np.subtract(z_t, out, out=out)
    return np.divide(out, math.sqrt(abar), out=out)


def posterior_step(
    z_t: np.ndarray, z0_prime: np.ndarray, t: int, noise: np.ndarray | None, s: NoiseSchedule,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One ancestral step: sample the Gaussian posterior of z_{t-1} given z_t and
    a clean estimate.

    Mean is the usual convex combination
    ``sqrt(abar_{t-1}) * beta_t / (1 - abar_t) * z0' +
    sqrt(alpha_t) * (1 - abar_{t-1}) / (1 - abar_t) * z_t``
    with variance ``(1 - abar_{t-1}) / (1 - abar_t) * beta_t``. The caller
    provides the standard-normal draw so the step stays deterministic; at
    t = 1, which uses no noise, ``noise`` may be None. The sum is formed as
    ``coef_zt * z_t``, plus the ``z0'`` term, plus the noise term, so ``out``
    may be ``z_t``; it must not overlap ``z0_prime`` or ``noise``.

    Before t = 1 the step consumes ``z0_prime`` and ``noise``: it scales each
    in place into its term, so afterwards they hold ``coef_z0 * z0'`` and
    ``sqrt(var) * noise``, and it allocates no grid of its own when given
    ``out``. So the two must not overlap each other. At t = 1 both are left
    as they are.
    """
    z_t = as_grid(z_t, "z_t")
    z0_prime = as_grid(z0_prime, "z0_prime")
    require_same_shape(z_t, z0_prime, "z_t", "z0_prime")
    s.check_t(t)
    if noise is not None:
        noise = as_grid(noise, "noise")
        require_same_shape(z_t, noise, "z_t", "noise")
        if np.may_share_memory(z0_prime, noise):
            raise ValueError("noise overlaps z0_prime; the step overwrites both with its terms")
    elif t > 1:
        raise ValueError(f"noise is required at t = {t}; only the final step t = 1 may omit it")
    check_out(out, z_t.shape, z0_prime=z0_prime, noise=noise)
    if t == 1:
        # The boundary value abar_0 = 1 collapses the step: the z0' coefficient
        # is exactly 1 and the variance is exactly 0. Evaluating the closed form
        # in floats would round the coefficient off 1, so return the estimate
        # directly.
        return np.positive(z0_prime, out=out)
    abar_t = float(s.alpha_bar[t - 1])
    abar_prev = float(s.alpha_bar_prev[t - 1])
    beta_t = float(s.beta[t - 1])
    alpha_t = float(s.alpha[t - 1])
    coef_z0 = math.sqrt(abar_prev) * beta_t / (1.0 - abar_t)
    coef_zt = math.sqrt(alpha_t) * (1.0 - abar_prev) / (1.0 - abar_t)
    var = (1.0 - abar_prev) / (1.0 - abar_t) * beta_t
    # IEEE addition commutes, so these are the bytes of
    # coef_z0 * z0' + coef_zt * z_t + sqrt(var) * noise. z_t is read in full
    # before z0_prime or noise, which may share its memory, is written.
    out = np.multiply(z_t, coef_zt, out=out)
    out += np.multiply(z0_prime, coef_z0, out=z0_prime)
    out += np.multiply(noise, math.sqrt(var), out=noise)
    return out
