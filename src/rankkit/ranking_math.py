"""Plackett-Luce ranking probability and the temperature-scaled listwise
loss with its analytic gradient.

All softmax-like quantities are accumulated in log space with
``np.logaddexp.accumulate``, one O(n) pass each for the suffix
log-sum-exps and the gradient's prefix sums; no score is exponentiated on
its own.  Small temperatures (0.1 is the usual training setting) scale
scores 10x, which makes naive exp() overflow a real possibility.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, LengthMismatch, NonPositiveTemperature
from .types import Permutation, Value


def _scaled(scores: Sequence[float], perm: Permutation,
            tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """``perm``'s 0-based order and the scores in that order divided by tau,
    checked once (every scaled value, and the span from the least to the
    largest, must be finite), less the largest of them.  Every result is a function of the differences of the scaled
    scores, so the shift changes none, but it keeps the digits of scores
    that are large and close: ``[1e12 + 2, 1e12]`` and ``[2, 0]`` give the
    same loss and gradient."""
    if not tau > 0:
        raise NonPositiveTemperature(f"tau={tau}")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise InvariantViolation("scores must be a flat sequence")
    if len(perm) != s.shape[0]:
        raise LengthMismatch(f"{s.shape[0]} scores vs permutation of size {len(perm)}")
    order = np.asarray(perm.order, dtype=np.intp) - 1
    with np.errstate(over="ignore"):
        t = s[order] / tau
    if not t.size:  # an empty list: no step, so loss 0 and probability 1
        return order, t
    # the span is finite exactly when every value is and no difference of
    # two of them overflows
    top, least = float(t.max()), float(t.min())
    if not math.isfinite(top - least):
        if not np.all(np.isfinite(s)):
            raise InvariantViolation("scores must be finite")
        if not (math.isfinite(top) and math.isfinite(least)):
            raise InvariantViolation(f"scores / tau overflow at tau={tau}")
        raise InvariantViolation(f"scores / tau span past the float64 range at tau={tau}")
    t -= top
    return order, t


def _suffix_logsumexp(t: np.ndarray) -> np.ndarray:
    """lse[i] = log sum_{j >= i} exp(t[j])."""
    return np.logaddexp.accumulate(t[::-1])[::-1]


class LossReport(Value, frozen=True):
    __slots__ = ("loss", "per_step_terms", "temperature")

    def __init__(self, loss: float, per_step_terms: tuple[float, ...], temperature: float):
        self._set(loss, per_step_terms, temperature)


def plackett_luce_prob(scores: Sequence[float], perm: Permutation) -> float:
    """Probability of observing ``perm`` under the Plackett-Luce model:
    a product of sequential softmax choices over the remaining candidates.
    """
    _, t = _scaled(scores, perm)
    log_p = float(np.sum(t - _suffix_logsumexp(t)))
    return float(np.exp(log_p))


def listwise_loss(
    scores: Sequence[float],
    perm: Permutation,
    tau: float = 1.0,
) -> LossReport:
    """Negative log Plackett-Luce likelihood of ``perm`` at temperature tau.

    Equals -log plackett_luce_prob(scores / tau, perm); per_step_terms are the
    n negative log softmax factors, each nonnegative.
    """
    _, t = _scaled(scores, perm, tau)
    terms = _suffix_logsumexp(t) - t
    return LossReport(
        loss=float(np.sum(terms)),
        per_step_terms=tuple(terms.tolist()),
        temperature=float(tau),
    )


def listwise_loss_grad(
    scores: Sequence[float],
    perm: Permutation,
    tau: float = 1.0,
) -> np.ndarray:
    """Analytic gradient of listwise_loss w.r.t. the (unpermuted) scores.

    For the candidate placed at position p of the permutation, the derivative
    is (1/tau) * (sum over prefix steps i <= p of its softmax weight within
    suffix i) - 1/tau.  Components sum to zero: the loss is invariant to a
    constant shift of all scores.
    """
    order, t = _scaled(scores, perm, tau)
    # G[p] = sum_{i <= p} exp(t[p] - lse[i]) = exp(t[p] + log sum_{i <= p} exp(-lse[i])),
    # and t[p] <= lse[i] for every i <= p, so the exponent is at most log(p + 1).
    G = np.exp(t + np.logaddexp.accumulate(-_suffix_logsumexp(t)))
    g = (G - 1.0) / tau
    grad = np.zeros(len(order))
    grad[order] = g
    return grad

