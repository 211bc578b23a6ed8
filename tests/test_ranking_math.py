import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankkit.errors import (
    DuplicateIndex,
    LengthMismatch,
    NonPositiveTemperature,
    OutOfRange,
    PermutationError,
)
from rankkit.ranking_math import (
    _suffix_logsumexp,
    listwise_loss,
    listwise_loss_grad,
    plackett_luce_prob,
)
from rankkit.types import Permutation, identity_permutation, validate_permutation


def pl_prob_oracle(scores, order):
    """Scalar Plackett-Luce evaluation, no log-space tricks."""
    p = 1.0
    remaining = list(order)
    for _ in range(len(order)):
        head = remaining[0]
        denom = sum(math.exp(scores[i - 1]) for i in remaining)
        p *= math.exp(scores[head - 1]) / denom
        remaining = remaining[1:]
    return p


def suffix_logsumexp_oracle(t):
    """lse[i] = log sum_{j >= i} exp(t[j]), computed with a running max shift."""
    n = t.shape[0]
    out = np.empty(n)
    m = -np.inf
    acc = 0.0
    for i in range(n - 1, -1, -1):
        x = t[i]
        if x > m:
            acc = acc * np.exp(m - x) + 1.0 if np.isfinite(m) else 1.0
            m = x
        else:
            acc += np.exp(x - m)
        out[i] = m + np.log(acc)
    return out


def loss_oracle(scores, perm, tau):
    t = np.asarray(scores, dtype=np.float64)[np.asarray(perm.order) - 1] / tau
    return float(np.sum(suffix_logsumexp_oracle(t) - t))


def grad_oracle(scores, perm, tau):
    """O(n^2) gradient: one max-shifted softmax per suffix of the permutation."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[0]
    order = np.asarray(perm.order) - 1
    t = s[order] / tau
    g = np.zeros(n)
    for i in range(n):
        suffix = t[i:]
        w = np.exp(suffix - suffix.max())
        w /= w.sum()
        g[i:] += w
    g = (g - 1.0) / tau
    grad = np.zeros(n)
    grad[order] = g
    return grad


@st.composite
def tied_loss_cases(draw):
    """(scores, perm, tau) with n up to 200, |scores| up to 1e5 and, on
    average, half of the scores drawn from a pool of at most four values."""
    n = draw(st.integers(1, 200))
    value = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(value, min_size=1, max_size=4))
    scores = draw(st.lists(st.one_of(st.sampled_from(pool), value), min_size=n, max_size=n))
    order = draw(st.permutations(range(1, n + 1)))
    tau = draw(st.floats(0.01, 10.0))
    return scores, Permutation(tuple(order)), tau


class TestPlackettLuce:
    def test_uniform_scores_give_inverse_factorial(self):
        for perm in itertools.permutations([1, 2, 3]):
            p = plackett_luce_prob([0.0, 0.0, 0.0], Permutation(perm))
            assert p == pytest.approx(1 / 6, abs=1e-12)

    def test_single_item(self):
        assert plackett_luce_prob([17.0], identity_permutation(1)) == pytest.approx(1.0)

    def test_descending_scores_oracle(self):
        # step factors e^2/(e^2+e^1+e^0) and e^1/(e^1+e^0)
        scores = [2.0, 1.0, 0.0]
        expected = (math.e**2 / (math.e**2 + math.e + 1)) * (math.e / (math.e + 1))
        got = plackett_luce_prob(scores, identity_permutation(3))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            plackett_luce_prob([1.0, 2.0], identity_permutation(3))

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one_over_all_permutations(self, n, rnd):
        scores = [rnd.uniform(-3, 3) for _ in range(n)]
        total = sum(
            plackett_luce_prob(scores, Permutation(p))
            for p in itertools.permutations(range(1, n + 1))
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            scores = rng.normal(size=n).tolist()
            order = tuple(rng.permutation(n) + 1)
            got = plackett_luce_prob(scores, validate_permutation(order, n))
            assert got == pytest.approx(pl_prob_oracle(scores, order), rel=1e-10)


@pytest.mark.parametrize("fn", [plackett_luce_prob, listwise_loss, listwise_loss_grad])
@pytest.mark.parametrize("order,error,position", [
    ((0, 1, 2), OutOfRange, 1),  # index 0 read the last score
    ((1, 1, 2), DuplicateIndex, 2),  # a loss of 2.86 and a gradient that did not sum to 0
    ((3, 3, 3), DuplicateIndex, 2),  # a probability of 1/6
    ((1, 2, 4), OutOfRange, 3),  # a bare IndexError
    ((1.0, 2.5), PermutationError, 2),  # silently (1, 2)
])
def test_an_order_that_is_no_permutation_fails_before_the_math(fn, order, error, position):
    with pytest.raises(error, match=f"at position {position}\\b"):
        fn([1.0, 2.0, 3.0], Permutation(order))


class TestListwiseLoss:
    def test_single_item_zero_loss(self):
        assert listwise_loss([3.0], identity_permutation(1), 1.0).loss == pytest.approx(0.0)

    def test_uniform_scores_log_factorial(self):
        report = listwise_loss([5.0, 5.0, 5.0], identity_permutation(3), 1.0)
        assert report.loss == pytest.approx(math.log(6), abs=1e-9)

    def test_loss_equals_neg_log_prob_at_training_temperature(self):
        scores = [2.0, 1.0, 0.0]
        tau = 0.1
        report = listwise_loss(scores, identity_permutation(3), tau)
        p = plackett_luce_prob([s / tau for s in scores], identity_permutation(3))
        assert report.loss == pytest.approx(-math.log(p), abs=1e-9)

    def test_per_step_terms_sum_to_loss_and_nonnegative(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=6).tolist()
        report = listwise_loss(scores, identity_permutation(6), 0.5)
        assert sum(report.per_step_terms) == pytest.approx(report.loss)
        assert all(t >= -1e-12 for t in report.per_step_terms)

    @given(tied_loss_cases())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_per_step_terms_are_the_python_floats_of_the_terms(self, case):
        scores, perm, tau = case
        t = np.asarray(scores, dtype=np.float64)[np.asarray(perm.order) - 1] / tau
        terms = _suffix_logsumexp(t) - t
        got = listwise_loss(scores, perm, tau).per_step_terms
        assert all(type(x) is float for x in got)
        # bit-equal, the sign of zero included
        assert [x.hex() for x in got] == [float(x).hex() for x in terms]

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=5)
        perm = validate_permutation(tuple(rng.permutation(5) + 1), 5)
        a = listwise_loss(scores.tolist(), perm, 0.1).loss
        b = listwise_loss((scores + 42.0).tolist(), perm, 0.1).loss
        assert a == pytest.approx(b, abs=1e-9)

    def test_argmin_is_descending_sort(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            scores = rng.normal(size=n)
            best = min(
                itertools.permutations(range(1, n + 1)),
                key=lambda p: listwise_loss(scores.tolist(), Permutation(p), 1.0).loss,
            )
            expected = tuple(int(i) + 1 for i in np.argsort(-scores, kind="stable"))
            assert best == expected

    def test_temperature_must_be_positive(self):
        with pytest.raises(NonPositiveTemperature):
            listwise_loss([1.0, 2.0], identity_permutation(2), 0.0)

    def test_extreme_scores_do_not_overflow(self):
        report = listwise_loss([500.0, -500.0, 0.0], identity_permutation(3), 0.1)
        assert math.isfinite(report.loss)


def finite_difference_grad(scores, perm, tau, h=1e-5):
    scores = np.asarray(scores, dtype=np.float64)
    g = np.zeros_like(scores)
    for i in range(scores.size):
        up = scores.copy()
        up[i] += h
        dn = scores.copy()
        dn[i] -= h
        g[i] = (listwise_loss(up.tolist(), perm, tau).loss
                - listwise_loss(dn.tolist(), perm, tau).loss) / (2 * h)
    return g


class TestListwiseLossGrad:
    def test_single_item(self):
        assert listwise_loss_grad([2.0], identity_permutation(1), 1.0).tolist() == [0.0]

    def test_uniform_scores_match_finite_differences(self):
        grad = listwise_loss_grad([1.0, 1.0, 1.0], identity_permutation(3), 1.0)
        fd = finite_difference_grad([1.0, 1.0, 1.0], identity_permutation(3), 1.0)
        np.testing.assert_allclose(grad, fd, atol=1e-7)
        assert abs(grad.sum()) < 1e-9

    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_random_instances_match_finite_differences(self, tau):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            scores = rng.normal(size=n)
            perm = validate_permutation(tuple(rng.permutation(n) + 1), n)
            grad = listwise_loss_grad(scores.tolist(), perm, tau)
            fd = finite_difference_grad(scores.tolist(), perm, tau)
            # zero components of the true gradient are compared absolutely
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4
            assert abs(grad.sum()) < 1e-9


class TestLogSpaceOracles:
    """The O(n) log-space loss and gradient against the literal loops."""

    @given(tied_loss_cases())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_loss_and_grad_match_literal_oracles(self, case):
        scores, perm, tau = case
        n = len(scores)
        t = np.asarray(scores) / tau
        bound = 64 * np.finfo(np.float64).eps * n * max(1.0, float(np.max(np.abs(t))))
        got = listwise_loss_grad(scores, perm, tau)
        want = grad_oracle(scores, perm, tau)
        assert np.all(np.abs(tau * got - tau * want) <= bound)
        loss = listwise_loss(scores, perm, tau).loss
        assert abs(loss - loss_oracle(scores, perm, tau)) <= bound

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_all_tied_scores(self, n):
        perm = identity_permutation(n)
        np.testing.assert_allclose(listwise_loss_grad([7.0] * n, perm, 0.1),
                                   grad_oracle([7.0] * n, perm, 0.1), rtol=0, atol=1e-12)
        assert listwise_loss([7.0] * n, perm, 0.1).loss == pytest.approx(
            math.lgamma(n + 1), abs=1e-9)

