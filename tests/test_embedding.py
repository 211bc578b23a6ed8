import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import TooLarge, brute_force_diversity_oracle, greedy_oracle, kmeans_oracle

from rankkit import embedding
from rankkit.embedding import (
    CorpusIndex,
    EmbeddingRecord,
    EmbeddingRows,
    cosine_sim,
    euclidean_dist,
    greedy_diversity_select,
    kmeans_centroid_select,
    quality_filter,
    random_select,
    read_embeddings,
    stack_records,
    top_k_by_distance,
    write_embeddings,
    write_selection,
)
from rankkit.errors import (
    DimensionMismatch,
    EmptyCollection,
    InvariantViolation,
    KTooLarge,
    ZeroVector,
)
from rankkit.types import check_id


def records_from(matrix, prefix="v"):
    matrix = np.asarray(matrix)
    return EmbeddingRows(matrix, [f"{prefix}{i + 1}" for i in range(len(matrix))])


def random_records(rng, n, d, prefix="v"):
    return records_from(rng.normal(size=(n, d)), prefix)


class TestGeometry:
    def test_cosine_identical(self):
        assert cosine_sim([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_sim([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_cosine_hand_computed(self):
        # dot = 11, norms sqrt(5) and sqrt(25)
        assert cosine_sim([1, 2], [3, 4]) == pytest.approx(11 / (math.sqrt(5) * 5), rel=1e-12)

    def test_cosine_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_sim([0, 0], [1, 0])

    def test_cosine_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_sim([1, 0], [1, 0, 0])

    def test_euclidean_identity(self):
        assert euclidean_dist([1, 0], [1, 0]) == 0.0

    def test_euclidean_345(self):
        assert euclidean_dist([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_euclidean_hand_computed(self):
        assert euclidean_dist([1, 2, 3], [4, 6, 3]) == pytest.approx(5.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cosine_scale_invariance_and_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 6))
        assert cosine_sim(3.5 * a, b) == pytest.approx(cosine_sim(a, b), abs=1e-12)
        assert euclidean_dist(a, c) <= euclidean_dist(a, b) + euclidean_dist(b, c) + 1e-12

    @given(st.sampled_from([1, 2, 3, 4, 7, 8, 9, 16, 17, 33, 128, 129, 384, 1031, 9000]),
           st.integers(1, 12), st.integers(-310, 160), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_euclidean_dist_has_the_bits_of_the_row_wise_norm(self, d, n, exponent, grid, seed):
        # retrieve writes euclidean_dist beside the ranks that
        # top_k_by_distance sorts by this row-wise norm, over all rows or
        # over a query's gathered candidates
        rng = np.random.default_rng(seed)
        draw = partial(rng.integers, -2, 3) if grid else partial(rng.normal, 0.0, 1.0)
        x = draw((n, d)) * 10.0 ** exponent
        q = draw(d) * 10.0 ** exponent
        rows = np.sort(rng.permutation(n)[:max(1, n // 2)])
        with np.errstate(over="ignore"):
            every = np.linalg.norm(x - q, axis=1)
            gathered = np.linalg.norm(x[rows] - q, axis=1)
            dists = [euclidean_dist(q, row) for row in x]
        assert dists == every.tolist()
        assert [dists[i] for i in rows] == gathered.tolist()


class TestQualityFilter:
    def test_threshold_splits(self):
        pairs = [
            ([1.0, 0.0], [1.0, 0.1], "close"),   # sim ~ 0.995
            ([1.0, 0.0], [0.1, 1.0], "far"),     # sim ~ 0.0995
        ]
        result = quality_filter(pairs, 0.25)
        assert [p[2] for p in result.kept] == ["close"]
        assert result.dropped_below == 1

    def test_threshold_minus_one_keeps_all(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.normal(size=4), rng.normal(size=4), i) for i in range(10)]
        assert quality_filter(pairs, -1.0).kept_count == 10

    def test_zero_vector_pair_dropped_not_fatal(self):
        pairs = [([0.0, 0.0], [1.0, 0.0], "zero"), ([1.0, 0.0], [1.0, 0.0], "ok")]
        result = quality_filter(pairs, 0.0)
        assert result.dropped_zero == 1
        assert [p[2] for p in result.kept] == ["ok"]

    def test_median_threshold_keeps_upper_half(self):
        rng = np.random.default_rng(8)
        pairs = [(rng.normal(size=5), rng.normal(size=5), i) for i in range(10)]

        def scalar_cos(a, b):
            dot = sum(x * y for x, y in zip(a, b))
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(y * y for y in b))
            return dot / (na * nb)

        sims = sorted(scalar_cos(q, d) for q, d, _ in pairs)
        median = (sims[4] + sims[5]) / 2
        result = quality_filter(pairs, median)
        assert result.kept_count == 5

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        pairs = [(rng.normal(size=3), rng.normal(size=3), i) for i in range(12)]
        once = quality_filter(pairs, 0.1)
        twice = quality_filter(once.kept, 0.1)
        assert [p[2] for p in twice.kept] == [p[2] for p in once.kept]


class TestGreedyDiversity:
    def test_identical_vectors_tie_break_by_index(self):
        recs = records_from([[1, 0]] * 4)
        result = greedy_diversity_select(recs, 2)
        assert result.selected_ids == ("v1", "v2")

    def test_picks_unique_minimizer(self):
        recs = records_from([[1, 0], [1, 0.01], [0, 1]])
        assert greedy_diversity_select(recs, 2).selected_ids == ("v1", "v3")

    def test_k_of_one_returns_seed(self):
        recs = records_from([[0, 1], [1, 0]])
        assert greedy_diversity_select(recs, 1).selected_ids == ("v1",)
        assert brute_force_diversity_oracle(recs, 1).selected_ids == ("v1",)

    def test_k_at_least_n_returns_all_in_greedy_order(self):
        rng = np.random.default_rng(2)
        recs = random_records(rng, 6, 3)
        result = greedy_diversity_select(recs, 99)
        assert sorted(result.selected_ids) == sorted(r.id for r in recs)
        assert result.selected_ids == brute_force_diversity_oracle(recs, 6).selected_ids

    def test_zero_vector_is_fatal_and_named(self):
        recs = records_from([[1, 0], [0, 0]])
        with pytest.raises(ZeroVector) as exc:
            greedy_diversity_select(recs, 2)
        assert "v2" in str(exc.value)

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            greedy_diversity_select(stack_records([]), 1)

    def test_oracle_caps_input_size(self):
        rng = np.random.default_rng(1)
        with pytest.raises(TooLarge):
            brute_force_diversity_oracle(random_records(rng, 33, 2), 3)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(2, 16))
            k = int(rng.integers(1, min(n, 6) + 1))
            recs = random_records(rng, n, int(rng.integers(2, 6)))
            fast = greedy_diversity_select(recs, k, keep_trace=True)
            slow = brute_force_diversity_oracle(recs, k, keep_trace=True)
            assert fast.selected_ids == slow.selected_ids
            for (ida, sa), (idb, sb) in zip(fast.trace, slow.trace):
                assert ida == idb
                assert sa == pytest.approx(sb, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        recs = random_records(rng, 12, 4)
        base = greedy_diversity_select(recs, 5).selected_ids
        for c in (2.0, 0.25, 3.7):
            scaled = EmbeddingRows(recs.matrix * c, recs.ids)
            assert greedy_diversity_select(scaled, 5).selected_ids == base

    def test_trace_records_every_step(self):
        rng = np.random.default_rng(10)
        recs = random_records(rng, 10, 3)
        result = greedy_diversity_select(recs, 4, keep_trace=True)
        assert len(result.trace) == 4
        assert result.trace[0] == (recs[0].id, 0.0)


@st.composite
def greedy_inputs(draw):
    """Inputs built to stress the certified float32 scan of greedy
    selection: duplicate rows and mirrored grid points tie exactly, near
    copies differ by far less than the scan's error bound, rows may be
    scaled by 1e-150 or 1e150, or by 1e-200 or 1e200, where squared norms
    underflow or overflow, d runs down to 1 and k from 1 to past N."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "duplicates", "mirrored", "near_ties"]))
    if kind == "duplicates":
        pool = rng.normal(size=(draw(st.integers(1, 4)), d))
        x = pool[rng.integers(0, len(pool), size=n)]
    elif kind == "mirrored":
        half = rng.integers(-2, 3, size=((n + 1) // 2, d)).astype(np.float64)
        x = np.vstack([half, -half])[:n]
    elif kind == "near_ties":
        pool = rng.normal(size=(draw(st.integers(1, 4)), d))
        x = pool[rng.integers(0, len(pool), size=n)] * (1 + 1e-9 * rng.normal(size=(n, d)))
    else:
        x = rng.normal(size=(n, d))
    x[~x.any(axis=1)] = 1.0
    scales = draw(st.sampled_from([(1.0,), (1e-150,), (1e150,), (1.0, 1e-150, 1e150),
                                   (1e-200,), (1e200,), (1.0, 1e-200, 1e200)]))
    x = x * rng.choice(scales, size=(n, 1))
    k = draw(st.one_of(st.just(1), st.integers(1, n), st.integers(n, n + 3)))
    return x, k


class TestGreedyAgainstLiteralOracle:
    """``greedy_diversity_select`` against ``greedy_oracle``, which scores
    every unpicked row in float64 at every step."""

    @given(greedy_inputs())
    @settings(max_examples=300, deadline=None)
    # mirrored points: the first two picks cancel, so P is exactly 0 and
    # every unpicked row ties for the third
    @example((np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]), 4))
    def test_same_ids_and_bit_equal_trace(self, case):
        x, k = case
        recs = records_from(x)
        fast = greedy_diversity_select(recs, k, keep_trace=True)
        slow = greedy_oracle(recs, k, keep_trace=True)
        assert fast.selected_ids == slow.selected_ids
        assert fast.trace == slow.trace  # floats compare bit for bit but for -0.0

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 64, 1000, 4096]),
           st.sampled_from([1.0, 1e-30, 1e-200]))
    @settings(max_examples=60, deadline=None)
    def test_scan_error_stays_within_the_slack(self, seed, d, p_scale):
        # u32 @ p32 in BLAS order, and a float32 running sum in index order,
        # both lie within E of the float64 score; a tiny P puts P's float32
        # rounding in the subnormal range, where only the absolute term holds
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, d)) + (rng.random() < 0.5) * 3.0
        norms, u32, u_max = embedding._unit_rows32(records_from(x))
        u = x / norms[:, None]
        p = u[rng.integers(0, 50, size=rng.integers(1, 20))].sum(axis=0) * p_scale
        s = (u * p).sum(axis=1)
        slack = embedding._scan_slack(d, u_max)(p)
        p32 = p.astype(np.float32)
        ordered = np.cumsum(u32 * p32, axis=1, dtype=np.float32)[:, -1]
        for scan in (u32 @ p32, ordered):
            assert np.all(np.abs(scan.astype(np.float64) - s) <= slack)

    @given(greedy_inputs())
    @settings(max_examples=200, deadline=None)
    # every step but the last has every unpicked row as a candidate: the
    # rows tie, and the float64 re-score breaks the tie by index
    @example((np.array([[1.0, 0.0]] * 5), 5))
    @example((np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]), 4))
    @example((np.array([[1.0, 2.0], [3.0, 1.0], [1.0, 2.0], [3.0, 1.0], [2.0, 2.0]]), 5))
    def test_a_kept_trace_picks_the_same_ids(self, case):
        # without a trace, a lone candidate is taken without its float64
        # score; with one, every pick is re-scored
        x, k = case
        recs = records_from(x)
        assert greedy_diversity_select(recs, k).selected_ids == \
            greedy_diversity_select(recs, k, keep_trace=True).selected_ids

    @given(st.sampled_from([1, 2, 3, 64, 256, 1000, 4096, 2**40]),
           st.floats(0.5, 2.0), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1.0, 1e-30, 1e-200, 1e30]))
    @settings(max_examples=100, deadline=None)
    def test_the_hoisted_slack_has_the_bits_of_the_formula(self, d, u_max, seed, p_scale):
        # E as one expression per step, in its order of evaluation; at
        # d = 2^40 gamma is inf, and with P = 0 both give NaN
        gamma, u32, u64 = embedding._gamma, embedding._UNIT_ROUNDOFF32, embedding._UNIT_ROUNDOFF
        p = np.random.default_rng(seed).normal(size=min(d, 4096)) * p_scale
        with np.errstate(invalid="ignore"):
            p_norm = float(np.sqrt(p @ p))
            rel = 3 * u32 + gamma(d + 1, u32) * (1 + u32) ** 2 + gamma(d + 1, u64)
            tiny = 4 * embedding._SUBNORMAL32 * (d + 1) * (1 + np.sqrt(d) * (u_max + p_norm))
            expected = (rel * u_max * p_norm + tiny) * (1 + gamma(2 * d + 12, u64))
            assert float(embedding._scan_slack(d, u_max)(p)).hex() == float(expected).hex()

    def test_peak_memory_has_no_float64_copy_of_the_rows(self):
        # a float64 unit matrix, or any other N x d float64 temporary, is
        # 4 MB here; the float32 scan matrix is half that
        rng = np.random.default_rng(0)
        n, d = 2000, 256
        recs = embedding.EmbeddingRows(rng.normal(size=(n, d)), tuple(f"v{i}" for i in range(n)))
        tracemalloc.start()
        try:
            greedy_diversity_select(recs, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8


class TestRowsPastTheSquaredNormRange:
    """Rows of finite values whose squared norm overflows, underflows to 0
    or is subnormal: greedy selection and ``cosine_sim`` take their norm
    from the row scaled by its largest magnitude."""

    def test_a_huge_near_copy_of_the_seed_is_not_picked_as_diverse(self):
        # near_a's cosine to a is 0.995, b's is 0; np.linalg.norm of near_a
        # overflows to inf, which once made its unit row 0
        x = np.array([[1.0, 0.0], [1e200, 1e199], [0.0, 1.0]])
        for scale in (1.0, 1e-200):
            picked = greedy_diversity_select(records_from(x * scale), 2, keep_trace=True)
            assert picked.selected_ids == ("v1", "v3")
            assert picked.trace[1][1] == pytest.approx(0.0, abs=1e-300)

    def test_a_tiny_row_is_not_a_zero_vector(self):
        tiny = [1e-170, 1e-171]
        assert greedy_diversity_select(records_from([[0.0, 1.0], tiny]), 2).selected_ids == \
            ("v1", "v2")
        assert cosine_sim(tiny, [1.0, 0.0]) == pytest.approx(10 / math.sqrt(101), rel=1e-15)

    def test_the_cosine_of_huge_rows_is_finite_and_counts_in_the_filter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine_sim([1e200, 1e199], [1e200, 0.0]) == \
                pytest.approx(10 / math.sqrt(101), rel=1e-15)
            result = quality_filter([([1e200, 1e199], [1e200, 0.0], "huge"),
                                     ([1e-170, 1e-171], [1e-170, 0.0], "tiny")], 0.9)
        assert [p[2] for p in result.kept] == ["huge", "tiny"]
        assert result.dropped_below == result.dropped_zero == 0

    def test_a_zero_row_is_still_a_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_sim([0.0, 0.0], [1e200, 1e199])
        with pytest.raises(ZeroVector, match="v2"):
            greedy_diversity_select(records_from([[1e200, 1e199], [0.0, 0.0]]), 2)

    @pytest.mark.parametrize("exponent", [-200, -160, -100, 0, 100, 160, 200])
    def test_picks_and_cosines_do_not_depend_on_scale(self, exponent):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 5))
        scaled = x * 10.0 ** exponent
        base = greedy_diversity_select(records_from(x), 12, keep_trace=True)
        got = greedy_diversity_select(records_from(scaled), 12, keep_trace=True)
        assert got.selected_ids == base.selected_ids
        assert [s for _, s in got.trace] == pytest.approx([s for _, s in base.trace],
                                                          rel=1e-12, abs=1e-15)
        assert [cosine_sim(scaled[0], row) for row in scaled] == \
            pytest.approx([cosine_sim(x[0], row) for row in x], rel=1e-12, abs=1e-15)

    def test_rows_inside_the_range_keep_the_bits_of_the_plain_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-150, 150, size=(40, 1))
        assert embedding._row_norms(x).tolist() == np.linalg.norm(x, axis=1).tolist()
        for a, b in zip(x, x[::-1]):
            assert cosine_sim(a, b) == float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestTopK:
    def test_collinear(self):
        corpus = records_from([[1, 0], [2, 0], [3, 0]], prefix="")
        corpus = [EmbeddingRecord(n, r.vector) for n, r in zip("abc", corpus)]
        assert top_k_by_distance([0, 0], corpus, 2) == ["a", "b"]

    def test_exact_match_first(self):
        corpus = records_from([[5, 5], [1, 2]])
        assert top_k_by_distance([1, 2], corpus, 1) == ["v2"]

    def test_k_exceeds_n_returns_all(self):
        corpus = records_from([[1, 0], [0, 1]])
        assert len(top_k_by_distance([0, 0], corpus, 10)) == 2

    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(77)
        corpus = random_records(rng, 100, 8)
        q = rng.normal(size=8)
        got = top_k_by_distance(q, corpus, 20)
        ref = [r.id for r in sorted(corpus, key=lambda r: float(np.linalg.norm(np.asarray(r.vector) - q)))][:20]
        assert got == ref

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            top_k_by_distance([1, 0, 0], records_from([[1, 0]]), 1)


@st.composite
def corpus_and_query(draw):
    """Corpora built to stress the top-k kernel.  Integer grid points and
    reflections through the query put distinct rows at equal distances, rows
    are repeated, magnitudes span 1e-3 .. 1e3 (per corpus or per row), and
    the query is often a corpus row.  A large shift shared by rows and query
    makes |x|^2 - 2 x.q + |q|^2 lose most of its digits to cancellation.
    Rows may be stored in float32, which the index must widen to float64."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        x = rng.uniform(-1, 1, size=(n, d))
    if draw(st.booleans()):
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
    if draw(st.booleans()):
        exps = rng.integers(-3, 4, size=n)
    else:
        exps = np.full(n, draw(st.integers(-3, 3)))
    x *= (10.0 ** exps)[:, None]
    if draw(st.booleans()):
        q = x[draw(st.integers(0, n - 1))].copy()
    else:
        q = rng.integers(-2, 3, size=d) * 10.0 ** exps[0]
    if draw(st.booleans()):
        x[n // 2:] = 2 * q - x[: n - n // 2]
    shift = draw(st.sampled_from([0.0, 1e3, -7e2]))
    x = x + shift
    if draw(st.booleans()):
        x = x.astype(np.float32)
    return x, q + shift


@st.composite
def corpus_and_block(draw):
    """``corpus_and_query``'s corpora with a block of B - 1, B or B + 1
    queries for a block size B: its query first, then its query again,
    corpus rows and midpoints of two rows (at equal distances to both).
    Some corpora have a few rows scaled by 1e200, whose squared norms
    overflow, so the certificate's slack is inf for the whole block."""
    x, q = draw(corpus_and_query())
    n = len(x)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = x.astype(np.float64)
        x[rng.integers(0, n, size=max(1, n // 8))] *= 1e200
    x64 = x.astype(np.float64)
    block = draw(st.integers(1, 4))
    m = max(1, block + draw(st.sampled_from([-1, 0, 1])))
    a, b = x64[rng.integers(0, n, size=m)], x64[rng.integers(0, n, size=m)]
    kind = rng.integers(0, 3, size=m)
    queries = np.where((kind == 0)[:, None], a, (a + b) / 2)
    queries[kind == 2] = q
    queries[0] = q
    return x, queries, block


class TestCorpusIndex:
    @settings(max_examples=300, deadline=None)
    @given(corpus_and_query())
    # four rows at distance 1 (one a duplicate) straddle k = 2 and k = 4
    @example((np.array([[3.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(2)))
    def test_top_k_matches_literal_oracle_for_every_k(self, case):
        x, q = case
        index = CorpusIndex(records_from(x))
        oracle = np.argsort(np.linalg.norm(x - q, axis=1), kind="stable")
        for k in range(1, len(x) + 3):  # every k, so ties straddling the k-th place and k >= N
            got = top_k_by_distance(q, index, k)
            assert got == [f"v{i + 1}" for i in oracle[:k]]

    @settings(max_examples=300, deadline=None)
    @given(corpus_and_block())
    # corpus_and_query's ties, in blocks of two
    @example((np.array([[3.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
              np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), 2))
    def test_blocks_match_the_literal_oracle_for_every_query_and_k(self, case):
        x, queries, block = case
        index = CorpusIndex(records_from(x))
        with mock.patch.object(embedding, "_PRODUCT_BYTES", 8 * len(x) * block):
            for k in range(1, len(x) + 3):
                candidates = index.candidates(queries, k)
                assert len(candidates) == len(queries)
                for q, rows in zip(queries, candidates):
                    assert np.all(np.diff(rows) > 0)
                    with np.errstate(over="ignore"):  # the oracle's squares of 1e200 rows
                        oracle = np.argsort(np.linalg.norm(x - q, axis=1), kind="stable")
                    expected = [f"v{i + 1}" for i in oracle[:k]]
                    assert top_k_by_distance(q, index, k, rows) == expected
                    assert top_k_by_distance(q, index, k) == expected

    def test_a_block_holds_its_product_within_the_cap(self):
        # one product for all 300 queries would be 4.8 MB
        rng = np.random.default_rng(0)
        n, d, cap = 2000, 64, 1 << 20
        index = CorpusIndex(random_records(rng, n, d))
        queries = rng.normal(size=(300, d))
        with mock.patch.object(embedding, "_PRODUCT_BYTES", cap):
            tracemalloc.start()
            try:
                index.candidates(queries, 10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # beyond the product: a few length-N work vectors and the candidates
        assert peak < cap + 16 * 8 * n

    def test_a_query_of_another_width_fails_the_block(self):
        index = CorpusIndex(records_from([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch, match=r"query shape \(3,\) vs corpus dim 2"):
            index.candidates(np.ones((2, 3)), 1)
        assert index.candidates(np.empty((0, 0)), 1) == []

    @pytest.mark.parametrize("queries", [[[]], np.empty((2, 0))])
    def test_a_block_of_another_shape_is_refused(self, queries):
        # unchecked, a block with rows but no width ended in matmul's own ValueError
        index = CorpusIndex(records_from([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch, match="vs corpus dim 2"):
            index.candidates(queries, 1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_refused(self, k):
        # unchecked, k = 0 kept every row and k = -3 ended in NumPy's ValueError
        index = CorpusIndex(records_from([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(KTooLarge, match=f"k must be >= 1, got {k}"):
            index.candidates(np.ones((1, 2)), k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_query_is_refused_with_its_row(self, bad):
        # unchecked, top_k_by_distance([nan, 0.0], index, 2) gave ['a', 'b']
        index = CorpusIndex(EmbeddingRows(np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"]))
        with pytest.raises(InvariantViolation, match="query row 0: non-finite entries"):
            top_k_by_distance([bad, 0.0], index, 2)
        with pytest.raises(InvariantViolation, match="query row 2: non-finite entries"):
            index.candidates(np.array([[1e200, 0.0], [0.0, 1.0], [0.0, bad], [bad, 1.0]]), 1)

    def test_the_certificate_keeps_only_the_k_nearest_on_spread_data(self):
        # the certificate prunes: on distinct distances its margin is far below
        # the gaps between neighbours, so no row beyond the k nearest is kept
        rng = np.random.default_rng(0)
        index = CorpusIndex(random_records(rng, 2000, 64))
        queries = rng.normal(size=(50, 64))
        for k in (1, 10, 100):
            assert [len(rows) for rows in index.candidates(queries, k)] == [k] * len(queries)

    def test_unindexable_corpus_fails_once_at_build(self):
        with pytest.raises(EmptyCollection):
            CorpusIndex(stack_records([]))
        with pytest.raises(DimensionMismatch, match="v2"):
            CorpusIndex(stack_records([EmbeddingRecord("v1", np.array([1.0, 0.0])),
                                       EmbeddingRecord("v2", np.array([1.0, 0.0, 0.0]))]))


class TestBaselineSelectors:
    def test_random_k_equals_n(self):
        rng = np.random.default_rng(3)
        recs = random_records(rng, 5, 2)
        result = random_select(recs, 5, seed=42)
        assert sorted(result.selected_ids) == sorted(r.id for r in recs)

    def test_random_reproducible(self):
        rng = np.random.default_rng(3)
        recs = random_records(rng, 20, 2)
        assert random_select(recs, 7, 1).selected_ids == random_select(recs, 7, 1).selected_ids
        assert random_select(recs, 7, 1).selected_ids != random_select(recs, 7, 2).selected_ids

    def test_random_k_too_large(self):
        with pytest.raises(KTooLarge):
            random_select(records_from([[1, 0]]), 2, 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_random_k_below_one(self, k):
        with pytest.raises(KTooLarge, match="k must be >= 1"):
            random_select(records_from([[1, 0], [0, 1], [1, 1]]), k, 0)

    def test_kmeans_degenerate_k_equals_n(self):
        rng = np.random.default_rng(5)
        recs = random_records(rng, 6, 2)
        result = kmeans_centroid_select(recs, 6, seed=0)
        assert sorted(result.selected_ids) == sorted(r.id for r in recs)

    def test_kmeans_two_blobs_one_rep_each(self):
        rng = np.random.default_rng(17)
        blob_a = rng.normal(loc=(-10, -10), scale=0.3, size=(15, 2))
        blob_b = rng.normal(loc=(10, 10), scale=0.3, size=(15, 2))
        recs = records_from(np.vstack([blob_a, blob_b]))
        result = kmeans_centroid_select(recs, 2, seed=1)
        sides = set()
        for ident in result.selected_ids:
            idx = int(ident[1:]) - 1
            sides.add("a" if idx < 15 else "b")
            # representative must sit inside its blob
            vec = recs[idx].vector
            center = np.array([-10, -10]) if idx < 15 else np.array([10, 10])
            assert float(np.linalg.norm(vec - center)) < 2.0
        assert sides == {"a", "b"}


@st.composite
def duplicate_heavy(draw):
    """Up to 12 records drawn from at most 3 distinct 2-d vectors, k <= N."""
    pool = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                         min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return rows, draw(st.integers(1, len(rows))), draw(st.integers(0, 2**16))


@given(duplicate_heavy())
@example(([(1, 2)] * 8 + [(5, 0), (-3, 1)], 5, 0))
@settings(max_examples=300, deadline=None)
def test_kmeans_on_duplicate_heavy_data_selects_k_distinct_ids(case):
    # the empty-cluster repair used to empty another cluster, whose centroid
    # became the NaN mean of an empty slice
    rows, k, seed = case
    recs = records_from(np.array(rows, dtype=np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids = kmeans_centroid_select(recs, k, seed).selected_ids
    assert len(ids) == len(set(ids)) == k


@st.composite
def kmeans_inputs(draw):
    """Inputs built to stress the certified k-means assignment: integer grid
    points and duplicate-heavy rows put rows at equal distances from
    centroids (which may themselves coincide, emptying a cluster), k runs up
    to N, magnitudes span 1e-3 .. 1e3, and a shared shift cancels most
    digits of |x|^2 - 2 x.c + |c|^2.  k = 1 leaves each row no other
    centroid to bound, and k = N starts every cluster with one row.  The
    block budget is the module's or one that cuts N into blocks of a few
    rows, so blocks of the product and of the literal re-score begin and
    end anywhere."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "uniform"]))
    if kind == "grid":
        x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "duplicates":
        pool = rng.integers(-3, 4, size=(draw(st.integers(1, 3)), d)).astype(np.float64)
        x = pool[rng.integers(0, len(pool), size=n)]
    else:
        x = rng.uniform(-1, 1, size=(n, d))
    x = x * 10.0 ** draw(st.integers(-3, 3)) + draw(st.sampled_from([0.0, 1e3, -7e2]))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    budget = draw(st.sampled_from([embedding._BLOCK_BYTES, 1, 8 * k, 24 * k * d, 40 * k]))
    return x, k, draw(st.integers(0, 2**16)), budget


class TestKmeansAssignment:
    """``kmeans_centroid_select`` against the literal N x k x d oracle."""

    @given(kmeans_inputs())
    @settings(max_examples=300, deadline=None)
    # four copies of one point and one other: two centroids coincide, so the
    # tie goes to the literal path and the emptied cluster is repaired
    @example((np.array([[1.0, 1.0]] * 4 + [[5.0, 0.0]]), 3, 0, 1))
    # seed 0 starts from (3, 1) and (0, 0); after the first update the
    # centroids are (3, 0) and (-3, 0), and the row (0, 0) lies exactly on
    # their bisector, so its bounds cannot prove its cluster and the tie
    # goes to centroid 0
    @example((np.array([[0.0, 0.0], [-6.0, 0.0], [3.0, 1.0], [3.0, -1.0]]), 2, 0,
              embedding._BLOCK_BYTES))
    # a cluster empties in the second step, and the repair moves a row
    @example((np.array([[-1.0, -3.0], [2.0, 3.0], [3.0, 2.0], [-3.0, 3.0], [1.0, 3.0],
                        [3.0, 2.0], [3.0, 0.0], [3.0, 2.0]]), 7, 27, embedding._BLOCK_BYTES))
    # no second centroid: every lower bound is inf
    @example((np.array([[0.5, 1.0], [2.0, -1.0], [-3.0, 0.25], [1.0, 1.0]]), 1, 0,
              embedding._BLOCK_BYTES))
    # one row per cluster
    @example((np.array([[0.5, 1.0], [2.0, -1.0], [-3.0, 0.25], [1.0, 1.0]]), 4, 0, 1))
    def test_matches_the_literal_oracle(self, case):
        x, k, seed, budget = case
        recs = records_from(x)
        expected = kmeans_oracle(recs, k, seed).selected_ids
        with mock.patch.object(embedding, "_BLOCK_BYTES", budget):
            assert kmeans_centroid_select(recs, k, seed).selected_ids == expected

    @given(st.integers(1, 60), st.integers(0, 3), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_k_close_to_n_leaves_many_single_member_clusters(self, n, gap, d, duplicates, seed):
        # most clusters hold one row, and with duplicates some empty and are
        # repaired: each cluster's slice of the sorted rows must still be its
        # members in ascending order
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(n, d)).astype(np.float64) if duplicates \
            else rng.normal(size=(n, d))
        recs = records_from(x)
        k = max(1, n - gap)
        assert kmeans_centroid_select(recs, k, seed).selected_ids == \
            kmeans_oracle(recs, k, seed).selected_ids

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_across_the_block_boundary(self, offset):
        # k centroids put `block` rows in one block of the product, and
        # block - 1 >= k, so N = block - 1, block, block + 1 are all legal
        k = math.isqrt(embedding._BLOCK_BYTES // 8) - 1
        block = embedding._BLOCK_BYTES // (8 * k)
        rng = np.random.default_rng(block + offset)
        x = rng.integers(-3, 4, size=(block + offset, 3)).astype(np.float64)
        recs = records_from(x)
        assert kmeans_centroid_select(recs, k, 5).selected_ids == \
            kmeans_oracle(recs, k, 5).selected_ids

    @pytest.mark.parametrize("kind", ["clusters", "duplicates"])
    def test_matches_the_literal_oracle_at_width_64(self, kind):
        # the module's budget holds the whole matrix in one block; 8 k 300
        # cuts it in half, and 8 k 257 leaves a short last block
        rng = np.random.default_rng(64)
        n, d, k = 600, 64, 48
        if kind == "clusters":
            centers = rng.normal(scale=4.0, size=(60, d))
            x = centers[rng.integers(0, 60, n)] + rng.normal(size=(n, d))
        else:  # rows at equal distances from centroids, which may coincide
            pool = rng.integers(-2, 3, size=(70, d)).astype(np.float64)
            x = pool[rng.integers(0, 70, n)]
        recs = records_from(x)
        expected = kmeans_oracle(recs, k, 7).selected_ids
        for budget in (embedding._BLOCK_BYTES, 8 * k * 300, 8 * k * 257):
            with mock.patch.object(embedding, "_BLOCK_BYTES", budget):
                assert kmeans_centroid_select(recs, k, 7).selected_ids == expected

    def test_matches_the_literal_oracle_at_width_384_far_from_the_origin(self):
        # a shift of 1e3 cancels about six digits of |x|^2 - 2 x.c + |c|^2
        rng = np.random.default_rng(384)
        n, d, k = 400, 384, 16
        centers = rng.normal(size=(20, d))
        x = centers[rng.integers(0, 20, n)] + 0.5 * rng.normal(size=(n, d)) + 1e3
        recs = records_from(x)
        assert kmeans_centroid_select(recs, k, 3).selected_ids == \
            kmeans_oracle(recs, k, 3).selected_ids

    def test_ties_take_the_literal_path_and_empty_clusters_are_repaired(self):
        literal_rows = []
        real = embedding._literal_nearest

        def spy(x, centroids):
            literal_rows.append(len(x))
            return real(x, centroids)

        # seed 0 starts from two copies of (1, 1): their rows tie, and the
        # second copy's cluster empties in the first step
        recs = records_from([[1.0, 1.0]] * 4 + [[5.0, 0.0]] * 2 + [[0.0, 0.0]])
        with mock.patch.object(embedding, "_literal_nearest", spy):
            got = kmeans_centroid_select(recs, 3, 0).selected_ids
        assert sum(literal_rows) > 0
        assert got == kmeans_oracle(recs, 3, 0).selected_ids
        assert len(set(got)) == 3

    def test_later_steps_re_score_only_the_rows_their_bounds_cannot_place(self):
        rescored = []
        real = embedding._assign_rows

        def spy(x, x_sq, x_norms, centroids, rows, *rest):
            rescored.append(len(x) if rows is None else len(rows))
            return real(x, x_sq, x_norms, centroids, rows, *rest)

        # eight tight blobs far apart, and k = 8
        rng = np.random.default_rng(1)
        centers = rng.normal(scale=100.0, size=(8, 3))
        x = centers[rng.integers(0, 8, 400)] + rng.normal(size=(400, 3))
        recs = records_from(x)
        with mock.patch.object(embedding, "_assign_rows", spy):
            got = kmeans_centroid_select(recs, 8, 2).selected_ids
        assert got == kmeans_oracle(recs, 8, 2).selected_ids
        assert rescored[0] == 400 and len(rescored) > 5
        assert max(rescored[1:]) < 400
        assert sum(rescored[3:]) < 400 * (len(rescored) - 3) / 4

    @staticmethod
    def stale_rows(upper, lower, assign, centroids):
        """``_widen_bounds`` after a step in which no centroid moved."""
        none = np.array([], dtype=np.intp)
        return embedding._widen_bounds(np.array(upper), np.array(lower), np.array(assign), none,
                                       centroids[none], centroids).tolist()

    def test_bounds_within_the_relative_rounding_margin_of_a_tie_are_re_scored(self):
        # x = 0 at d = 64; centroid 0 at squared distance exactly 1, centroid
        # 1 at exactly (1 + 2^-48)^2 = 1 + 64u (u = 2^-53) in row 0, and at
        # 4 in row 1.  The literal distances of d terms may err by about
        # (d + 2)u each, so row 0's exact bounds cannot prove centroid 0;
        # only the factor rho of the skip test, not tau, sees that
        centroids = np.zeros((2, 64))
        centroids[0, 0] = 1.0
        near = 1.0 + 2.0**-48
        assert self.stale_rows([1.0, 1.0], [near, 2.0], [0, 0], centroids) == [0]

    def test_bounds_within_the_absolute_rounding_margin_of_a_tie_are_re_scored(self):
        # x = 0 at d = 4 and eta = 2^-1074.  Each entry of centroid 1 squares
        # to just above eta / 2 and of centroid 0 to just below 1.5 eta, and
        # both underflow to eta: the literal distances tie at 4 eta, so the
        # literal step puts x in cluster 0, though exactly it lies nearer
        # centroid 1 (2 eta against 6 eta).  Bounds that are exact but for
        # rounding prove centroid 1 except for the term tau of the skip test
        # (rho is no help this far below the normal range)
        a = math.nextafter(math.ldexp(math.sqrt(0.5), -537), math.inf)
        b = math.nextafter(math.ldexp(math.sqrt(1.5), -537), 0.0)
        centroids = np.array([[b] * 4, [-a] * 4])
        x = np.zeros((1, 4))
        assert np.square(x - centroids).sum(axis=1).tolist() == [4 * 5e-324] * 2
        assert embedding._literal_nearest(x, centroids).tolist() == [0]
        # the exact squared distances, in units of eta
        assert [float(4 * Fraction(v) ** 2 / Fraction(5e-324)) for v in (b, a)] == \
            pytest.approx([6.0, 2.0])
        # 2b and 2a are the exact distances, as 4 v^2 = (2v)^2
        assert self.stale_rows([2 * a], [2 * b], [1], centroids) == [0]

    def test_a_tie_within_the_far_centroids_rounding_bound_is_scored_literally(self):
        # centroid 0 at the origin, 1 and 2 at (1, +-2^-23); row 0 at
        # (1, 2^-25) and row 1 at (1, 2^-23).  Every value that the step forms
        # is exact, so its approximations are the exact squared distances:
        # 9 and 25 units of 2^-50 in row 0, a gap of 128u (u = 2^-53), and 0
        # and 64 units in row 1, a gap of 512u.  A far centroid's
        # approximation may err, in another summation order, by
        # 4(d + 8)u(|x| + |c|)^2 = 160u, so row 0's gap proves nothing and
        # only row 1 is certified.  Taken at the centroid at the origin, the
        # bound would be 40u, and a certificate that it gave row 0 would
        # rest on the rounding that this product happened to do
        far = 2.0**-23
        centroids = np.array([[0.0, 0.0], [1.0, far], [1.0, -far]])
        x = np.array([[1.0, 2.0**-25], [1.0, far]])
        assert (np.square(x[:, None] - centroids[1:]).sum(axis=2) / 2.0**-50).tolist() == \
            [[9.0, 25.0], [0.0, 64.0]]
        x_sq, x_norms = embedding._sq_norms(x)
        assign = np.zeros(2, dtype=np.intp)
        upper, lower = np.empty(2), np.empty(2)
        literal = []
        real = embedding._literal_nearest

        def spy(rows, cents):
            literal.extend(rows.tolist())
            return real(rows, cents)

        with mock.patch.object(embedding, "_literal_nearest", spy):
            embedding._assign_rows(x, x_sq, x_norms, centroids, None, np.empty((2, 3)),
                                   assign, upper, lower)
        assert assign.tolist() == embedding._literal_nearest(x, centroids).tolist() == [1, 1]
        assert literal == [x[0].tolist()]
        assert upper[0] == np.inf and np.isfinite(upper[1])

    def test_peak_memory_stays_far_below_the_distance_tensor(self):
        # the literal N x k x d float64 tensor would be 410 MB here
        rng = np.random.default_rng(0)
        recs = embedding.EmbeddingRows(rng.normal(size=(4000, 64)),
                                       tuple(f"v{i}" for i in range(4000)))
        tracemalloc.start()
        try:
            kmeans_centroid_select(recs, 200, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@pytest.mark.parametrize("query_row", [0, 1])
def test_huge_finite_vectors_warn_nothing_and_match_the_oracles(query_row):
    # squares of entries near 1e200 overflow to inf: retrieval and k-means
    # must handle that without a RuntimeWarning and still agree with the
    # literal oracles, whose own overflow warnings are silenced
    rng = np.random.default_rng(31)
    x = rng.normal(size=(24, 4))
    x[::2] *= 1e200
    q = x[query_row]
    recs = records_from(x)
    with np.errstate(all="ignore"):
        order = np.argsort(np.linalg.norm(x - q, axis=1), kind="stable")
        expected = [kmeans_oracle(recs, k, 3).selected_ids for k in (1, 5, 24)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = CorpusIndex(recs)
        for k in range(1, len(x) + 1):
            assert top_k_by_distance(q, index, k) == [f"v{i + 1}" for i in order[:k]]
        assert [kmeans_centroid_select(recs, k, 3).selected_ids for k in (1, 5, 24)] == expected


def test_huge_finite_vectors_in_one_block_warn_nothing_and_match_the_oracle():
    # every row is a query, in one block
    rng = np.random.default_rng(31)
    x = rng.normal(size=(24, 4))
    x[::2] *= 1e200
    with np.errstate(all="ignore"):
        orders = [np.argsort(np.linalg.norm(x - q, axis=1), kind="stable") for q in x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = CorpusIndex(records_from(x))
        for k in range(1, len(x) + 1):
            for q, rows, order in zip(x, index.candidates(x, k), orders):
                assert top_k_by_distance(q, index, k, rows) == [f"v{i + 1}" for i in order[:k]]


@pytest.mark.parametrize("bad_id", [5, None, ("v1",)])
def test_embedding_record_id_must_be_a_string(bad_id):
    with pytest.raises(InvariantViolation, match="id must be a string"):
        EmbeddingRecord(bad_id, np.ones(2))


def test_rows_with_a_repeated_id_are_refused():
    # unchecked, top_k_by_distance([1, 0], CorpusIndex(rows), 2) gave ['a', 'a']
    with pytest.raises(InvariantViolation, match="'a' repeats"):
        EmbeddingRows(np.eye(2), ["a", "a"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rows_with_a_non_finite_value_are_refused(bad):
    # unchecked, greedy_diversity_select(rows, 3) picked the NaN row b second
    with pytest.raises(InvariantViolation, match="embedding record b: non-finite"):
        EmbeddingRows(np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                      ["a", "b", "c", "d"])


@pytest.mark.parametrize("bad_id", ["", "a b", 5])
def test_rows_with_a_bad_id_are_refused(bad_id):
    with pytest.raises(InvariantViolation, match="embedding record id must be"):
        EmbeddingRows(np.eye(2), ["a", bad_id])


@pytest.mark.parametrize("bad_id", ["", " a", "a b", "a\nb", "\x1c", " ", "\xa0", "\u3000",
                                    5, None, b"a"])
def test_rows_name_the_first_bad_id_as_check_id_does(bad_id):
    with pytest.raises(InvariantViolation) as expected:
        check_id("embedding record", bad_id)
    with pytest.raises(InvariantViolation) as got:
        EmbeddingRows(np.eye(3), ["a", bad_id, "b c"])
    assert str(got.value) == str(expected.value)


def test_rows_refuse_every_whitespace_character_and_no_other():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    for c in spaces:
        with pytest.raises(InvariantViolation, match="no whitespace"):
            EmbeddingRows(np.eye(2), ["a", f"b{c}c"])
    others = [c for c in map(chr, range(1 << 16)) if not c.isspace()]
    assert EmbeddingRows(np.zeros((len(others), 1)), others).ids == tuple(others)


def test_rows_of_no_values_are_refused():
    # unchecked, the index's tiles and the selectors' blocks divided by the width
    with pytest.raises(DimensionMismatch, match="record a: vector must be 1-d and non-empty"):
        EmbeddingRows(np.empty((2, 0)), ["a", "b"])
    assert len(EmbeddingRows(np.empty((0, 0)), [])) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                          st.sampled_from([np.nan, np.inf, -np.inf])), min_size=1, max_size=4))
def test_the_first_row_with_a_non_finite_value_is_named(n, d, seed, bad):
    # rows of huge finite values, whose squared norms overflow too, go to
    # the same per-entry check and pass it
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * np.where(rng.random(n) < 0.5, 1e200, 1.0)[:, None]
    for row, col, value in bad:
        x[row % n, col % d] = value
    first = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])  # the rule of the full scan
    with pytest.raises(InvariantViolation) as exc:
        EmbeddingRows(x, [f"r{i}" for i in range(n)])
    assert str(exc.value) == f"embedding record r{first}: non-finite entries"


def test_rows_of_huge_finite_values_load_with_infinite_squared_norms():
    x = np.array([[1e200, -1e200], [-1e200, 1.0], [0.5, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = EmbeddingRows(x, ["a", "b", "c"])
    assert rows.matrix.tobytes() == x.tobytes()
    assert rows.sq_norms.tolist() == [np.inf, np.inf, 0.3125]
    assert rows.norms.tolist() == [np.inf, np.inf, np.sqrt(0.3125)]


def test_the_index_takes_the_norms_of_its_rows_and_holds_no_id_map():
    rows = random_records(np.random.default_rng(2), 30, 5)
    with mock.patch.object(embedding, "_sq_norms", wraps=embedding._sq_norms) as sq_norms:
        index = CorpusIndex(rows)
    sq_norms.assert_not_called()
    assert index.sq_norms is rows.sq_norms and index.norms is rows.norms
    assert not hasattr(index, "by_id")
    for q, cand in zip(rows.matrix[:3], index.candidates(rows.matrix[:3], 4)):
        ids = top_k_by_distance(q, index, 4, cand)
        assert [rows.ids[i] for i in index.rows_of(ids, cand)] == ids


def test_rows_whose_sum_overflows_are_finite():
    x = np.full((3, 2), 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert EmbeddingRows(x, ["a", "b", "c"]).matrix.tobytes() == x.tobytes()


def test_embeddings_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    recs = random_records(rng, 4, 3)
    path = tmp_path / "emb.jsonl"
    write_embeddings(recs, str(path))
    loaded = read_embeddings(str(path))
    assert [r.id for r in loaded] == [r.id for r in recs]
    for a, b in zip(loaded, recs):
        np.testing.assert_allclose(a.vector, b.vector)


def test_write_selection_header(tmp_path):
    import json

    recs = records_from([[1, 0], [0, 1]])
    result = greedy_diversity_select(recs, 2, keep_trace=True)
    path = tmp_path / "sel.jsonl"
    write_selection(result, str(path), {"algorithm": "greedy", "k": 2, "seed": 0})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["meta"]["k"] == 2
    assert header["meta"]["count"] == 2
    assert [json.loads(l)["id"] for l in lines[1:]] == ["v1", "v2"]
