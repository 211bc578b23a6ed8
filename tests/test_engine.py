import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankkit.backends import (
    HttpBackend,
    IdentityBackend,
    OracleBackend,
    RetryPolicy,
    ReverseBackend,
    ScriptedBackend,
)
from rankkit.engine import (
    RerankReport,
    WindowConfig,
    map_ordered,
    rerank_listwise,
    rerank_many,
    rerank_pairwise,
    window_starts,
)
from rankkit.errors import (
    BackendError,
    InvariantViolation,
    MissingDoc,
    MissingModality,
    TransportError,
)
from rankkit.types import CandidateList, Document, Query

NO_SLEEP = RetryPolicy(sleep=lambda _: None)


def reply(content):
    """A chat-completions reply body carrying ``content``."""
    return {"choices": [{"message": {"content": content}}]}


class ReplySession:
    """Stands in for ``requests.Session``: each post answers 200 with the next body."""

    def __init__(self, bodies):
        self.bodies = list(bodies)

    def post(self, url, **kwargs):
        body = self.bodies.pop(0)
        return SimpleNamespace(status_code=200, json=lambda: body)


def make_fixture(n, qid="q1"):
    docs = {f"d{i}": Document(id=f"d{i}", text=f"passage number {i}") for i in range(1, n + 1)}
    cands = CandidateList(qid, tuple(f"d{i}" for i in range(1, n + 1)))
    return Query(id=qid, text="find the thing"), cands, docs


class TestWindowSchedule:
    def test_hundred_docs_nine_windows(self):
        starts = window_starts(100, WindowConfig(20, 10))
        assert starts == [80, 70, 60, 50, 40, 30, 20, 10, 0]

    def test_degenerate_single_window(self):
        assert window_starts(15, WindowConfig(20, 10)) == [0]
        assert window_starts(20, WindowConfig(20, 10)) == [0]

    def test_ragged_tail_clamps_to_front(self):
        assert window_starts(25, WindowConfig(20, 10)) == [5, 0]

    def test_config_invariant(self):
        with pytest.raises(InvariantViolation):
            WindowConfig(window_size=10, stride=11)
        with pytest.raises(InvariantViolation):
            WindowConfig(window_size=10, stride=0)

    def test_a_window_of_one_is_rejected(self):
        # a one-doc window cannot be ranked, so every longer list would fail
        with pytest.raises(InvariantViolation, match="window_size"):
            WindowConfig(window_size=1, stride=1)


class TestRerankListwise:
    def test_reverse_backend_single_window(self):
        q, cands, docs = make_fixture(4)
        out = rerank_listwise(q, cands, docs, ReverseBackend(),
                              window=WindowConfig(4, 2), retry=NO_SLEEP)
        assert out.doc_ids == ("d4", "d3", "d2", "d1")

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (5, 5), (20, 10)])
    def test_identity_backend_preserves_order(self, window, stride):
        q, cands, docs = make_fixture(13)
        out = rerank_listwise(q, cands, docs, IdentityBackend(),
                              window=WindowConfig(window, stride), retry=NO_SLEEP)
        assert out.doc_ids == cands.doc_ids

    def test_oracle_backend_sorts_by_grade_across_windows(self):
        q, cands, docs = make_fixture(30)
        grades = {("q1", f"d{i}"): i for i in range(1, 31)}  # d30 best
        out = rerank_listwise(q, cands, docs, OracleBackend(grades),
                              window=WindowConfig(10, 5), retry=NO_SLEEP)
        # the sliding window promotes the global top into the final front window
        assert out.doc_ids[:5] == ("d30", "d29", "d28", "d27", "d26")

    def test_single_window_one_backend_call(self):
        q, cands, docs = make_fixture(8)
        report = RerankReport()
        rerank_listwise(q, cands, docs, IdentityBackend(),
                        window=WindowConfig(20, 10), retry=NO_SLEEP, report=report)
        assert report.backend_calls == 1

    def test_singleton_candidate_list_needs_no_backend(self):
        q, cands, docs = make_fixture(1)
        backend = ScriptedBackend([])  # would raise if consulted
        out = rerank_listwise(q, cands, docs, backend, retry=NO_SLEEP)
        assert out.doc_ids == ("d1",)

    @pytest.mark.parametrize("mode,doc", [
        ("text", Document(id="d1", image_ref="d1.png", modality="image")),
        ("multimodal", Document(id="d1", text="passage number 1")),
    ])
    def test_singleton_follows_the_modality_rule_without_a_backend_call(self, mode, doc):
        q, cands, _ = make_fixture(1)
        backend = ScriptedBackend([])
        with pytest.raises(MissingModality, match="doc d1 has no"):
            rerank_listwise(q, cands, {"d1": doc}, backend, mode=mode, retry=NO_SLEEP)
        assert backend.calls == []

    def test_singleton_missing_from_corpus_fails_before_any_backend_call(self):
        q, cands, _ = make_fixture(1)
        backend = ScriptedBackend([])
        with pytest.raises(MissingDoc, match="d1"):
            rerank_listwise(q, cands, {}, backend, retry=NO_SLEEP)
        assert backend.calls == []

    def test_missing_doc_in_the_front_window_fails_before_any_backend_call(self):
        q, cands, docs = make_fixture(30)
        del docs["d1"]
        backend = ScriptedBackend([])
        with pytest.raises(MissingDoc, match="d1"):
            rerank_listwise(q, cands, docs, backend, window=WindowConfig(10, 5), retry=NO_SLEEP)
        assert backend.calls == []

    def test_image_only_doc_in_the_front_window_fails_before_any_backend_call(self):
        q, cands, docs = make_fixture(30)
        docs["d1"] = Document(id="d1", image_ref="d1.png", modality="image")
        backend = ScriptedBackend([])
        with pytest.raises(MissingModality, match="doc d1 has no text"):
            rerank_listwise(q, cands, docs, backend, window=WindowConfig(10, 5), mode="text",
                            retry=NO_SLEEP)
        assert backend.calls == []

    def test_each_candidate_is_looked_up_once_per_query(self):
        class CountingDocs(dict):
            lookups = 0

            def __getitem__(self, key):
                CountingDocs.lookups += 1
                return super().__getitem__(key)

        q, cands, docs = make_fixture(100)
        out = rerank_listwise(q, cands, CountingDocs(docs), IdentityBackend(),
                              window=WindowConfig(20, 10), retry=NO_SLEEP)
        assert out.doc_ids == cands.doc_ids
        # nine overlapping windows, but one lookup per candidate
        assert CountingDocs.lookups == 100

    def test_malformed_output_is_repaired(self):
        q, cands, docs = make_fixture(3)
        backend = ScriptedBackend(["[2] > [2] > [1]"])
        report = RerankReport()
        out = rerank_listwise(q, cands, docs, backend,
                              window=WindowConfig(3, 1), retry=NO_SLEEP, report=report)
        assert out.doc_ids == ("d2", "d1", "d3")
        assert report.repair_count == 2

    def test_unparseable_output_retried_then_falls_back(self):
        q, cands, docs = make_fixture(3)
        backend = ScriptedBackend(["I cannot rank these.", "still refusing"])
        report = RerankReport()
        out = rerank_listwise(q, cands, docs, backend,
                              window=WindowConfig(3, 1), retry=NO_SLEEP, report=report)
        assert out.doc_ids == cands.doc_ids
        assert report.fallbacks == 1
        # the retry prompt carries the bad response and a reminder
        retry_prompt = backend.calls[1]
        assert retry_prompt.turns[-2].text == "I cannot rank these."
        assert "could not be parsed" in retry_prompt.turns[-1].text

    def test_parse_retry_can_succeed(self):
        q, cands, docs = make_fixture(3)
        backend = ScriptedBackend(["no ranking here", "[3] > [1] > [2]"])
        out = rerank_listwise(q, cands, docs, backend,
                              window=WindowConfig(3, 1), retry=NO_SLEEP)
        assert out.doc_ids == ("d3", "d1", "d2")

    def test_backend_error_carries_window_index(self):
        class DeadBackend:
            supports_images = False
            max_candidates_hint = None

            def complete(self, prompt):
                raise TransportError("down")

        q, cands, docs = make_fixture(5)
        with pytest.raises(BackendError) as exc:
            rerank_listwise(q, cands, docs, DeadBackend(),
                            window=WindowConfig(3, 2),
                            retry=RetryPolicy(max_attempts=2, sleep=lambda _: None))
        assert exc.value.window_index == 0

    def test_a_dead_backend_on_the_parse_retry_is_an_error_not_a_fallback(self):
        class ProseThenDead:
            calls = 0

            def complete(self, prompt):
                self.calls += 1
                if self.calls == 1:
                    return "I cannot rank these."
                raise TransportError("down")

        q, cands, docs = make_fixture(3)
        backend = ProseThenDead()
        report = RerankReport()
        with pytest.raises(BackendError) as exc:
            rerank_listwise(q, cands, docs, backend, window=WindowConfig(3, 1),
                            retry=RetryPolicy(max_attempts=2, sleep=lambda _: None),
                            report=report)
        assert exc.value.window_index == 0
        assert backend.calls == 3  # the reply, then two attempts at the retry
        assert (report.parse_retries, report.fallbacks) == (1, 0)

    def test_missing_doc(self):
        q, cands, docs = make_fixture(3)
        del docs["d2"]
        with pytest.raises(MissingDoc):
            rerank_listwise(q, cands, docs, IdentityBackend(), retry=NO_SLEEP)

    @given(st.integers(2, 25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_output_is_permutation_under_adversarial_backend(self, n, data):
        q, cands, docs = make_fixture(n)
        raw = data.draw(st.text(
            alphabet=st.sampled_from(list("[]0123456789> ab")), max_size=40))
        window = data.draw(st.integers(2, n + 3))
        stride = data.draw(st.integers(1, window))
        n_windows = len(window_starts(n, WindowConfig(window, stride)))
        # two responses per window: the raw string, then a retry answer
        backend = ScriptedBackend([raw, raw] * n_windows)
        out = rerank_listwise(q, cands, docs, backend,
                              window=WindowConfig(window, stride), retry=NO_SLEEP)
        assert sorted(out.doc_ids) == sorted(cands.doc_ids)


class TestRerankPairwise:
    def test_stable_partition(self):
        q, cands, docs = make_fixture(3)
        backend = ScriptedBackend(["No", "Yes", "Yes"])
        out = rerank_pairwise(q, cands, docs, backend, retry=NO_SLEEP)
        assert out.doc_ids == ("d2", "d3", "d1")

    def test_all_no_keeps_input_order(self):
        q, cands, docs = make_fixture(4)
        out = rerank_pairwise(q, cands, docs, ReverseBackend(), retry=NO_SLEEP)
        assert out.doc_ids == cands.doc_ids

    def test_text_mode_needs_text_and_sends_no_image(self):
        q, cands, docs = make_fixture(2)
        docs["d1"] = Document(id="d1", text="passage number 1", image_ref="d1.png",
                              modality="hybrid")
        backend = ScriptedBackend(["Yes", "No"])
        rerank_pairwise(q, cands, docs, backend, mode="text", retry=NO_SLEEP)
        assert [p.turns[1].image_refs for p in backend.calls] == [(), ()]
        docs["d2"] = Document(id="d2", image_ref="d2.png", modality="image")
        backend = ScriptedBackend(["Yes"])
        with pytest.raises(MissingModality, match="doc d2 has no text for text-mode ranking"):
            rerank_pairwise(q, cands, docs, backend, mode="text", retry=NO_SLEEP)
        assert backend.calls == []

    def test_multimodal_mode_needs_an_image_and_sends_it(self):
        q, cands, docs = make_fixture(1)
        backend = ScriptedBackend(["Yes"])
        with pytest.raises(MissingModality, match="doc d1 has no image_ref"):
            rerank_pairwise(q, cands, docs, backend, mode="multimodal", retry=NO_SLEEP)
        assert backend.calls == []
        docs["d1"] = Document(id="d1", image_ref="d1.png", modality="image")
        rerank_pairwise(q, cands, docs, backend, mode="multimodal", retry=NO_SLEEP)
        assert backend.calls[0].turns[1].image_refs == ("d1.png",)


class TestMapOrdered:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_results_and_failed_ids_in_input_order_each_failure_logged_once(
            self, caplog, parallelism):
        queries = [Query(id=f"q{i}", text="t") for i in range(8)]

        def fn(q):
            if int(q.id[1:]) % 3 == 1:
                raise MissingDoc(f"no docs for {q.id}")
            return q.id.upper()

        results, failed = map_ordered(fn, queries, parallelism)
        assert results == ["Q0", "Q2", "Q3", "Q5", "Q6"]
        assert failed == ["q1", "q4", "q7"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"query {qid} failed: no docs for {qid}" for qid in failed]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_an_error_that_is_not_a_rankkit_error_propagates(self, parallelism):
        def fn(q):
            raise ValueError(f"bug at {q.id}")

        with pytest.raises(ValueError, match="bug at q1"):
            map_ordered(fn, [Query(id="q1", text="t")], parallelism)

    def test_serial_calls_run_on_the_calling_thread(self):
        threads = []
        map_ordered(lambda q: threads.append(threading.get_ident()),
                    [Query(id=f"q{i}", text="t") for i in range(3)], 1)
        assert threads == [threading.get_ident()] * 3


class TestRerankMany:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_results_in_query_order_with_failures_reported(self, parallelism):
        q1, c1, docs = make_fixture(3, "q1")
        q2, c2, d2 = make_fixture(3, "q2")
        docs.update(d2)
        # an image-only doc in a text-mode run fails its own query, not the batch
        docs["img"] = Document(id="img", image_ref="img.png", modality="image")
        q3, q4 = Query(id="q3", text="find the image"), Query(id="q4", text="find d2")
        lists = {"q1": c1, "q2": CandidateList("q2", ("d1", "missing")),
                 "q3": CandidateList("q3", ("d1", "img")), "q4": CandidateList("q4", ("d2", "d3"))}
        results, failed = rerank_many([q1, q2, q3, q4], lists, docs, IdentityBackend(),
                                      retry=NO_SLEEP, parallelism=parallelism)
        assert [r.query_id for r in results] == ["q1", "q4"]
        assert failed == ["q2", "q3"]

    def test_a_candidate_list_without_its_query_fails_that_query(self, caplog):
        q1, c1, docs = make_fixture(3, "q1")
        _, c2, _ = make_fixture(3, "q2")
        results, failed = rerank_many([q1], {"q2": c2, "q1": c1}, docs, IdentityBackend(),
                                      retry=NO_SLEEP)
        assert [r.query_id for r in results] == ["q1"]
        assert failed == ["q2"]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["query q2 failed: query q2 is in the run but not in the queries"]

    def test_an_unreadable_image_fails_only_its_query(self, tmp_path):
        (tmp_path / "a.png").write_bytes(b"png")
        docs = {did: Document(id=did, image_ref=str(tmp_path / f"{did}.png"), modality="image")
                for did in ("a", "gone")}
        docs["b"] = Document(id="b", image_ref="https://cdn.example/b.png", modality="image")
        queries = [Query(id="q1", text="t"), Query(id="q2", text="t")]
        lists = {"q1": CandidateList("q1", ("a", "b")), "q2": CandidateList("q2", ("a", "gone"))}
        backend = HttpBackend(endpoint="http://x", model="m",
                              session=ReplySession([reply("[2] > [1]")]))
        results, failed = rerank_many(queries, lists, docs, backend, mode="multimodal",
                                      retry=NO_SLEEP)
        assert [r.doc_ids for r in results] == [("b", "a")]
        assert failed == ["q2"]

    @pytest.mark.parametrize("bad", [{"choices": None}, reply(None), reply(7)])
    def test_a_reply_without_string_content_fails_only_its_query(self, bad):
        q1, c1, docs = make_fixture(3, "q1")
        q2, c2, _ = make_fixture(3, "q2")
        backend = HttpBackend(endpoint="http://x", model="m",
                              session=ReplySession([bad, reply("[3] > [2] > [1]")]))
        results, failed = rerank_many([q1, q2], {"q1": c1, "q2": c2}, docs, backend,
                                      retry=NO_SLEEP)
        assert [(r.query_id, r.doc_ids) for r in results] == [("q2", ("d3", "d2", "d1"))]
        assert failed == ["q1"]

    def test_parallel_matches_serial(self):
        docs = {}
        queries = []
        lists = {}
        for i in range(6):
            q, c, d = make_fixture(10, f"q{i}")
            docs.update(d)
            queries.append(q)
            lists[q.id] = c
        grades = {(f"q{i}", f"d{j}"): j for i in range(6) for j in range(1, 11)}
        serial, _ = rerank_many(queries, lists, docs, OracleBackend(grades),
                                window=WindowConfig(4, 2), retry=NO_SLEEP, parallelism=1)
        parallel, _ = rerank_many(queries, lists, docs, OracleBackend(grades),
                                  window=WindowConfig(4, 2), retry=NO_SLEEP, parallelism=4)
        assert [r.doc_ids for r in serial] == [r.doc_ids for r in parallel]
