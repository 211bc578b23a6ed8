import base64
import json

import pytest
from helpers import set_api_key

from rankkit.backends import (
    HttpBackend,
    IdentityBackend,
    OracleBackend,
    RetryPolicy,
    ReverseBackend,
    ScriptedBackend,
    call_with_retries,
    script_to_messages,
)
from rankkit.errors import BackendError, ConfigError, MissingModality, ScriptExhausted, TransportError
from rankkit.prompts import build_listwise_prompt, build_pairwise_prompt
from rankkit.types import Document, Query

Q = Query(id="q1", text="anything")
DOCS = [Document(id=f"d{i}", text=f"passage {i}") for i in range(1, 4)]
LISTWISE = build_listwise_prompt(Q, DOCS)


class TestMocks:
    def test_identity(self):
        assert IdentityBackend().complete(LISTWISE) == "[1] > [2] > [3]"

    def test_reverse(self):
        assert ReverseBackend().complete(LISTWISE) == "[3] > [2] > [1]"

    def test_reverse_pair(self):
        two = build_listwise_prompt(Q, DOCS[:2])
        assert ReverseBackend().complete(two) == "[2] > [1]"

    def test_oracle_sorts_by_grade(self):
        grades = {("q1", "d1"): 1, ("q1", "d2"): 3, ("q1", "d3"): 0}
        assert OracleBackend(grades).complete(LISTWISE) == "[2] > [1] > [3]"

    def test_oracle_ties_keep_presentation_order(self):
        assert OracleBackend({}).complete(LISTWISE) == "[1] > [2] > [3]"

    def test_oracle_pairwise(self):
        grades = {("q1", "d1"): 2, ("q1", "d3"): 1}
        backend = OracleBackend(grades)
        assert backend.complete(build_pairwise_prompt(Q, DOCS[0])) == "Yes"
        assert backend.complete(build_pairwise_prompt(Q, DOCS[1])) == "No"
        # grade 1 is the lowest grade answered relevant
        assert backend.complete(build_pairwise_prompt(Q, DOCS[2])) == "Yes"

    def test_scripted_replay_and_exhaustion(self):
        backend = ScriptedBackend(["[1] > [2] > [3]"])
        assert backend.complete(LISTWISE) == "[1] > [2] > [3]"
        with pytest.raises(ScriptExhausted):
            backend.complete(LISTWISE)


class FlakyBackend:
    supports_images = False
    max_candidates_hint = None

    def __init__(self, failures, response="[1] > [2] > [3]"):
        self.failures = failures
        self.response = response
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("boom")
        return self.response


class TestRetries:
    def test_recovers_after_transient_failures(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, sleep=sleeps.append)
        backend = FlakyBackend(failures=3)
        assert call_with_retries(backend, LISTWISE, policy) == "[1] > [2] > [3]"
        assert backend.calls == 4
        assert len(sleeps) == 3

    def test_backoff_grows_exponentially(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.0, sleep=sleeps.append)
        call_with_retries(FlakyBackend(failures=4), LISTWISE, policy)
        assert sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _: None)
        backend = FlakyBackend(failures=99)
        with pytest.raises(BackendError):
            call_with_retries(backend, LISTWISE, policy)
        assert backend.calls == 5

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, jitter=0.1)
        for attempt in range(4):
            base = 2.0**attempt
            for _ in range(20):
                d = policy.delay(attempt)
                assert base * 0.9 <= d <= base * 1.1


class FakeSession:
    """Stands in for ``backends.HttpTransport``: each post answers with the
    next reply body, or raises it if it is an exception."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, body, headers):
        self.requests.append({"data": json.loads(body), "headers": headers})
        resp = self.responses.pop(0)
        if isinstance(resp, Exception):
            raise resp
        return resp


def reply_body(payload):
    return json.dumps(payload).encode()


def completion(content):
    return reply_body({"choices": [{"message": {"content": content}}]})


class TestHttpBackend:
    def test_request_shape(self, monkeypatch):
        monkeypatch.setenv("RERANK_API_KEY", "sekrit")
        session = FakeSession([completion("[1] > [2] > [3]")])
        backend = HttpBackend(endpoint="https://api.example/v1/chat", model="ranker-2b",
                              session=session)
        assert backend.complete(LISTWISE) == "[1] > [2] > [3]"
        req = session.requests[0]
        assert req["headers"]["Authorization"] == "Bearer sekrit"
        body = req["data"]
        assert body["model"] == "ranker-2b"
        assert body["temperature"] == 0
        assert body["messages"][0] == {"role": "system", "content": LISTWISE.turns[0].text}

    @pytest.mark.parametrize("key", ["k\n", "k\r", "k\x00", "k\x7f", "k\tk", "k\u00e9"])
    def test_a_key_with_a_control_or_non_ascii_character_raises_at_construction(
            self, monkeypatch, key):
        set_api_key(monkeypatch, key)
        with pytest.raises(ConfigError, match=r"\$RERANK_API_KEY") as exc:
            HttpBackend(endpoint="http://x", model="m", session=FakeSession([]))
        assert key not in str(exc.value)

    def test_each_call_checks_the_key_it_reads(self, monkeypatch):
        monkeypatch.setenv("RERANK_API_KEY", "good key-1")
        session = FakeSession([completion("[1] > [2] > [3]")])
        backend = HttpBackend(endpoint="http://x", model="m", session=session)
        monkeypatch.setenv("RERANK_API_KEY", "bad\n")
        with pytest.raises(ConfigError, match=r"\$RERANK_API_KEY"):
            backend.complete(LISTWISE)
        assert session.requests == []
        monkeypatch.setenv("RERANK_API_KEY", "good key-1")
        assert backend.complete(LISTWISE) == "[1] > [2] > [3]"
        assert session.requests[0]["headers"]["Authorization"] == "Bearer good key-1"

    def test_a_non_transport_exception_propagates_without_retries(self):
        sleeps = []
        session = FakeSession([TypeError("bad argument"), completion("[1] > [2] > [3]")])
        backend = HttpBackend(endpoint="http://x", model="m", session=session)
        with pytest.raises(TypeError, match="bad argument"):
            call_with_retries(backend, LISTWISE, RetryPolicy(sleep=sleeps.append))
        assert len(session.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("payload", [
        {"choices": None},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": [{"type": "text", "text": "[1] > [2]"}]}}]},
        [1],
    ])
    def test_a_reply_without_string_content_is_a_backend_error(self, payload):
        backend = HttpBackend(endpoint="http://x", model="m",
                              session=FakeSession([reply_body(payload)]))
        with pytest.raises(BackendError, match="malformed completion response"):
            backend.complete(LISTWISE)

    @pytest.mark.parametrize("settings,key", [
        ({"endpoint": "localhost:8000/v1"}, "endpoint"),
        ({"endpoint": "ftp://x"}, "endpoint"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": float("nan")}, "timeout"),
        ({"timeout": float("inf")}, "timeout"),
        ({"endpoint": "http://"}, "endpoint"),
        ({"endpoint": "http:///v1"}, "endpoint"),
        ({"endpoint": "http://h:x/v1"}, "endpoint"),
        ({"endpoint": "http://h:70000/v1"}, "endpoint"),
        ({"endpoint": "http://h/v 1"}, "endpoint"),
        ({"endpoint": "http://user:pw@h/v1"}, "endpoint"),
    ])
    def test_bad_settings_are_a_config_error_before_any_request(self, settings, key):
        session = FakeSession([])
        with pytest.raises(ConfigError, match=key):
            HttpBackend(**{"endpoint": "http://x", "model": "m", "session": session, **settings})
        assert session.requests == []


class TestMessageSerialization:
    def test_local_image_becomes_data_uri(self, tmp_path):
        img = tmp_path / "chart.png"
        img.write_bytes(b"\x89PNG fake")
        doc = Document(id="h1", text="quarterly revenue", image_ref=str(img))
        script = build_pairwise_prompt(Q, doc, mode="multimodal")
        messages = script_to_messages(script)
        parts = messages[1]["content"]
        assert parts[0]["type"] == "text"
        url = parts[1]["image_url"]["url"]
        assert url.startswith("data:image/png;base64,")
        assert base64.b64decode(url.split(",", 1)[1]) == b"\x89PNG fake"

    def test_unreadable_local_image_is_missing_modality_naming_the_path(self, tmp_path):
        ref = str(tmp_path / "gone.png")
        doc = Document(id="h1", text="quarterly revenue", image_ref=ref)
        with pytest.raises(MissingModality, match="gone.png") as exc:
            script_to_messages(build_pairwise_prompt(Q, doc, mode="multimodal"))
        assert not isinstance(exc.value, BackendError)

    def test_remote_image_passes_through(self):
        doc = Document(id="h1", image_ref="https://cdn.example/x.jpg")
        script = build_pairwise_prompt(Q, doc, mode="multimodal")
        parts = script_to_messages(script)[1]["content"]
        assert parts[1]["image_url"]["url"] == "https://cdn.example/x.jpg"

    def test_text_only_turn_is_plain_string(self):
        messages = script_to_messages(LISTWISE)
        assert all(isinstance(m["content"], str) for m in messages)
