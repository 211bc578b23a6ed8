"""Model backends: the Backend protocol, deterministic mocks for tests and
offline pipelines, and a chat-completions HTTP adapter.

The HTTP adapter speaks the common chat-completions JSON shape: request
``{model, messages, temperature: 0}`` with multimodal content parts, response
read from ``choices[0].message.content``.  Local image files are inlined as
base64 data URIs; http(s) image refs pass through as-is.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import mimetypes
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

from .errors import BackendError, ConfigError, MissingModality, ScriptExhausted, TransportError
from .parsing import render_ranking
from .prompts import PromptScript
from .types import Permutation

logger = logging.getLogger(__name__)

API_KEY_ENV = "RERANK_API_KEY"


class Backend(Protocol):
    def complete(self, prompt: PromptScript) -> str: ...


@dataclass
class RetryPolicy:
    """Exponential backoff for transport failures."""

    max_attempts: int = 5
    base_delay: float = 1.0
    factor: float = 2.0
    jitter: float = 0.1
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int) -> float:
        d = self.base_delay * (self.factor**attempt)
        return d * (1.0 + random.uniform(-self.jitter, self.jitter))


def call_with_retries(backend: Backend, prompt: PromptScript, policy: RetryPolicy) -> str:
    last: TransportError | None = None
    for attempt in range(policy.max_attempts):
        try:
            return backend.complete(prompt)
        except TransportError as exc:
            last = exc
            if attempt + 1 < policy.max_attempts:
                delay = policy.delay(attempt)
                logger.warning("transport failure (attempt %d): %s; retrying in %.1fs",
                               attempt + 1, exc, delay)
                policy.sleep(delay)
    raise BackendError(f"backend failed after {policy.max_attempts} attempts: {last}")


# --- deterministic mocks ---


class IdentityBackend:
    """Echoes the presented order; answers yes to every relevance question."""

    def complete(self, prompt: PromptScript) -> str:
        if prompt.kind == "listwise":
            n = len(prompt.doc_ids)
            return render_ranking(Permutation(tuple(range(1, n + 1))))
        return "Yes"


class ReverseBackend:
    """Mirrors the presented order; answers no to every relevance question."""

    def complete(self, prompt: PromptScript) -> str:
        if prompt.kind == "listwise":
            n = len(prompt.doc_ids)
            return render_ranking(Permutation(tuple(range(n, 0, -1))))
        return "No"


class OracleBackend:
    """Ranks by relevance grade, read from a qrels-style grade table.

    Listwise prompts are answered by sorting the window's docs by grade
    descending (stable, so equal grades keep presentation order), pairwise
    prompts yes for a grade of 1 or more.
    """

    def __init__(self, grades: Mapping[tuple[str, str], int]):
        self.grades = dict(grades)

    def _grade(self, qid: str, did: str) -> int:
        return self.grades.get((qid, did), 0)

    def complete(self, prompt: PromptScript) -> str:
        qid = prompt.query_id
        if prompt.kind == "listwise":
            grades = [self._grade(qid, did) for did in prompt.doc_ids]
            order = sorted(range(len(grades)), key=lambda i: -grades[i])
            return render_ranking(Permutation(tuple(i + 1 for i in order)))
        (did,) = prompt.doc_ids
        return "Yes" if self._grade(qid, did) >= 1 else "No"


class ScriptedBackend:
    """Replays a fixed transcript; raises when it runs dry."""

    def __init__(self, responses: Sequence[str]):
        self.responses = list(responses)
        self.calls: list[PromptScript] = []

    def complete(self, prompt: PromptScript) -> str:
        self.calls.append(prompt)
        if not self.responses:
            raise ScriptExhausted("scripted backend has no responses left")
        return self.responses.pop(0)


# --- HTTP chat-completions adapter ---


def _image_part(ref: str) -> dict:
    if ref.startswith(("http://", "https://", "data:")):
        url = ref
    else:
        mime = mimetypes.guess_type(ref)[0] or "application/octet-stream"
        try:
            with open(ref, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise MissingModality(f"image {ref!r} cannot be read: {exc.strerror}") from exc
        url = f"data:{mime};base64,{base64.b64encode(data).decode('ascii')}"
    return {"type": "image_url", "image_url": {"url": url}}


def script_to_messages(prompt: PromptScript) -> list[dict]:
    """Serialize a PromptScript to chat-completions messages."""
    messages = []
    for turn in prompt.turns:
        if turn.image_refs:
            content: object = [{"type": "text", "text": turn.text}]
            content += [_image_part(r) for r in turn.image_refs]
        else:
            content = turn.text
        messages.append({"role": turn.role, "content": content})
    return messages


@dataclass
class HttpBackend:
    """Chat-completions client.  API key comes from $RERANK_API_KEY."""

    endpoint: str
    model: str
    timeout: float = 120.0
    session: object = None  # requests.Session-compatible; injectable for tests

    def __post_init__(self):
        if not self.endpoint.startswith(("http://", "https://")):
            raise ConfigError(
                f"endpoint must start with http:// or https://, got {self.endpoint!r}")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if self.session is None:
            import requests

            self.session = requests.Session()

    def complete(self, prompt: PromptScript) -> str:
        payload = {
            "model": self.model,
            "messages": script_to_messages(prompt),
            "temperature": 0,
        }
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        try:
            resp = self.session.post(
                self.endpoint, data=json.dumps(payload), headers=headers, timeout=self.timeout
            )
        except Exception as exc:  # connection errors, timeouts
            raise TransportError(f"request failed: {exc}") from exc
        if resp.status_code >= 500 or resp.status_code == 429:
            raise TransportError(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed completion response: content is {content!r}")
        return content
