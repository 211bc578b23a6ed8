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
from functools import partial
from typing import Callable, Mapping, Protocol, Sequence

from .errors import BackendError, ConfigError, MissingModality, ScriptExhausted, TransportError
from .parsing import render_ranking
from .prompts import PromptScript
from .types import Permutation, Value

logger = logging.getLogger(__name__)

API_KEY_ENV = "RERANK_API_KEY"


def _api_key() -> str | None:
    """$RERANK_API_KEY, which goes into a request header as it is: a key with
    a control or non-ASCII character raises ``ConfigError``, whose message
    never shows the key."""
    key = os.environ.get(API_KEY_ENV)
    if key and not (key.isascii() and key.isprintable()):
        raise ConfigError(f"${API_KEY_ENV} holds a control or non-ASCII character")
    return key


class Backend(Protocol):
    def complete(self, prompt: PromptScript) -> str: ...


class RetryPolicy(Value):
    """Exponential backoff for transport failures."""

    __slots__ = ("max_attempts", "base_delay", "factor", "jitter", "sleep")

    def __init__(self, max_attempts: int = 5, base_delay: float = 1.0, factor: float = 2.0,
                 jitter: float = 0.1, sleep: Callable[[float], None] = time.sleep):
        self._set(max_attempts, base_delay, factor, jitter, sleep)

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


def _split_url(text: str, what: str):
    """``urllib.parse.urlsplit`` of an http(s) URL with a host and a valid
    port; anything else is a ``ConfigError`` naming ``what``."""
    import urllib.parse

    if not text.startswith(("http://", "https://")):
        raise ConfigError(f"{what} must start with http:// or https://, got {text!r}")
    # http.client sends the target as it is; it would reject these per request
    if not text.isascii() or any(c <= " " or c == "\x7f" for c in text):
        raise ConfigError(f"{what} must be printable ASCII without spaces, got {text!r}")
    url = urllib.parse.urlsplit(text)
    try:
        url.port
    except ValueError as exc:
        raise ConfigError(f"{what} has a bad port: {text!r} ({exc})") from None
    if not url.hostname:
        raise ConfigError(f"{what} has no host: {text!r}")
    return url


def _default_port(url) -> int:
    return url.port or (443 if url.scheme == "https" else 80)


class HttpTransport:
    """Keep-alive POSTs to one endpoint over the standard library's
    ``http.client``, and the only code that knows HTTP: ``post`` returns the
    body of a 200 reply.  No reply (connection, timeout, TLS or protocol
    error), a 5xx and a 429 are a ``TransportError``, which
    ``call_with_retries`` retries; any other status is a ``BackendError``.

    Idle connections wait on a stack.  A call pops one or opens one, with
    the timeout, reads the whole response and pushes the connection back, so
    no connection serves two threads at once and no more are open than calls
    run at once.  An error drops the connection.  A reused connection that
    the server closed while it sat idle (reset or broken pipe before a status
    line) is replaced by a fresh one and the request sent once more; a
    request on a fresh connection is never sent twice.

    ``http_proxy``, ``https_proxy``, ``all_proxy`` and ``no_proxy`` are read
    once, here.  Through a proxy, an http endpoint is requested in absolute
    form and an https endpoint through a CONNECT tunnel.  TLS is verified
    against the system's trust store.
    """

    def __init__(self, endpoint: str, timeout: float):
        import http.client
        import ssl
        import urllib.parse
        import urllib.request

        url = _split_url(endpoint, "endpoint")
        origin = (url.hostname, _default_port(url))
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._target = path
        self._proxy_headers: dict[str, str] = {}
        self._address = origin
        self._tunnel = None
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            via = _split_url(proxy if "://" in proxy else f"http://{proxy}", "proxy")
            if via.scheme != "http":
                raise ConfigError(f"proxy must be an http:// URL, got {proxy!r}")
            self._address = (via.hostname, _default_port(via))
            auth = {}
            if via.username is not None:
                user = urllib.parse.unquote(via.username)
                password = urllib.parse.unquote(via.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                auth["Proxy-Authorization"] = f"Basic {token}"
            if url.scheme == "http":
                self._target = f"http://{url.netloc}{path}"
                self._proxy_headers = auth
            else:
                self._tunnel = (*origin, auth)
        if url.scheme == "https":
            context = ssl.create_default_context()
            self._connection = partial(http.client.HTTPSConnection, context=context)
        else:
            self._connection = http.client.HTTPConnection
        self._timeout = timeout
        # list.append and list.pop are atomic, so the stack needs no lock
        self._idle: list = []

    def post(self, body: bytes, headers: Mapping[str, str]) -> bytes:
        import http.client

        headers = {**self._proxy_headers, **headers}
        try:
            conn = self._idle.pop()
            reused = True
        except IndexError:
            conn = self._open()
            reused = False
        try:
            try:
                conn.request("POST", self._target, body, headers)
                resp = conn.getresponse()
            # http.client.RemoteDisconnected is a ConnectionResetError
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                conn = self._open()
                conn.request("POST", self._target, body, headers)
                resp = conn.getresponse()
            content = resp.read()
        except (OSError, http.client.HTTPException) as exc:  # connection, timeout, TLS
            conn.close()
            raise TransportError(f"request failed: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        if not resp.will_close:
            self._idle.append(conn)
        if resp.status == 200:
            return content
        if resp.status >= 500 or resp.status == 429:
            raise TransportError(f"HTTP {resp.status}")
        raise BackendError(f"HTTP {resp.status}: {content.decode('utf-8', 'replace')[:200]}")

    def _open(self):
        conn = self._connection(*self._address, timeout=self._timeout)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def close(self) -> None:
        """Close the idle connections; call when no request is in flight."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class HttpBackend(Value):
    """Chat-completions client.  API key comes from $RERANK_API_KEY, checked
    at construction and read again by each call.

    ``session``: an ``HttpTransport`` unless a test injects one.  Its
    ``post(body: bytes, headers) -> bytes`` raises every HTTP failure."""

    __slots__ = ("endpoint", "model", "timeout", "session")

    def __init__(self, endpoint: str, model: str, timeout: float = 120.0, session: object = None):
        if _split_url(endpoint, "endpoint").username is not None:
            raise ConfigError(f"endpoint must not carry user:password; the key comes "
                              f"from ${API_KEY_ENV}")
        if not 0 < timeout < math.inf:
            raise ConfigError(f"timeout must be a finite number > 0, got {timeout!r}")
        _api_key()
        session = HttpTransport(endpoint, timeout) if session is None else session
        self._set(endpoint, model, timeout, session)

    def close(self) -> None:
        """Close the session's idle connections, if it keeps any."""
        close = getattr(self.session, "close", None)
        if close is not None:
            close()

    def complete(self, prompt: PromptScript) -> str:
        payload = {
            "model": self.model,
            "messages": script_to_messages(prompt),
            "temperature": 0,
        }
        headers = {"Content-Type": "application/json"}
        key = _api_key()
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = self.session.post(json.dumps(payload).encode(), headers)
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise BackendError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed completion response: content is {content!r}")
        return content
