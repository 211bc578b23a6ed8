"""Loopback chat-completions stub for the rerank-http workload.

The reply is a pure function of the request messages and the stub's seed:
passages are ranked by how many query words they contain, ties broken by a
seeded hash of the passage text.  A seeded share of first replies is
malformed the ways real models drift (duplicate ids, out-of-range ids, prose
around the ranking, and no bracketed integer at all, which costs a parse
retry).  The stub never answers 5xx or 429: rankkit's transport retry sleeps
1 s x 2^attempt with jitter from the global ``random`` module, which would
make rerank time depend on luck rather than on rankkit.

Run as ``python3 stub.py --seed N --latency-ms MS``; it prints the port it
listens on once the socket accepts connections, then serves until killed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

RETRY_PREFIX = "Your previous response could not be parsed"
_PASSAGE = re.compile(r"^\[(\d+)\] (.*)$", re.DOTALL)

# Cumulative shares of malformed first replies, by kind.
MALFORMED = (
    (0.04, "no_ranking"),
    (0.08, "duplicates"),
    (0.12, "out_of_range"),
    (0.16, "prose"),
)


def _unit(seed: int, text: str) -> float:
    digest = hashlib.sha256(f"{seed}\x00{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def reply_kind(messages: list[dict], seed: int) -> str:
    """Which reply the stub gives to this request: 'clean' or a malformed kind."""
    last = messages[-1]["content"] if messages else ""
    if isinstance(last, str) and last.startswith(RETRY_PREFIX):
        return "clean"
    u = _unit(seed, json.dumps(messages, sort_keys=True))
    for bound, kind in MALFORMED:
        if u < bound:
            return kind
    return "clean"


def reply(messages: list[dict], seed: int) -> str:
    """Chat completion text for a listwise ranking request."""
    query = ""
    passages: list[tuple[int, str]] = []
    for m in messages:
        text = m["content"]
        if m["role"] != "user" or not isinstance(text, str):
            continue
        hit = _PASSAGE.match(text)
        if hit:
            passages.append((int(hit.group(1)), hit.group(2)))
        elif text.startswith("Search Query: "):
            query = text[len("Search Query: "):text.index(". Rank the")]
    words = set(query.split())
    order = sorted(
        passages,
        key=lambda p: (-sum(w in words for w in p[1].split()), _unit(seed, p[1]), p[0]),
    )
    ids = [i for i, _ in order]
    ranking = " > ".join(f"[{i}]" for i in ids)
    kind = reply_kind(messages, seed)
    if kind == "no_ranking":
        return "I am sorry, but I cannot rank these passages without more context."
    if kind == "duplicates":
        return ranking + "".join(f" > [{i}]" for i in ids[:3])
    if kind == "out_of_range":
        return f"[{len(ids) + 3}] > " + ranking + " > [0]"
    if kind == "prose":
        return f"Sure! Based on relevance, the ranking is: {ranking}. Hope this helps."
    return ranking


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as a real endpoint would
    # Without TCP_NODELAY, Nagle's algorithm and delayed ACKs add tens of
    # milliseconds to every call, and the stub would measure TCP, not rankkit.
    disable_nagle_algorithm = True

    def do_POST(self):
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers["Content-Length"]))
        content = reply(json.loads(body)["messages"], self.server.seed)
        out = json.dumps({"choices": [{"message": {"role": "assistant",
                                                   "content": content}}]}).encode()
        remaining = self.server.latency_s - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, format, *args):
        pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--latency-ms", type=float, required=True)
    args = ap.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.seed = args.seed
    server.latency_s = args.latency_ms / 1000.0
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
