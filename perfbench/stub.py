"""In-process chat-completion stub that serves the policy over HTTP.

Every request waits a fixed latency before the reply.  The failure schedule
is keyed on the prompt text, never on arrival order: the generation prompt
of each question listed under ``flaky`` in the script fails every odd
attempt with the listed status (503 or 429), so each of its generation calls
costs exactly one retry, however the workers interleave.  The stub counts
attempts and completed replies itself, so retries are measured outside the
program.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from policy import Policy


class StubCounters:
    def __init__(self):
        self.lock = threading.Lock()
        self.attempts = 0
        self.replies = 0
        self.errors: dict[int, int] = {}
        self.per_prompt: dict[str, int] = {}

    def snapshot(self) -> dict:
        with self.lock:
            return {"attempts": self.attempts, "replies": self.replies, "errors": dict(self.errors)}


class Stub:
    """Start with ``start()``; ``url`` is then the endpoint; ``close()`` stops it."""

    def __init__(self, policy: Policy, latency_s: float):
        self.policy = policy
        self.latency_s = latency_s
        self.counters = StubCounters()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def reset_counters(self) -> None:
        """Start counting afresh; call only while no request is in flight."""
        self.counters = StubCounters()

    def failure_for(self, texts: list[str]) -> int | None:
        """The status this attempt fails with, or None; counts the attempt."""
        counters = self.counters
        status = None
        if self.policy.is_generation(texts):
            status = self.policy.flaky.get(self.policy.question_of(texts[0]))
        with counters.lock:
            counters.attempts += 1
            if status is None:
                return None
            seen = counters.per_prompt.get(texts[0], 0) + 1
            counters.per_prompt[texts[0]] = seen
            if seen % 2 == 0:
                return None
            counters.errors[status] = counters.errors.get(status, 0) + 1
            return status

    def start(self) -> None:
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                texts = [m["content"] for m in json.loads(body)["messages"]]
                time.sleep(stub.latency_s)
                status = stub.failure_for(texts)
                if status is not None:
                    self._send(status, {"error": "scheduled failure"})
                    return
                reply = stub.policy.reply(texts)
                with stub.counters.lock:
                    stub.counters.replies += 1
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": reply}}]})

            def _send(self, status: int, doc: dict) -> None:
                data = json.dumps(doc).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=5)
            self._server = None
