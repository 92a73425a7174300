"""Pluggable text-generation backends.

Two backends share one interface: an HTTP client for chat-completion style
services, and a scripted mock that replays fixture replies deterministically.
The deterministic pipeline core is exercised entirely through the mock; the
HTTP client exists for live runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import requests


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    text: str


def user(text: str) -> Message:
    return Message("user", text)


def assistant(text: str) -> Message:
    return Message("assistant", text)


class GatewayError(Exception):
    """Backend failure.  ``kind`` is one of:

    - ``timeout``: the request timed out or the transport failed (retried);
    - ``auth``: the endpoint refused the credentials, 401 or 403 (not retried);
    - ``rate-limit``: the endpoint answered 429 (retried);
    - ``server``: the endpoint answered 500 or above (retried);
    - ``protocol``: any other status, or a reply that is not a completion.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class MockMiss(Exception):
    """No fixture matcher fired for a prompt.  A test bug, never silent."""


class GenerationGateway:
    """Interface: ``complete(conversation, purpose) -> assistant text``.

    ``purpose`` names why the call is made (generate, v3-naturalize,
    v3-backtranslate, v3-equivalence or scun-select); backends ignore it.
    """

    def __init__(self):
        self.call_count = 0
        self.chars_in = 0
        self.chars_out = 0

    def complete(self, conversation: list[Message], purpose: str = "generate") -> str:
        if not conversation:
            raise ValueError("conversation must be non-empty")
        reply = self._complete(conversation)
        self.call_count += 1
        self.chars_in += sum(len(m.text) for m in conversation)
        self.chars_out += len(reply)
        return reply

    def _complete(self, conversation: list[Message]) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Matcher:
    kind: str  # exact | substring
    text: str
    reply: str


class MockGateway(GenerationGateway):
    """Deterministic scripted backend.

    The latest user message is matched against the fixture matchers: all
    exact matchers first, then substring matchers, both in file order.  An
    unmatched prompt raises MockMiss.
    """

    def __init__(self, matchers: list[Matcher]):
        super().__init__()
        self.matchers = list(matchers)

    @classmethod
    def from_file(cls, path: str) -> "MockGateway":
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        matchers = [
            Matcher(item["match"]["kind"], item["match"]["text"], item["reply"]) for item in doc
        ]
        for m in matchers:
            if m.kind not in ("exact", "substring"):
                raise ValueError(f"unknown matcher kind {m.kind!r}")
        return cls(matchers)

    def _complete(self, conversation: list[Message]) -> str:
        prompt = None
        for message in reversed(conversation):
            if message.role == "user":
                prompt = message.text
                break
        if prompt is None:
            raise ValueError("conversation has no user message")
        for matcher in self.matchers:
            if matcher.kind == "exact" and matcher.text == prompt:
                return matcher.reply
        for matcher in self.matchers:
            if matcher.kind == "substring" and matcher.text in prompt:
                return matcher.reply
        head = prompt if len(prompt) <= 400 else prompt[:400] + "..."
        raise MockMiss(f"no matcher fired for prompt: {head!r}")


class HttpGateway(GenerationGateway):
    """Chat-completion HTTP client.

    POSTs ``{model, messages, temperature}`` to the endpoint; the auth token
    is read from an environment variable at call time.  Transient failures
    (timeouts, 429, 5xx) retry with exponential backoff up to ``max_retries``.
    A semaphore caps concurrent in-flight requests.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        auth_env: str = "KBQA_REPAIR_TOKEN",
        temperature: float = 0.0,
        max_retries: int = 3,
        timeout: float = 60.0,
        max_concurrency: int = 4,
    ):
        super().__init__()
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.temperature = temperature
        self.max_retries = max_retries
        self.timeout = timeout
        self._gate = threading.Semaphore(max_concurrency)

    def _complete(self, conversation: list[Message]) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.text} for m in conversation],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error = GatewayError("timeout", "no attempt made")
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
            try:
                with self._gate:
                    response = requests.post(
                        self.endpoint, json=payload, headers=headers, timeout=self.timeout
                    )
            except requests.Timeout:
                last_error = GatewayError("timeout", f"request timed out after {self.timeout}s")
                continue
            except requests.RequestException as err:
                last_error = GatewayError("timeout", f"transport failure: {err}")
                continue
            if response.status_code in (401, 403):
                raise GatewayError("auth", f"endpoint returned {response.status_code}")
            if response.status_code == 429:
                last_error = GatewayError("rate-limit", "endpoint returned 429")
                continue
            if response.status_code >= 500:
                last_error = GatewayError("server", f"endpoint returned {response.status_code}")
                continue
            if response.status_code != 200:
                raise GatewayError("protocol", f"endpoint returned {response.status_code}")
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise GatewayError("protocol", f"malformed completion response: {err}") from err
            if not isinstance(content, str):
                kind = type(content).__name__
                raise GatewayError("protocol", f"completion content is {kind}, not text")
            return content
        raise last_error


class RecordingGateway:
    """Wraps a gateway and records (purpose, prompt, reply) per call."""

    def __init__(self, inner: GenerationGateway):
        self.inner = inner
        self.log: list[dict] = []

    def complete(self, conversation: list[Message], purpose: str = "generate") -> str:
        reply = self.inner.complete(conversation, purpose)
        prompt = next(m.text for m in reversed(conversation) if m.role == "user")
        self.log.append({"purpose": purpose, "prompt": prompt, "reply": reply})
        return reply
