"""Pluggable text-generation backends.

Two backends share one interface: an HTTP client for chat-completion style
services, and a scripted mock that replays fixture replies deterministically.
The deterministic pipeline core is exercised entirely through the mock; the
HTTP client exists for live runs.  It imports the standard library's network
modules (urllib, http.client, ssl, email) when one is built, not when this
module is, so a mock run never loads them.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass

from .kb import check, read_json
from .query import shorten


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    text: str


def user(text: str) -> Message:
    return Message("user", text)


def assistant(text: str) -> Message:
    return Message("assistant", text)


def _latest_prompt(conversation: list[Message]) -> str:
    return next(m.text for m in reversed(conversation) if m.role == "user")


class GatewayError(Exception):
    """Backend failure.  ``kind`` is one of:

    - ``timeout``: the request timed out or the transport failed (retried);
    - ``auth``: the endpoint refused the credentials, 401 or 403 (not retried);
    - ``rate-limit``: the endpoint answered 429 (retried);
    - ``server``: the endpoint answered 500 or above; retried, except 501
      and 505, which say the server will never serve the request;
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

    def complete(self, conversation: list[Message], purpose: str = "generate") -> str:
        if not conversation:
            raise ValueError("conversation must be non-empty")
        return self._complete(conversation)

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
        self.matchers = list(matchers)

    @classmethod
    def from_file(cls, path: str) -> "MockGateway":
        matchers = []
        for item in check(read_json(path, "mock fixture"), "mock fixture"):
            match = check(check(item, "mock matcher")["match"], "mock match")
            matchers.append(Matcher(match["kind"], match["text"], item["reply"]))
        return cls(matchers)

    def _complete(self, conversation: list[Message]) -> str:
        prompt = _latest_prompt(conversation)
        for matcher in self.matchers:
            if matcher.kind == "exact" and matcher.text == prompt:
                return matcher.reply
        for matcher in self.matchers:
            if matcher.kind == "substring" and matcher.text in prompt:
                return matcher.reply
        raise MockMiss(f"no matcher fired for prompt: {shorten(prompt, 400)!r}")


# The longest reply body read from the endpoint.  A completion is text of at
# most a few thousand tokens, so a longer body is a fault, not a reply, and
# reading it whole could take the process's memory.
_MAX_REPLY_BYTES = 1 << 20


class HttpGateway(GenerationGateway):
    """Chat-completion HTTP client on the standard library.

    POSTs ``{model, messages, temperature: 0}`` to the endpoint, one connection
    per call; the auth token is read from an environment variable at call
    time.  Transient failures (timeouts, transport failures, 429, and every
    5xx but the permanent 501 and 505) retry up to ``max_retries`` times
    after a wait drawn uniformly below an exponential cap (full jitter); a
    429 or 503 that sends ``Retry-After`` waits as long as it asks instead,
    capped like the backoff (RFC 9110 section 10.2.3).
    The proxy is read from ``http_proxy``/``https_proxy`` (else
    ``all_proxy``) at construction; urllib skips it for hosts that
    ``no_proxy`` names.  Redirects are not followed.  A reply body longer
    than 1 MiB is a protocol error and is not retried.  An attempt's body
    must be read by ``timeout`` seconds after the attempt started, by the
    monotonic clock, or the attempt is a timeout; before the body, each
    socket operation has ``timeout`` seconds.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        auth_env: str = "KBQA_REPAIR_TOKEN",
        max_retries: int = 3,
        timeout: float = 60.0,
    ):
        import urllib.parse
        import urllib.request

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            """Leaves a 3xx reply to the caller instead of following it."""

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        self.model = model
        self.auth_env = auth_env
        self.max_retries = max_retries
        self.timeout = timeout
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint is not an http(s) URL: {endpoint!r}")
        try:
            port = url.port  # raises ValueError for a port that is not a number in 0..65535
        except ValueError:
            port = 0
        if port == 0:
            raise ValueError(f"endpoint port must be a number from 1 to 65535: {endpoint!r}")
        self._url = urllib.parse.urlunsplit(url._replace(fragment=""))
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({url.scheme: proxy} if proxy else {}), NoRedirect()
        )

    def _complete(self, conversation: list[Message]) -> str:
        import http.client

        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.text} for m in conversation],
            "temperature": 0.0,
        }
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error = GatewayError("timeout", "no attempt made")
        for attempt in range(self.max_retries + 1):
            if attempt:  # retry_after is the last reply's, if it asked for a wait
                cap = 0.5 * 2 ** min(attempt - 1, 4)  # 0.5 s doubling to 8 s; 2**1024 is no float
                time.sleep(random.uniform(0, cap) if retry_after is None else min(retry_after, 8.0))
            retry_after = None
            try:
                status, data, retry_header = self._post(body, headers)
            except TimeoutError:
                last_error = GatewayError("timeout", f"request timed out after {self.timeout}s")
                continue
            except (OSError, http.client.HTTPException) as err:
                last_error = GatewayError("timeout", f"transport failure: {err}")
                continue
            if status in (401, 403):
                raise GatewayError("auth", f"endpoint returned {status}")
            if status in (429, 503):
                retry_after = _retry_after_seconds(retry_header)
            if status == 429:
                last_error = GatewayError("rate-limit", "endpoint returned 429")
                continue
            if status in (501, 505):
                raise GatewayError("server", f"endpoint returned {status}")
            if status >= 500:
                last_error = GatewayError("server", f"endpoint returned {status}")
                continue
            if status != 200:
                raise GatewayError("protocol", f"endpoint returned {status}")
            try:
                content = json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as err:
                raise GatewayError("protocol", f"malformed completion response: {err}") from err
            if not isinstance(content, str):
                kind = type(content).__name__
                raise GatewayError("protocol", f"completion content is {kind}, not text")
            return content
        raise last_error

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes, str | None]:
        """One POST: (status, body, its Retry-After header or None).  A body
        still arriving ``timeout`` seconds after the POST started raises
        ``TimeoutError``; one longer than ``_MAX_REPLY_BYTES`` raises a
        protocol ``GatewayError``."""
        import urllib.error
        import urllib.request

        deadline = time.monotonic() + self.timeout
        request = urllib.request.Request(self._url, body, headers)
        try:
            with self._opener.open(request, timeout=self.timeout) as response:
                status, data = response.status, _read_body(response, deadline)
                retry_header = response.headers.get("Retry-After")
        except urllib.error.HTTPError as err:
            with err:
                status, data = err.code, _read_body(err, deadline)
                retry_header = err.headers.get("Retry-After")
        except urllib.error.URLError as err:
            # urllib wraps what failed while connecting or sending; a timeout
            # there must still read as a timeout.
            raise err.reason if isinstance(err.reason, OSError) else err
        if len(data) > _MAX_REPLY_BYTES:
            raise GatewayError("protocol", f"reply body is longer than {_MAX_REPLY_BYTES} bytes")
        return status, data, retry_header


def _read_body(reply, deadline: float) -> bytes:
    """``reply``'s body, read in chunks until its end or one byte past
    ``_MAX_REPLY_BYTES``.  Passing ``deadline`` on the monotonic clock between
    two chunks raises ``TimeoutError``."""
    chunks, size = [], 0
    while size <= _MAX_REPLY_BYTES:
        chunk = reply.read1(_MAX_REPLY_BYTES + 1 - size)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
        if time.monotonic() > deadline:
            raise TimeoutError
    return b"".join(chunks)


def _retry_after_seconds(header: str | None) -> float | None:
    """The wait a Retry-After header asks for: delta-seconds, or an HTTP-date
    less the current time.  None when the header is absent, is neither, or
    names a time already past (a negative wait)."""
    import datetime
    import email.utils

    if header is None:
        return None
    header = header.strip()
    if header.isascii() and header.isdigit():
        return float(header)
    try:
        when = email.utils.parsedate_to_datetime(header)
    except ValueError:
        return None
    if when.tzinfo is None:  # an HTTP-date is GMT; its asctime form does not say so
        when = when.replace(tzinfo=datetime.timezone.utc)
    wait = when.timestamp() - time.time()
    return wait if wait >= 0 else None


class RecordingGateway:
    """Wraps a gateway and records (purpose, prompt, reply) per call."""

    def __init__(self, inner: GenerationGateway):
        self.inner = inner
        self.log: list[dict] = []

    def complete(self, conversation: list[Message], purpose: str = "generate") -> str:
        reply = self.inner.complete(conversation, purpose)
        self.log.append({"purpose": purpose, "prompt": _latest_prompt(conversation), "reply": reply})
        return reply
