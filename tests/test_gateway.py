import base64
import email.utils
import http.server
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import warnings
from pathlib import Path

import pytest

from conftest import FIXTURES
from kbqa_repair import gateway
from kbqa_repair.cli import main
from kbqa_repair.dataset import load_split
from kbqa_repair.gateway import (
    GatewayError,
    HttpGateway,
    Matcher,
    Message,
    MockGateway,
    MockMiss,
    assistant,
    user,
)
from kbqa_repair.pipeline import FunConfig, run_question
from kbqa_repair.retrieval import retrieve_lexical


def test_mock_exact_beats_substring():
    gw = MockGateway(
        [
            Matcher("substring", "hello", "sub"),
            Matcher("exact", "hello world", "exact"),
        ]
    )
    assert gw.complete([user("hello world")]) == "exact"
    assert gw.complete([user("say hello please")]) == "sub"


def test_mock_matches_latest_user_message():
    gw = MockGateway([Matcher("substring", "second", "two"), Matcher("substring", "first", "one")])
    conv = [user("first prompt"), assistant("reply"), user("second prompt")]
    assert gw.complete(conv) == "two"


def test_mock_file_order_decides(tmp_path):
    fixture = tmp_path / "mock.json"
    fixture.write_text(
        json.dumps(
            [
                {"match": {"kind": "substring", "text": "alpha"}, "reply": "first"},
                {"match": {"kind": "substring", "text": "alphabet"}, "reply": "second"},
            ]
        )
    )
    gw = MockGateway.from_file(str(fixture))
    assert gw.complete([user("the alphabet song")]) == "first"


def test_mock_miss_is_loud():
    gw = MockGateway([Matcher("exact", "nope", "x")])
    with pytest.raises(MockMiss):
        gw.complete([user("unscripted prompt")])


@pytest.mark.parametrize("length, shown", [(400, "x" * 400), (401, "x" * 397 + "...")],
                         ids=["at-the-width", "one-past-it"])
def test_mock_miss_shows_a_prompt_of_at_most_400_characters_whole(length, shown):
    with pytest.raises(MockMiss) as miss:
        MockGateway([]).complete([user("x" * length)])
    assert str(miss.value) == f"no matcher fired for prompt: {shown!r}"


def test_mock_determinism():
    matchers = [Matcher("substring", "q", "the reply")]
    conv = [user("q1")]
    a = MockGateway(matchers).complete(list(conv))
    b = MockGateway(matchers).complete(list(conv))
    assert a == b == "the reply"


def test_empty_conversation_rejected():
    gw = MockGateway([])
    with pytest.raises(ValueError):
        gw.complete([])


class _Handler(http.server.BaseHTTPRequestHandler):
    calls = []
    script = []  # list of (status, JSON body, raw bytes or None[, extra headers])

    def reply(self, doc):
        return _Handler.script[min(len(_Handler.calls) - 1, len(_Handler.script) - 1)]

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        doc = json.loads(self.rfile.read(length))
        _Handler.calls.append(doc)
        status, body, *extra = self.reply(doc)
        payload = body if isinstance(body, bytes) else json.dumps(body or {}).encode()
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def serve():
    """``serve(handler)`` starts a local server and returns its endpoint URL.

    Each connection gets its own daemon thread, so a handler still waiting
    on a request never blocks shutdown.
    """
    servers = []
    _Handler.calls = []

    def start(handler):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/v1/chat"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def http_server(serve):
    return serve(_Handler)


def _completion(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_http_payload_shape_and_reply(http_server, monkeypatch):
    monkeypatch.setenv("TEST_TOKEN_VAR", "secret")
    _Handler.script = [(200, _completion("the reply"))]
    gw = HttpGateway(http_server, "test-model", auth_env="TEST_TOKEN_VAR")
    conv = [user("hi there")]
    assert gw.complete(conv) == "the reply"
    sent = _Handler.calls[0]
    assert sent == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "hi there"}],
        "temperature": 0.0,
    }
    assert conv == [user("hi there")]  # conversation not mutated


@pytest.fixture
def sleeps(monkeypatch):
    """Record the retry sleeps instead of sleeping."""
    slept = []
    monkeypatch.setattr("kbqa_repair.gateway.time.sleep", slept.append)
    return slept


@pytest.fixture
def backoff(sleeps, monkeypatch):
    """As ``sleeps``, with each full-jitter draw pinned to its upper bound."""
    monkeypatch.setattr("kbqa_repair.gateway.random.uniform", lambda low, high: high)
    return sleeps


def test_http_retries_transient_then_succeeds(http_server, backoff):
    _Handler.script = [(500, None), (429, None), (200, _completion("ok"))]
    gw = HttpGateway(http_server, "m", max_retries=3)
    assert gw.complete([user("x")]) == "ok"
    assert len(_Handler.calls) == 3
    assert backoff == [0.5, 1.0]


def test_http_auth_failure_does_not_retry(http_server):
    _Handler.script = [(401, None)]
    gw = HttpGateway(http_server, "m", max_retries=2)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "auth"
    assert len(_Handler.calls) == 1


def test_http_rate_limit_exhausts_retries(http_server, backoff):
    _Handler.script = [(429, None)]
    gw = HttpGateway(http_server, "m", max_retries=1)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "rate-limit"
    assert len(_Handler.calls) == 2
    assert backoff == [0.5]


def test_http_server_error_exhausts_retries(http_server, backoff):
    _Handler.script = [(503, None)]
    gw = HttpGateway(http_server, "m", max_retries=1)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "server"
    assert len(_Handler.calls) == 2
    assert backoff == [0.5]


@pytest.mark.parametrize("status", [501, 505])
def test_http_permanent_server_error_does_not_retry(http_server, backoff, status):
    _Handler.script = [(status, None), (200, _completion("ok"))]
    gw = HttpGateway(http_server, "m", max_retries=3)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "server"
    assert str(err.value) == f"server: endpoint returned {status}"
    assert len(_Handler.calls) == 1
    assert backoff == []


NOW = 1_700_000_000.0  # the clock of the Retry-After date tests


@pytest.mark.parametrize("script, slept", [
    ([(429, None, {"Retry-After": "3"}), (503, None, {"Retry-After": "0"})], [3.0, 0.0]),
    ([(503, None, {"Retry-After": "120"})], [8.0]),
    ([(429, None, {"Retry-After": email.utils.formatdate(NOW + 5, usegmt=True)})], [5.0]),
    ([(503, None, {"Retry-After": time.asctime(time.gmtime(NOW + 2))})], [2.0]),
    ([(429, None, {"Retry-After": email.utils.formatdate(NOW + 3600, usegmt=True)})], [8.0]),
], ids=["delta-seconds", "delta-capped", "http-date", "asctime-date", "date-capped"])
def test_http_retry_after_sets_the_wait(http_server, sleeps, monkeypatch, script, slept):
    monkeypatch.setattr("kbqa_repair.gateway.time.time", lambda: NOW)
    _Handler.script = script + [(200, _completion("ok"))]
    gw = HttpGateway(http_server, "m", max_retries=3)
    assert gw.complete([user("x")]) == "ok"
    assert sleeps == slept


@pytest.mark.parametrize("status, header", [
    (429, None), (429, "-3"), (503, "1.5"), (503, "soon"), (429, ""),
    (429, email.utils.formatdate(NOW - 5, usegmt=True)), (500, "3"), (502, "3"),
], ids=["absent", "negative", "fraction", "word", "empty", "past-date", "500", "502"])
def test_http_retry_after_ignored_keeps_the_backoff(http_server, backoff, monkeypatch, status, header):
    monkeypatch.setattr("kbqa_repair.gateway.time.time", lambda: NOW)
    extra = {} if header is None else {"Retry-After": header}
    _Handler.script = [(status, None, extra), (status, None, extra), (200, _completion("ok"))]
    gw = HttpGateway(http_server, "m", max_retries=3)
    assert gw.complete([user("x")]) == "ok"
    assert backoff == [0.5, 1.0]


def test_http_retry_after_applies_to_the_next_wait_only(http_server, backoff):
    _Handler.script = [(429, None, {"Retry-After": "4"}), (503, None), (429, None),
                       (200, _completion("ok"))]
    gw = HttpGateway(http_server, "m", max_retries=3)
    assert gw.complete([user("x")]) == "ok"
    assert backoff == [4.0, 1.0, 2.0]


def test_http_backoff_is_full_jitter_below_the_cap(sleeps):
    # 1,100 retries: past 2**1024, which no float holds.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    gw = HttpGateway(f"http://127.0.0.1:{port}/v1/chat", "m", max_retries=1100)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "timeout"
    caps = [0.5, 1.0, 2.0, 4.0] + [8.0] * 1096
    assert len(sleeps) == 1100
    assert all(0 <= wait <= cap for wait, cap in zip(sleeps, caps))
    capped = sleeps[4:]
    assert len(set(capped)) > 1 and 3.0 < sum(capped) / len(capped) < 5.0


def test_http_null_content_is_a_protocol_error(http_server, fig1_kb3):
    _Handler.script = [(200, _completion(None))]
    gw = HttpGateway(http_server, "m", max_retries=0)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "protocol"

    example = load_split(str(FIXTURES / "fig1/dataset_kb3.jsonl")).examples[0]
    outcome = run_question(gw, fig1_kb3, [retrieve_lexical], example, FunConfig(n=3))
    assert outcome.error and outcome.error.startswith("protocol")
    assert outcome.lf.is_nk and outcome.answer is None


@pytest.mark.parametrize("body, message", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    ({}, "'choices'"),
    ({"choices": []}, "list index out of range"),
    ([1], "list indices must be integers or slices, not str"),
    (b"[" * 100_000 + b"]" * 100_000,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
], ids=["not-json", "no-choices", "empty-choices", "a-list", "nested-too-deeply"])
def test_http_malformed_completion_is_a_protocol_error(http_server, backoff, body, message):
    _Handler.script = [(200, body)]
    gw = HttpGateway(http_server, "m")
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert str(err.value) == f"protocol: malformed completion response: {message}"
    assert len(_Handler.calls) == 1 and backoff == []  # not retried


@pytest.mark.parametrize("status", [200, 503], ids=["completion", "http-error"])
def test_http_reply_past_the_size_bound_is_a_protocol_error(http_server, backoff, status):
    _Handler.script = [(status, b" " * (gateway._MAX_REPLY_BYTES + 1)), (200, _completion("ok"))]
    gw = HttpGateway(http_server, "m")
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert str(err.value) == f"protocol: reply body is longer than {gateway._MAX_REPLY_BYTES} bytes"
    assert len(_Handler.calls) == 1 and backoff == []  # not retried


def test_http_completion_at_the_size_bound_is_read(http_server):
    text = "x" * (gateway._MAX_REPLY_BYTES - len(json.dumps(_completion(""))))
    assert len(json.dumps(_completion(text))) == gateway._MAX_REPLY_BYTES
    _Handler.script = [(200, _completion(text))]
    assert HttpGateway(http_server, "m").complete([user("x")]) == text


class _RedirectHandler(_Handler):
    status = 307

    def do_POST(self):
        _Handler.calls.append(self.path)
        self.send_response(_RedirectHandler.status)
        self.send_header("Location", "/elsewhere")
        self.send_header("Content-Length", "0")
        self.end_headers()


@pytest.mark.parametrize("status", [302, 307])
def test_http_redirect_is_a_protocol_error(serve, monkeypatch, status):
    monkeypatch.setattr(_RedirectHandler, "status", status)
    gw = HttpGateway(serve(_RedirectHandler), "m", max_retries=2)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "protocol" and f"returned {status}" in str(err.value)
    assert _Handler.calls == ["/v1/chat"]  # not followed, not retried


def test_http_timeout_while_sending_is_a_timeout(http_server, monkeypatch):
    # urllib wraps errors raised while connecting or sending in URLError.
    def fail(request, timeout):
        raise urllib.error.URLError(TimeoutError("timed out"))

    gw = HttpGateway(http_server, "m", max_retries=0, timeout=0.05)
    monkeypatch.setattr(gw._opener, "open", fail)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "timeout"
    assert "timed out after 0.05s" in str(err.value)


def test_http_refused_port_is_a_transport_failure(backoff):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    gw = HttpGateway(f"http://127.0.0.1:{port}/v1/chat", "m", max_retries=2)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "timeout"
    assert "transport failure" in str(err.value)
    assert backoff == [0.5, 1.0]  # max_retries + 1 attempts


class _SilentHandler(_Handler):
    """Reads the request and never answers until ``release`` is set."""

    release = threading.Event()

    def do_POST(self):
        _SilentHandler.release.wait(5)


def test_http_slow_reply_times_out(serve):
    _SilentHandler.release.clear()
    gw = HttpGateway(serve(_SilentHandler), "m", max_retries=0, timeout=0.05)
    try:
        with pytest.raises(GatewayError) as err:
            gw.complete([user("x")])
    finally:
        _SilentHandler.release.set()
    assert err.value.kind == "timeout"
    assert "timed out after 0.05s" in str(err.value)


class _DripHandler(_Handler):
    """Sends a 200 status, then one body byte every 0.2 s until ``release``
    is set or the body is whole."""

    release = threading.Event()

    def do_POST(self):
        self.send_response(200)
        self.send_header("Content-Length", "20")
        self.end_headers()
        for _ in range(20):
            if _DripHandler.release.wait(0.2):
                return
            self.wfile.write(b" ")


def test_http_dripping_reply_times_out_within_the_attempt(serve):
    # Each read gets a byte well inside the read timeout; the attempt's
    # deadline ends the call.
    _DripHandler.release.clear()
    gw = HttpGateway(serve(_DripHandler), "m", max_retries=0, timeout=0.5)
    started = time.monotonic()
    try:
        with pytest.raises(GatewayError) as err:
            gw.complete([user("x")])
    finally:
        _DripHandler.release.set()
    assert time.monotonic() - started < 1.0
    assert err.value.kind == "timeout"
    assert "timed out after 0.5s" in str(err.value)


class _ProxyHandler(http.server.BaseHTTPRequestHandler):
    """Plays a forward proxy: records each request line's target and
    ``Proxy-Authorization``, answers plain requests itself and refuses
    every CONNECT tunnel."""

    seen = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _ProxyHandler.seen.append(("POST", self.path, self.headers["Proxy-Authorization"]))
        payload = json.dumps(_completion("via proxy")).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        _ProxyHandler.seen.append(("CONNECT", self.path, self.headers["Proxy-Authorization"]))
        self.send_response(403)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def proxy_env(serve, monkeypatch):
    """A local proxy that needs credentials, and no other proxy setting."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    _ProxyHandler.seen = []
    address = serve(_ProxyHandler).removesuffix("/v1/chat").replace("://", "://bob:p%40ss@")
    return address, "Basic " + base64.b64encode(b"bob:p@ss").decode()


def test_http_proxy_gets_absolute_form_unless_bypassed(http_server, proxy_env, monkeypatch):
    proxy, credentials = proxy_env
    _Handler.script = [(200, _completion("direct"))]
    monkeypatch.setenv("http_proxy", proxy)
    assert HttpGateway(http_server + "?v=1", "m").complete([user("x")]) == "via proxy"
    assert _ProxyHandler.seen == [("POST", http_server + "?v=1", credentials)]
    assert _Handler.calls == []

    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    assert HttpGateway(http_server, "m").complete([user("x")]) == "direct"
    assert len(_ProxyHandler.seen) == 1 and len(_Handler.calls) == 1


def test_http_all_proxy_is_the_fallback(http_server, proxy_env, monkeypatch):
    proxy, credentials = proxy_env
    monkeypatch.setenv("all_proxy", proxy)
    assert HttpGateway(http_server, "m").complete([user("x")]) == "via proxy"
    assert _ProxyHandler.seen == [("POST", http_server, credentials)]

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    _Handler.script = [(200, _completion("direct"))]
    assert HttpGateway(http_server, "m").complete([user("x")]) == "direct"
    assert len(_ProxyHandler.seen) == 1 and len(_Handler.calls) == 1


def test_https_proxy_tunnels_with_connect(proxy_env, monkeypatch):
    proxy, credentials = proxy_env
    monkeypatch.setenv("https_proxy", proxy)
    gw = HttpGateway("https://llm.invalid/v1/chat", "m", max_retries=0)
    with pytest.raises(GatewayError) as err:
        gw.complete([user("x")])
    assert err.value.kind == "timeout" and "transport failure" in str(err.value)
    assert _ProxyHandler.seen == [("CONNECT", "llm.invalid:443", credentials)]


@pytest.mark.parametrize("endpoint", [
    "localhost:8000/v1/chat", "ftp://host/v1", "http:///v1",
    "http://127.0.0.1:abc/v1", "http://127.0.0.1:99999/v1", "http://127.0.0.1:0/v1",
])
def test_http_endpoint_must_be_an_http_url(endpoint):
    with pytest.raises(ValueError):
        HttpGateway(endpoint, "m")


class _MockServingHandler(_Handler):
    """Answers each request from the fig1 mock fixture."""

    mock = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))

    def reply(self, doc):
        conversation = [Message(m["role"], m["content"]) for m in doc["messages"]]
        return 200, _completion(self.mock.complete(conversation))


def test_cli_run_over_http_matches_mock(serve, tmp_path):
    url = serve(_MockServingHandler)
    common = ["run", "--kb", FIXTURES / "fig1/kb1", "--dataset", FIXTURES / "fig1/dataset_kb1.jsonl",
              "--n-iter", "3"]
    assert main([str(a) for a in common + ["--mock", FIXTURES / "fig1/mock.json",
                                           "--out", tmp_path / "mock"]]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main([str(a) for a in common + ["--endpoint", url, "--model", "m",
                                               "--out", tmp_path / "http"]]) == 0
    assert [w for w in caught if w.category is ResourceWarning] == []  # every socket closed
    for name in ("outcomes.jsonl", "traces.jsonl"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes()


def test_cli_run_with_a_bad_endpoint_exits_2(tmp_path, capsys):
    code = main([str(a) for a in [
        "run", "--kb", FIXTURES / "fig1/kb3", "--dataset", FIXTURES / "fig1/dataset_kb3.jsonl",
        "--endpoint", "localhost:8000/v1", "--model", "m",
        "--out", tmp_path / "out",
    ]])
    assert code == 2
    assert "not an http(s) URL" in capsys.readouterr().err


def test_package_imports_no_third_party_http_stack():
    # Counted against the modules loaded before the import: site hooks of
    # the interpreter may load some of these names on their own.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kbqa_repair.cli\n"
        "banned = ('requests', 'urllib3', 'certifi', 'idna', 'charset_normalizer')\n"
        "print(sorted(set(sys.modules) - before & set(banned)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"


def test_mock_run_loads_no_http_stack_until_an_http_gateway_is_built(tmp_path):
    # A fresh interpreter: this one has the stack loaded by the tests above.
    # Counted against the modules loaded before the import, as above.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    fig1 = FIXTURES / "fig1"
    argv = ["run", "--kb", fig1 / "kb3", "--dataset", fig1 / "dataset_kb3.jsonl",
            "--mock", fig1 / "mock.json", "--n-iter", "3", "--out", tmp_path / "out"]
    stack = ["email.utils", "http.client", "ssl", "urllib.request"]
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kbqa_repair, kbqa_repair.cli\n"
        f"def loaded(): return sorted(set(sys.modules) - before & {set(stack)!r})\n"
        f"code = kbqa_repair.cli.main({[str(a) for a in argv]!r})\n"
        "after_run = loaded()\n"
        "kbqa_repair.gateway.HttpGateway('http://127.0.0.1:9/v1', 'm')\n"
        "print(json.dumps([code, after_run, loaded()]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [0, [], stack]
