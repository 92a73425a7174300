import http.server
import json
import threading

import pytest

from conftest import FIXTURES
from kbqa_repair.dataset import load_split
from kbqa_repair.gateway import (
    GatewayError,
    HttpGateway,
    Matcher,
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
    script = []  # list of (status, body-dict or None)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.calls.append(json.loads(self.rfile.read(length)))
        status, body = _Handler.script[min(len(_Handler.calls) - 1, len(_Handler.script) - 1)]
        payload = json.dumps(body or {}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _Handler.calls = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    server.shutdown()
    server.server_close()


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
def backoff(monkeypatch):
    """Record the retry sleeps instead of sleeping."""
    slept = []
    monkeypatch.setattr("kbqa_repair.gateway.time.sleep", slept.append)
    return slept


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
