import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tempkgqa import llm
from tempkgqa.llm import API_KEY_ENV, MAX_TOKENS, RemoteLlmClient, TransportError

from mock_llm import MockLlmClient, message_key

MESSAGES = ({"role": "user", "content": "hello"},)


def completion(content):
    return {"choices": [{"message": {"content": content}}]}


class _StubHandler(BaseHTTPRequestHandler):
    """Replays (status, payload) pairs from ``server.plan`` and records traffic."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else None
        self.server.requests.append(
            {"headers": {k: v for k, v in self.headers.items()}, "body": body}
        )
        status, payload = (
            self.server.plan.pop(0) if self.server.plan else (200, completion("ok"))
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(payload).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.plan = []
    server.requests = []
    # a short poll, so shutdown() below returns within 10 ms, not 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield server
    server.shutdown()
    thread.join(timeout=2)
    server.server_close()


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    """Retries should not slow the suite down; record the backoff instead."""
    naps = []
    monkeypatch.setattr(time, "sleep", naps.append)
    return naps


class TestMessageKey:
    def test_stable_and_sensitive(self):
        key = message_key(MESSAGES)
        assert key == message_key(({"role": "user", "content": "hello"},))
        assert key != message_key(({"role": "system", "content": "hello"},))
        assert key != message_key(({"role": "user", "content": "hello!"},))

    def test_order_sensitive(self):
        a = {"role": "user", "content": "a"}
        b = {"role": "assistant", "content": "b"}
        assert message_key((a, b)) != message_key((b, a))


class TestMockClient:
    def test_scripted_reply(self):
        client = MockLlmClient(script={message_key(MESSAGES): "scripted"})
        assert client.send(MESSAGES) == "scripted"

    def test_default_covers_unscripted(self):
        client = MockLlmClient(default="fallback")
        assert client.send(MESSAGES) == "fallback"

    def test_unscripted_without_default_raises(self):
        client = MockLlmClient()
        with pytest.raises(TransportError):
            client.send(MESSAGES)

    def test_calls_are_recorded(self):
        client = MockLlmClient(default="x")
        client.send(MESSAGES)
        assert client.calls == [message_key(MESSAGES)]


class TestRemoteClient:
    def test_success_and_request_body(self, stub):
        client = RemoteLlmClient(stub.url, "m7")
        stub.plan.append((200, completion("the answer")))
        reply = client.send(MESSAGES)
        assert reply == "the answer"
        body = stub.requests[0]["body"]
        assert body["model"] == "m7"
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == MAX_TOKENS == 256
        assert body["messages"] == [{"role": "user", "content": "hello"}]

    def test_retries_transient_status_then_succeeds(self, stub, no_sleep):
        assert (llm.MAX_RETRIES, llm.BACKOFF) == (3, 0.5)
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.extend([(503, {}), (503, {}), (200, completion("late"))])
        assert client.send(MESSAGES) == "late"
        assert len(stub.requests) == 3
        assert no_sleep == [0.5, 1.0]  # exponential backoff

    def test_non_retryable_status_fails_immediately(self, stub):
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.append((400, {"error": "bad request"}))
        with pytest.raises(TransportError) as err:
            client.send(MESSAGES)
        assert err.value.status == 400
        assert err.value.attempts == 1
        assert len(stub.requests) == 1

    def test_malformed_payload_is_not_retried(self, stub):
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.append((200, {"choices": []}))
        with pytest.raises(TransportError, match="malformed"):
            client.send(MESSAGES)
        assert len(stub.requests) == 1

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "hi"}], 5],
                             ids=["null", "list-of-parts", "number"])
    def test_content_that_is_not_a_string_is_malformed(self, stub, content):
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.append((200, completion(content)))
        with pytest.raises(TransportError, match="^malformed completion payload$") as err:
            client.send(MESSAGES)
        assert err.value.status == 200
        assert err.value.attempts == 1
        assert len(stub.requests) == 1

    def test_gives_up_after_max_retries(self, stub, monkeypatch):
        monkeypatch.setattr(llm, "MAX_RETRIES", 2)
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.extend([(503, {}), (503, {})])
        with pytest.raises(TransportError, match="gave up") as err:
            client.send(MESSAGES)
        assert err.value.attempts == 2
        assert err.value.status == 503

    def test_connection_errors_are_retried(self, monkeypatch):
        monkeypatch.setattr(llm, "MAX_RETRIES", 2)
        monkeypatch.setattr(llm, "TIMEOUT", 0.2)
        client = RemoteLlmClient("http://127.0.0.1:9/nothing", "local")
        with pytest.raises(TransportError, match="gave up"):
            client.send(MESSAGES)


class TestApiKeyHandling:
    def test_key_read_from_environment(self, stub, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
        client = RemoteLlmClient(stub.url, "local")
        client.send(MESSAGES)
        assert stub.requests[0]["headers"]["Authorization"] == "Bearer sk-test-123"

    def test_no_key_sends_no_authorization_header(self, stub, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        client = RemoteLlmClient(stub.url, "local")
        client.send(MESSAGES)
        assert "Authorization" not in stub.requests[0]["headers"]

    def test_key_stays_out_of_body_and_logs(self, stub, monkeypatch, caplog):
        monkeypatch.setenv(API_KEY_ENV, "sk-sensitive")
        monkeypatch.setattr(llm, "MAX_RETRIES", 2)
        client = RemoteLlmClient(stub.url, "local")
        stub.plan.extend([(503, {}), (200, completion("ok"))])
        with caplog.at_level("DEBUG"):
            client.send(MESSAGES)
        assert "sk-sensitive" not in json.dumps(stub.requests[0]["body"])
        assert "sk-sensitive" not in caplog.text
