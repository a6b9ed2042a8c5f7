import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from transmigrate.backends import (
    LiveBackend,
    MockBackend,
    MockRule,
    extract_code,
    split_system_user,
)
from transmigrate.config import BackendOptions
from transmigrate.errors import BackendError, ExtractionError, RetryableBackendError
from transmigrate.prompts import render_prompt


def method_envelope(code: str):
    return render_prompt(
        "method",
        {
            "method_name": "go",
            "file_name": "A.java",
            "method_code": code,
            "ast": "(method_declaration)",
        },
    )


class TestMockBackend:
    def test_rule_table_rewrites_payload(self):
        mock = MockBackend([MockRule("int", "Int")])
        response = mock.translate(method_envelope("int go() { return 0; }"))
        assert extract_code(response) == "Int go() { return 0; }"

    def test_identical_calls_identical_outputs(self):
        mock = MockBackend([MockRule("a", "b")])
        envelope = method_envelope("aaa")
        assert mock.translate(envelope) == mock.translate(envelope)

    def test_empty_rule_table_is_pass_through(self):
        mock = MockBackend()
        envelope = method_envelope("unchanged body")
        assert extract_code(mock.translate(envelope)) == "unchanged body"

    def test_repair_only_rules_skip_initial_translation(self):
        rules = [MockRule("x", "y", when="repair")]
        mock = MockBackend(rules)
        assert extract_code(mock.translate(method_envelope("xxx"))) == "xxx"
        repair = render_prompt(
            "repair",
            {"diagnostics": "d", "prior_code": "xxx", "output_requirements": "Output Requirement:"},
        )
        assert extract_code(mock.translate(repair)) == "yyy"

    def test_each_rule_compiled_once(self):
        rule = MockRule("a", "b")
        mock = MockBackend([rule])
        for _ in range(2):
            assert extract_code(mock.translate(method_envelope("aaa"))) == "bbb"
        assert rule.compiled is rule.compiled

    def test_rules_file_loading(self, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps({"rules": [{"pattern": "a", "replacement": "b"}]}))
        mock = MockBackend.from_rules_file(rules_path)
        assert extract_code(mock.translate(method_envelope("aaa"))) == "bbb"


class _CapturingHandler(BaseHTTPRequestHandler):
    captured: list = []
    status = 200
    reply: bytes | None = None  # the body to send instead of a well-formed reply

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).captured.append({"body": body, "auth": self.headers.get("Authorization")})
        payload = type(self).reply or json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "```swift\nfunc go() {}\n```"}}]}
        ).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def capture_server():
    _CapturingHandler.captured = []
    _CapturingHandler.status = 200
    _CapturingHandler.reply = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CapturingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()


class TestLiveBackend:
    def test_request_body_shape_and_roles(self, capture_server, monkeypatch):
        monkeypatch.setenv("TRANSMIGRATE_API_KEY", "sk-test")
        options = BackendOptions(endpoint=capture_server, model="test-model", temperature=0.0)
        backend = LiveBackend(options)
        envelope = method_envelope("int x;")
        raw = backend.translate(envelope)
        assert extract_code(raw) == "func go() {}"
        sent = _CapturingHandler.captured[0]
        body = sent["body"]
        assert set(body) == {"model", "messages", "temperature"}
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.0
        roles = [m["role"] for m in body["messages"]]
        assert roles == ["system", "user"]
        system, user = split_system_user(envelope.rendered_text)
        assert body["messages"][0]["content"] == system
        assert body["messages"][1]["content"] == user
        assert sent["auth"] == "Bearer sk-test"

    def test_system_role_is_first_paragraph(self):
        envelope = method_envelope("int x;")
        system, user = split_system_user(envelope.rendered_text)
        assert system.startswith("You are an expert code translator")
        assert system.endswith("into Swift.")
        assert user.startswith("Input:")

    def test_non_success_status_is_backend_error(self, capture_server):
        _CapturingHandler.status = 500
        backend = LiveBackend(BackendOptions(endpoint=capture_server))
        with pytest.raises(BackendError) as exc:
            backend.translate(method_envelope("int x;"))
        assert not isinstance(exc.value, RetryableBackendError)

    @pytest.mark.parametrize(
        "reply",
        [
            b"not json",
            b'{"error": "overloaded"}',
            b'{"choices": []}',
            b'{"choices": [{"message": {"content": null}}]}',
        ],
    )
    def test_success_reply_without_content_is_backend_error(self, capture_server, reply):
        _CapturingHandler.reply = reply
        backend = LiveBackend(BackendOptions(endpoint=capture_server, retry_count=2))
        with pytest.raises(BackendError) as exc:
            backend.translate(method_envelope("int x;"))
        assert not isinstance(exc.value, RetryableBackendError)
        assert capture_server in str(exc.value) and str(exc.value).endswith(reply.decode())
        assert len(_CapturingHandler.captured) == 1  # not retried

    def test_transport_failures_retried_up_to_count(self, monkeypatch):
        attempts = []

        def flaky(request, timeout):
            attempts.append(1)
            if len(attempts) < 3:
                raise urllib.error.URLError("connection refused")
            raise urllib.error.URLError("still down")

        monkeypatch.setattr("urllib.request.urlopen", flaky)
        backend = LiveBackend(BackendOptions(endpoint="http://127.0.0.1:9/x", retry_count=2))
        with pytest.raises(RetryableBackendError):
            backend.translate(method_envelope("int x;"))
        assert len(attempts) == 3  # initial try + two retries


class TestExtractCode:
    def test_single_fence(self):
        assert extract_code("Here you go:\n```swift\nfunc a() {}\n```\nDone.") == "func a() {}"

    def test_todo_marker_line_kept_in_code(self):
        marker = "// TODO: Platform-specific adaptation required"
        assert extract_code(f"```swift\nfunc a() {{}}\n{marker}\n```") == f"func a() {{}}\n{marker}"

    def test_longest_fence_wins(self):
        short = "s" * 40
        long = "l" * 90
        response = f"```\n{short}\n```\ntext\n```\n{long}\n```"
        assert extract_code(response) == long

    def test_equal_length_fences_tie_to_first(self):
        response = "```\nfirst!\n```\n```\nsecond\n```"
        assert extract_code(response) == "first!"

    def test_no_fence_takes_whole_response(self):
        assert extract_code("func a() {}") == "func a() {}"

    def test_unterminated_fence_runs_to_end(self):
        assert extract_code("```swift\nfunc a() {}\nfunc b() {}") == "func a() {}\nfunc b() {}"

    def test_empty_response_is_extraction_error(self):
        with pytest.raises(ExtractionError):
            extract_code("   \n ")

    def test_idempotent_on_refenced_code(self):
        first = extract_code("```swift\nstruct S {}\n```")
        assert extract_code(f"```swift\n{first}\n```") == first
