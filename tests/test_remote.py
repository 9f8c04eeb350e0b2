"""Wire-contract tests for the remote embedding and summarizer backends."""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from lexrag import cli
from lexrag.chunker import dump_chunks
from lexrag.embedding import VECTORS_REPLY, EmbeddingError, RemoteEmbedder
from lexrag.enricher import RemoteSummarizer, window_summaries
from lexrag.remote import RemoteConfig, RemoteError, post_json
from tests.conftest import make_chunk
from tests.test_schema import DELETE, hostile_cases


class StubHandler(BaseHTTPRequestHandler):
    """Scriptable JSON endpoint; behavior is configured per server instance."""

    def do_POST(self):
        server = self.server
        server.request_count += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.requests.append({"body": body, "auth": self.headers.get("Authorization")})

        if server.fail_first > 0 and server.request_count <= server.fail_first:
            self.send_response(server.fail_status)
            self.end_headers()
            return

        payload = server.respond(body)  # bytes are sent as they are
        encoded = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def stub_server():
    servers = []

    def start(respond, fail_first=0, fail_status=500):
        server = HTTPServer(("127.0.0.1", 0), StubHandler)
        server.respond = respond
        server.fail_first = fail_first
        server.fail_status = fail_status
        server.request_count = 0
        server.requests = []
        # shutdown() waits for serve_forever's next poll: 0.5 s at the default interval
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                                  daemon=True)
        thread.start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_port}/"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def embedding_response(dim):
    def respond(body):
        vectors = []
        for text in body["texts"]:
            v = np.zeros(dim)
            v[hash(text) % dim if False else len(text) % dim] = 1.0
            vectors.append(v.tolist())
        return {"vectors": vectors}
    return respond


class TestRemoteConfig:
    @pytest.mark.parametrize("field,value", [
        ("retries", -1), ("timeout_seconds", -1.0), ("timeout_seconds", 0.0),
        ("timeout_seconds", math.inf), ("timeout_seconds", math.nan)])
    def test_out_of_range_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RemoteConfig(endpoint="http://127.0.0.1:9/", **{field: value})

    def test_no_retries_and_a_short_timeout_accepted(self):
        cfg = RemoteConfig(endpoint="http://127.0.0.1:9/", retries=0, timeout_seconds=0.01)
        assert (cfg.retries, cfg.timeout_seconds) == (0, 0.01)


class TestPostJson:
    def test_round_trip_and_auth_header(self, stub_server):
        server, url = stub_server(lambda body: {"echo": body["x"]})
        cfg = RemoteConfig(endpoint=url, auth_token="sekrit", retries=0)
        assert post_json(cfg, {"x": 5}) == {"echo": 5}
        assert server.requests[0]["auth"] == "Bearer sekrit"

    def test_retries_then_succeeds(self, stub_server):
        server, url = stub_server(lambda body: {"ok": True}, fail_first=2)
        cfg = RemoteConfig(endpoint=url, retries=2, backoff_seconds=0.0)
        assert post_json(cfg, {}) == {"ok": True}
        assert server.request_count == 3

    def test_exhausted_retries_raise(self, stub_server):
        server, url = stub_server(lambda body: {"ok": True}, fail_first=99)
        cfg = RemoteConfig(endpoint=url, retries=1, backoff_seconds=0.0)
        with pytest.raises(RemoteError, match="failed after 2 attempts"):
            post_json(cfg, {})

    def test_client_error_not_retried(self, stub_server):
        server, url = stub_server(lambda body: {"ok": True}, fail_first=99, fail_status=403)
        cfg = RemoteConfig(endpoint=url, retries=3, backoff_seconds=0.0)
        with pytest.raises(RemoteError, match="HTTP 403"):
            post_json(cfg, {})
        assert server.request_count == 1  # 4xx fails immediately, no retries

    def test_connection_refused_raises(self):
        bad = RemoteConfig(endpoint="http://127.0.0.1:9/", retries=0, backoff_seconds=0.0)
        with pytest.raises(RemoteError):
            post_json(bad, {})


class TestResponseNotAnObject:
    """A reply that is JSON but no object is retried like malformed JSON, then named."""

    def test_post_json_retries_then_names_the_endpoint(self, stub_server):
        server, url = stub_server(lambda body: [1, 2])
        cfg = RemoteConfig(endpoint=url, retries=1, backoff_seconds=0.0)
        with pytest.raises(RemoteError, match=f"^{url}: failed after 2 attempts: "
                                              "response is not a JSON object"):
            post_json(cfg, {})
        assert server.request_count == 2

    def test_index_names_it_and_the_summarizer_falls_back(self, stub_server, tmp_path,
                                                          capsys):
        server, url = stub_server(lambda body: [1, 2])
        chunks = tmp_path / "chunks.jsonl"
        dump_chunks([make_chunk(i, f"text {i}") for i in range(3)], chunks)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retries": 0}), encoding="utf-8")
        assert cli.main(["index", "--chunks", str(chunks), "--embedder", "remote",
                         "--endpoint", url, "--dim", "4", "--config", str(config),
                         "--out", str(tmp_path / "index")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EmbeddingError"
        assert err["message"] == (f"embedding failed for 3 text(s) after retries: {url}: "
                                  "failed after 1 attempts: response is not a JSON object")
        summarizer = RemoteSummarizer(RemoteConfig(endpoint=url, retries=0))
        window = [make_chunk(i, f"sentence {i}.") for i in range(5)]
        result = window_summaries(window, summarizer)
        assert result == [(tokens, True) for tokens, _ in window_summaries(window)]


class TestResponseNotUtf8:
    """A reply that is not UTF-8 is retried like malformed JSON, then named."""

    def test_post_json_retries_then_names_the_endpoint(self, stub_server):
        server, url = stub_server(lambda body: b"\xff\xfe{}")
        cfg = RemoteConfig(endpoint=url, retries=1, backoff_seconds=0.0)
        with pytest.raises(RemoteError, match=f"^{url}: failed after 2 attempts: "
                                              "'utf-8' codec can't decode byte 0xff"):
            post_json(cfg, {})
        assert server.request_count == 2

    def test_embedder_counts_the_batch_as_failed(self, stub_server):
        server, url = stub_server(lambda body: b"\xff\xfe{}")
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0), dim=4, batch_size=2,
                             max_workers=1)
        with pytest.raises(EmbeddingError, match=url) as exc_info:
            emb.embed(["a", "b", "c"])
        assert exc_info.value.failed_indices == [0, 1, 2]


class TestRemoteEmbedder:
    def test_contract_and_normalization(self, stub_server):
        server, url = stub_server(embedding_response(dim=8))
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0), dim=8,
                             batch_size=2, max_workers=1)
        vectors = emb.embed(["ab", "abcd", "x"])
        assert vectors.shape == (3, 8)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)
        sent = [req["body"]["texts"] for req in server.requests]
        assert sent == [["ab", "abcd"], ["x"]]

    def test_batch_failure_identifies_indices(self, stub_server):
        server, url = stub_server(embedding_response(dim=4), fail_first=99)
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0, backoff_seconds=0.0),
                             dim=4, batch_size=2, max_workers=1)
        with pytest.raises(EmbeddingError) as exc_info:
            emb.embed(["a", "b", "c"])
        assert exc_info.value.failed_indices == [0, 1, 2]

    @pytest.mark.parametrize("reply", [
        *({"vectors": vectors} for vectors in (
            [["a", "b"], [1.0, 0.0]], [[1.0, 0.0], [1.0]], [[math.nan, 1.0], [1.0, 0.0]],
            [[math.inf, 1.0], [1.0, 0.0]], [[10 ** 400, 1.0], [1.0, 0.0]],
            [[True, 1.0], [1.0, 0.0]], [[1.0, 0.0], 5])),
        *({} if value is DELETE else {key: value}
          for key, value in hostile_cases(VECTORS_REPLY))])
    def test_reply_that_is_not_vectors_of_finite_numbers_fails_its_batch(
            self, stub_server, reply):
        # batch 0 gets the bad reply and batch 1 a good one
        server, url = stub_server(lambda body: reply if len(body["texts"]) == 2
                                  else {"vectors": [[0.0, 1.0]]})
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0), dim=2, batch_size=2,
                             max_workers=1)
        with pytest.raises(EmbeddingError) as exc_info:
            emb.embed(["one", "two", "three"])
        assert exc_info.value.failed_indices == [0, 1]
        fault = ("is missing" if reply == {} else
                 "must be a list of equal-length lists of finite numbers, not ")
        assert str(exc_info.value).startswith(
            f"embedding failed for 2 text(s) after retries: {url}: batch 0: key 'vectors' {fault}")

    def test_one_nan_in_a_full_batch_gives_a_short_message(self, stub_server):
        # one NaN in a 32 x 256 reply (the default batch size at --dim 256): the
        # message names the key, and the rejected value's repr is cut
        rows = [[0.5] * 256 for _ in range(32)]
        rows[17][100] = math.nan
        server, url = stub_server(lambda body: {"vectors": rows})
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0), dim=256, max_workers=1)
        with pytest.raises(EmbeddingError) as exc_info:
            emb.embed([f"text {i}" for i in range(32)])
        message = str(exc_info.value)
        assert f"{url}: batch 0: key 'vectors' must be a list of equal-length lists of " \
            "finite numbers, not [[0.5, 0.5" in message
        assert "\n" not in message and len(message) < 400

    def test_shape_mismatch_is_error(self, stub_server):
        server, url = stub_server(lambda body: {"vectors": [[1.0, 0.0]]})
        emb = RemoteEmbedder(RemoteConfig(endpoint=url, retries=0), dim=8, batch_size=4)
        with pytest.raises(EmbeddingError):
            emb.embed(["one", "two"])


class TestRemoteSummarizer:
    def test_contract(self, stub_server):
        def respond(body):
            assert body["max_tokens"] == 200
            return {"summary": "joined: " + " ".join(t[:4] for t in body["texts"])}
        server, url = stub_server(respond)
        summarizer = RemoteSummarizer(RemoteConfig(endpoint=url, retries=0))
        out = summarizer.summarize(["alpha text", "beta text"], 200)
        assert out.startswith("joined: alph")

    def test_window_summaries_fall_back_on_persistent_failure(self, stub_server):
        server, url = stub_server(lambda body: {"summary": "x"}, fail_first=99)
        summarizer = RemoteSummarizer(
            RemoteConfig(endpoint=url, retries=0, backoff_seconds=0.0))
        chunks = [make_chunk(i, f"sentence {i}.") for i in range(5)]
        result = window_summaries(chunks, summarizer)
        assert result == [(tokens, True) for tokens, _ in window_summaries(chunks)]
        assert all(tokens for tokens, _ in result)

    def test_missing_summary_field_is_error(self, stub_server):
        server, url = stub_server(lambda body: {"nope": 1})
        summarizer = RemoteSummarizer(RemoteConfig(endpoint=url, retries=0))
        with pytest.raises(ValueError):
            summarizer.summarize(["text"], 100)
