"""Remote-client retry policy and HTTP error-body reporting.

The bugfix satellites: transport-level failures on *idempotent* reads
retry with bounded exponential backoff (counted, never for writes, never
for HTTP status errors), and an HTTP error response whose body is not
the service's JSON shape surfaces a truncated snippet of the raw body
instead of being silently discarded.
"""

from __future__ import annotations

import io
import json
import sys
from urllib import error as urlerror

import pytest

import repro.server.remote as remote
from repro.obs.metrics import MetricsRegistry
from repro.server.remote import RemoteBackend, RemoteServiceError, ServiceClient


def _url_error() -> urlerror.URLError:
    return urlerror.URLError(ConnectionResetError("peer reset"))


def _http_error(code: int, body: bytes) -> urlerror.HTTPError:
    return urlerror.HTTPError(
        "http://example/objects/k", code, "boom", hdrs=None, fp=io.BytesIO(body)
    )


class FlakyTransport:
    """Replaces ``remote._http``: fail ``failures`` times, then answer."""

    def __init__(self, failures: int, response: bytes = b"", error=None):
        self.failures = failures
        self.response = response
        self.error = error if error is not None else _url_error()
        self.calls: list[tuple[str, str]] = []

    def __call__(self, method, url, *, data=None, content_type=None, timeout=30.0):
        self.calls.append((method, url))
        if len(self.calls) <= self.failures:
            raise self.error
        return self.response


@pytest.fixture
def no_sleep(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(remote.time, "sleep", slept.append)
    return slept


class TestBackendRetry:
    def test_get_retries_transport_failures(self, monkeypatch, no_sleep):
        import pickle

        transport = FlakyTransport(2, pickle.dumps({"v": 1}))
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        assert backend.get("k") == {"v": 1}
        assert len(transport.calls) == 3
        assert backend.retries == 2
        assert len(no_sleep) == 2
        assert no_sleep[0] < no_sleep[1]  # exponential backoff

    def test_get_gives_up_after_bounded_attempts(self, monkeypatch, no_sleep):
        transport = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError):
            backend.get("k")
        assert len(transport.calls) == remote._RETRY_ATTEMPTS
        assert backend.retries == remote._RETRY_ATTEMPTS - 1

    def test_http_status_errors_are_never_retried(self, monkeypatch, no_sleep):
        transport = FlakyTransport(99, error=_http_error(500, b"oops"))
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError):
            backend.get("k")
        assert len(transport.calls) == 1
        assert backend.retries == 0

    def test_writes_are_single_shot(self, monkeypatch, no_sleep):
        transport = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError):
            backend.put("k", [1, 2, 3])
        assert len(transport.calls) == 1
        with pytest.raises(RemoteServiceError):
            backend.delete("k")
        assert len(transport.calls) == 2
        assert backend.retries == 0

    def test_multiget_retries_like_a_read(self, monkeypatch, no_sleep):
        import pickle

        transport = FlakyTransport(1, pickle.dumps({"a": 1}))
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        assert backend.get_many(["a"]) == {"a": 1}
        assert backend.retries == 1

    def test_retries_count_on_the_metrics_registry(self, monkeypatch, no_sleep):
        import pickle

        transport = FlakyTransport(2, pickle.dumps(1))
        monkeypatch.setattr(remote, "_http", transport)
        backend = RemoteBackend("http://127.0.0.1:1")
        registry = MetricsRegistry()
        backend.bind_metrics(registry)
        backend.get("k")
        text = registry.render_prometheus()
        assert "repro_remote_retries_total" in text
        assert 'client="backend"' in text


class TestServiceClientRetry:
    def test_get_retries_posts_do_not(self, monkeypatch, no_sleep):
        transport = FlakyTransport(1, json.dumps({"ok": True}).encode())
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        assert client.stats() == {"ok": True}
        assert client.retries == 1

        transport2 = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport2)
        with pytest.raises(RemoteServiceError):
            client.checkout_many(["v1"])
        assert len(transport2.calls) == 1

    def test_metrics_text_retries(self, monkeypatch, no_sleep):
        transport = FlakyTransport(2, b"# HELP x\n")
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        assert client.metrics_text() == "# HELP x\n"
        assert client.retries == 2


class TestErrorBodyReporting:
    def test_json_error_shape_still_preferred(self, monkeypatch):
        body = json.dumps({"error": "no such version"}).encode()
        transport = FlakyTransport(99, error=_http_error(404, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match="no such version"):
            client.checkout("v404")

    def test_non_json_body_surfaces_truncated_snippet(self, monkeypatch):
        body = b"<html><body>502 Bad Gateway from the proxy</body></html>"
        transport = FlakyTransport(99, error=_http_error(502, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match="Bad Gateway from the proxy"):
            client.checkout("v1")

    def test_snippet_is_truncated(self, monkeypatch):
        body = b"x" * 1000
        transport = FlakyTransport(99, error=_http_error(500, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkout("v1")
        message = str(excinfo.value)
        assert "x" * 200 in message
        assert "x" * 201 not in message

    def test_empty_body_keeps_the_plain_message(self, monkeypatch):
        transport = FlakyTransport(99, error=_http_error(500, b""))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match=r"HTTP 500$"):
            client.checkout("v1")


# --------------------------------------------------------------------- #
# the pooled keep-alive transport, against live servers
# --------------------------------------------------------------------- #
def _lineage(versions: int = 12):
    from repro.storage.repository import Repository

    repo = Repository(cache_size=0)
    oracle: dict = {}
    payload = [f"row,{i}" for i in range(30)]
    for step in range(versions):
        if step:
            payload = payload + [f"appended,{step}"]
        oracle[repo.commit(payload, message=f"step {step}")] = list(payload)
    return repo, oracle


def _start(repo, port: int = 0):
    from repro.server.httpd import serve_in_thread
    from repro.server.service import VersionStoreService

    service = VersionStoreService(repo, cache_size=64)
    server, _thread = serve_in_thread(service, host="127.0.0.1", port=port)
    return server, service


def _stop(server, service) -> None:
    server.shutdown()
    server.server_close()
    service.close()


class TestPooledTransport:
    def test_restarted_server_is_reached_without_retries(self):
        """Idle pooled connections to a server that went away are replaced
        before the next request is written — for a GET and a POST alike."""
        repo, oracle = _lineage()
        vids = list(oracle)
        server, service = _start(repo)
        port = server.server_address[1]
        client = ServiceClient(server.url)
        backend = RemoteBackend(server.url)
        try:
            assert client.checkout(vids[-1])["payload"] == oracle[vids[-1]]
            backend.get(repo.object_id_of(vids[0]))
        finally:
            _stop(server, service)
        server, service = _start(repo, port)
        try:
            assert client.checkout(vids[3])["payload"] == oracle[vids[3]]
            new_vid = client.commit(["after", "restart"], message="post")
            assert client.checkout(new_vid)["payload"] == ["after", "restart"]
            assert backend.get(repo.object_id_of(vids[0])) is not None
            assert client.retries == 0
            assert backend.retries == 0
        finally:
            _stop(server, service)

    def test_post_failing_after_send_is_not_retried(self, no_sleep):
        """A POST whose request reached the server but got no answer
        surfaces as RemoteServiceError after exactly one attempt, while a
        GET against the same server retries."""
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        requests: list[bytes] = []

        def swallow() -> None:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    requests.append(conn.recv(65536))

        thread = threading.Thread(target=swallow, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                "http://127.0.0.1:%d" % listener.getsockname()[1], timeout=5
            )
            with pytest.raises(RemoteServiceError) as excinfo:
                client.commit(["x"], message="once")
            assert excinfo.value.status is None
            assert len(requests) == 1
            assert requests[0].startswith(b"POST /commit ")
            with pytest.raises(RemoteServiceError):
                client.checkout("v0")
            assert len(requests) == 1 + remote._RETRY_ATTEMPTS
            assert client.retries == remote._RETRY_ATTEMPTS - 1
        finally:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
            listener.close()
            thread.join(timeout=5)

    def test_threads_sharing_a_client_never_share_a_socket(self, monkeypatch):
        import threading

        repo, oracle = _lineage()
        vids = list(oracle)
        server, service = _start(repo)
        accepted: list[object] = []
        original_process = type(server).process_request

        def counting_process(self, request, client_address):
            accepted.append(request)
            return original_process(self, request, client_address)

        monkeypatch.setattr(type(server), "process_request", counting_process)
        in_use: set[int] = set()
        guard = threading.Lock()
        overlaps: list[int] = []
        acquire = remote._ConnectionPool.acquire
        release = remote._ConnectionPool.release

        def tracked_acquire(self, timeout):
            conn = acquire(self, timeout)
            with guard:
                if id(conn) in in_use:
                    overlaps.append(id(conn))
                in_use.add(id(conn))
            return conn

        def tracked_release(self, conn):
            with guard:
                in_use.discard(id(conn))
            return release(self, conn)

        monkeypatch.setattr(remote._ConnectionPool, "acquire", tracked_acquire)
        monkeypatch.setattr(remote._ConnectionPool, "release", tracked_release)
        client = ServiceClient(server.url)
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(offset: int) -> None:
            barrier.wait()
            try:
                for step in range(20):
                    vid = vids[(offset + step) % len(vids)]
                    assert client.checkout(vid)["payload"] == oracle[vid]
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings inside the pool
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            _stop(server, service)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not overlaps
        assert len(accepted) <= 8  # 160 requests rode at most 8 connections
