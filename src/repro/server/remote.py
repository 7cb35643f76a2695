"""Clients for a remote ``repro serve`` process.

Two ways to consume a running :mod:`repro.server.httpd` server:

* :class:`RemoteBackend` — a :class:`~repro.storage.backends.StorageBackend`
  speaking the server's ``/objects`` endpoints, so one repro process can
  mount another's object store (``open_backend("http://HOST:PORT")``).
  Object bytes travel pickled, exactly as the filesystem backends store
  them on disk — which makes this a *trusted-peer* protocol: only point it
  at servers you run.
* :class:`ServiceClient` — a thin JSON client for the service API
  (commit / checkout / checkout_many / stats / plan), used by the
  remote-aware CLI and handy in tests.

Both are pure standard library and share one transport: a small pool
of keep-alive ``http.client`` connections per server (see
:class:`_ConnectionPool`), so a client pays the TCP handshake once rather
than on every call.  Failures keep the ``urllib.error`` shapes
(``HTTPError`` for a status >= 400, ``URLError`` for transport faults)
that the clients translate into ``KeyError`` / :class:`RemoteServiceError`.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import pickle
import random
import select
import threading
import time
import weakref
from typing import Any, Callable, Iterator, Sequence
from urllib import error as urlerror
from urllib.parse import urlsplit

from ..exceptions import RepositoryError
from ..storage.backends import BackendSpecError, StorageBackend, register_backend

__all__ = [
    "RemoteBackend",
    "SecureRemoteBackend",
    "ServiceClient",
    "RemoteServiceError",
]

#: Total attempts (first try included) for idempotent exchanges.
_RETRY_ATTEMPTS = 3
#: Exponential backoff: 0.05s, 0.1s, ... capped, each scaled by jitter.
_RETRY_BASE_DELAY = 0.05
_RETRY_MAX_DELAY = 2.0


class RemoteServiceError(RepositoryError):
    """The remote service answered with an error (or not at all).

    ``status`` carries the HTTP status code when one was received
    (``None`` for transport failures) — replica-group clients branch on
    409 to find the lease holder instead of string-matching messages.
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


#: Idle connections kept per server; a burst beyond this many concurrent
#: callers opens extra connections that are closed when they come back.
_MAX_IDLE = 16


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    """Close pooled connections (module-level: the finalizer hook)."""
    while connections:
        connections.pop().close()


def _peer_closed(conn: http.client.HTTPConnection) -> bool:
    """Zero-timeout readability probe of an idle keep-alive connection.

    Between exchanges a healthy connection has nothing to read; it turns
    readable only when the server closed it (EOF) or broke the protocol,
    so a readable idle socket must not carry the next request.
    """
    sock = conn.sock
    if sock is None:
        return True
    try:
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    except (OSError, ValueError):
        return True


class _ConnectionPool:
    """Idle keep-alive connections to one server (``scheme``, ``netloc``).

    A connection is owned by exactly one in-flight exchange: :meth:`acquire`
    hands out an idle connection (or a new one) and :meth:`release` takes
    it back once its response was read to the end.  Idle connections the
    server has closed meanwhile are detected and replaced *before* a
    request is written to them.
    """

    def __init__(self, scheme: str, netloc: str) -> None:
        self._factory = (
            http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        )
        self.netloc = netloc
        self.pid = os.getpid()
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def acquire(self, timeout: float) -> http.client.HTTPConnection:
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._factory(self.netloc, timeout=timeout)
            if not _peer_closed(conn):
                conn.timeout = timeout
                conn.sock.settimeout(timeout)
                return conn
            conn.close()

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < _MAX_IDLE:
                self._idle.append(conn)
                return
        conn.close()


_POOLS: "weakref.WeakValueDictionary[tuple[str, str], _ConnectionPool]" = (
    weakref.WeakValueDictionary()
)
_POOLS_LOCK = threading.Lock()


def _pool_for(url: str) -> _ConnectionPool:
    """The process-wide pool for ``url``'s server.

    Clients keep a strong reference to their pool; once the last client
    of a server is gone its idle connections are closed.  A forked child
    never reuses its parent's sockets: pools are per process.
    """
    parts = urlsplit(url)
    key = (parts.scheme, parts.netloc)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None or pool.pid != os.getpid():
            pool = _POOLS[key] = _ConnectionPool(*key)
        return pool


def _http(
    method: str,
    url: str,
    *,
    data: bytes | None = None,
    content_type: str | None = None,
    timeout: float = 30.0,
) -> bytes:
    """One HTTP exchange on a pooled keep-alive connection.

    Raises ``urllib.error.HTTPError`` on 4xx/5xx and ``URLError`` when the
    exchange fails at the transport level (connect, send or receive).
    """
    parts = urlsplit(url)
    target = parts.path or "/"
    if parts.query:
        target = f"{target}?{parts.query}"
    headers = {"Content-Type": content_type} if content_type is not None else {}
    pool = _pool_for(url)
    conn = pool.acquire(timeout)
    try:
        conn.request(method, target, body=data, headers=headers)
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as error:
        conn.close()
        raise urlerror.URLError(error) from error
    if response.status >= 400:
        # An error may leave an unread request body behind on the server
        # side, which then drops the connection: never reuse it.
        conn.close()
        raise urlerror.HTTPError(
            url, response.status, response.reason, response.headers, io.BytesIO(body)
        )
    if response.will_close:
        conn.close()
    else:
        pool.release(conn)
    return body


def _http_idempotent(
    method: str,
    url: str,
    *,
    data: bytes | None = None,
    content_type: str | None = None,
    timeout: float = 30.0,
    attempts: int = _RETRY_ATTEMPTS,
    on_retry: Callable[[], None] | None = None,
) -> bytes:
    """:func:`_http` with bounded retry, for *idempotent* exchanges only.

    Only transport-level failures are retried — the connection never
    reached a server that processed the request, so repeating it is safe
    and usually rides out a restart or a dropped socket.  ``HTTPError``
    (a subclass of ``URLError``, but the server *did* answer) is re-raised
    immediately: a 4xx/5xx would come back identical on every attempt.
    Backoff is exponential with jitter so a fleet of clients does not
    hammer a recovering server in lockstep.
    """
    attempts = max(1, int(attempts))
    for attempt in range(1, attempts + 1):
        try:
            return _http(
                method, url, data=data, content_type=content_type, timeout=timeout
            )
        except urlerror.HTTPError:
            raise
        except (urlerror.URLError, ConnectionError, TimeoutError):
            if attempt >= attempts:
                raise
            if on_retry is not None:
                on_retry()
            delay = min(_RETRY_MAX_DELAY, _RETRY_BASE_DELAY * (2 ** (attempt - 1)))
            time.sleep(delay * (0.5 + random.random() / 2))
    raise AssertionError("unreachable")  # pragma: no cover


class RemoteBackend(StorageBackend):
    """Keyed blob store backed by another repro process's ``/objects`` API.

    Raises :class:`KeyError` on missing keys like every other backend, so
    the object store's error translation works unchanged over the network.
    Connection-level failures surface as :class:`RemoteServiceError` rather
    than ``KeyError`` — a dead server must not masquerade as an empty one.
    """

    scheme = "http"

    #: The server walks delta-chain base links server-side, so the object
    #: store can fetch a whole chain segment in one ``multiget`` round trip.
    follows_chains = True

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        if not base_url:
            raise BackendSpecError("http:// backend requires HOST:PORT")
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Held for its lifetime: the pool (shared with every other client
        # of this server) lives while some client does.
        self._pool = _pool_for(self.base_url)
        #: Transport-level retries performed on idempotent reads.
        self.retries = 0
        self._m_retries: Any = None

    @classmethod
    def from_spec(cls, path: str) -> "RemoteBackend":
        """Open ``http://HOST:PORT`` (the part after ``http://``)."""
        return cls(path)

    def bind_metrics(self, registry: Any) -> None:
        """Attach the retry counter (the object store forwards its registry)."""
        self._m_retries = registry.counter(
            "repro_remote_retries_total",
            "Transport-level retries of idempotent remote requests, by client.",
            ("client",),
        ).labels("backend")

    def _note_retry(self) -> None:
        self.retries += 1
        if self._m_retries is not None:
            self._m_retries.inc()

    # -- StorageBackend -------------------------------------------------- #
    def put(self, key: str, value: Any) -> None:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._exchange("PUT", key, data=data)

    def get(self, key: str) -> Any:
        return pickle.loads(self._exchange("GET", key))

    def delete(self, key: str) -> None:
        self._exchange("DELETE", key)

    def get_many(
        self, keys: Sequence[str], *, follow_bases: bool = False
    ) -> dict[str, Any]:
        """Fetch many objects in one ``POST /objects/multiget`` round trip.

        Absent keys are omitted from the result (mirroring the base-class
        contract).  With ``follow_bases`` the server also includes every
        object transitively reachable through delta base links — the whole
        chain of each requested key in a single exchange, which is what cuts
        remote chain replay from one round trip per object to one per chain
        segment.
        """
        if not keys:
            return {}
        url = f"{self.base_url}/objects/multiget"
        body = json.dumps(
            {"keys": list(keys), "follow_bases": bool(follow_bases)}
        ).encode("utf-8")
        try:
            # POST by shape, read by semantics: multiget mutates nothing,
            # so it retries like the GET paths.
            raw = _http_idempotent(
                "POST",
                url,
                data=body,
                content_type="application/json",
                timeout=self.timeout,
                on_retry=self._note_retry,
            )
        except urlerror.HTTPError as error:
            raise RemoteServiceError(
                f"POST {url} failed: HTTP {error.code} {error.reason}"
            ) from error
        except urlerror.URLError as error:
            raise RemoteServiceError(
                f"cannot reach object store at {self.base_url}: {error.reason}"
            ) from error
        return pickle.loads(raw)

    def keys(self) -> Iterator[str]:
        raw = self._exchange("GET", None)
        return iter(json.loads(raw.decode("utf-8"))["keys"])

    def __contains__(self, key: str) -> bool:
        # HEAD probe instead of the base class's get(): the object store
        # tests existence before every write, and downloading (and
        # unpickling) the full payload just to answer `in` would make each
        # commit over http:// transfer entire objects.
        try:
            self._exchange("HEAD", key)
        except KeyError:
            return False
        return True

    def spec(self) -> str:
        return self.base_url

    # -- internals ------------------------------------------------------- #
    def _exchange(self, method: str, key: str | None, data: bytes | None = None) -> bytes:
        url = f"{self.base_url}/objects"
        if key is not None:
            url = f"{url}/{key}"
        try:
            # Reads (GET/HEAD) retry through transport failures; writes
            # (PUT/DELETE) stay single-shot — a repeated write that half
            # landed the first time is the caller's call to make.
            if method in ("GET", "HEAD"):
                return _http_idempotent(
                    method,
                    url,
                    data=data,
                    content_type=(
                        "application/octet-stream" if data is not None else None
                    ),
                    timeout=self.timeout,
                    on_retry=self._note_retry,
                )
            return _http(
                method,
                url,
                data=data,
                content_type="application/octet-stream" if data is not None else None,
                timeout=self.timeout,
            )
        except urlerror.HTTPError as error:
            if error.code == 404 and key is not None:
                raise KeyError(key) from None
            raise RemoteServiceError(
                f"{method} {url} failed: HTTP {error.code} {error.reason}"
            ) from error
        except urlerror.URLError as error:
            raise RemoteServiceError(
                f"cannot reach object store at {self.base_url}: {error.reason}"
            ) from error


class SecureRemoteBackend(RemoteBackend):
    """:class:`RemoteBackend` over TLS (``https://`` specs).

    The stdlib server in :mod:`repro.server.httpd` speaks plain HTTP; this
    scheme exists for deployments that front it with a TLS terminator.
    """

    scheme = "https"

    @classmethod
    def from_spec(cls, path: str) -> "SecureRemoteBackend":
        return cls(f"https://{path}")


register_backend(RemoteBackend)
register_backend(SecureRemoteBackend)


class ServiceClient:
    """JSON client for the version-store service API."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Held for its lifetime: the pool (shared with every other client
        # of this server) lives while some client does.
        self._pool = _pool_for(self.base_url)
        #: Transport-level retries performed on idempotent reads.
        self.retries = 0
        self._m_retries: Any = None

    def bind_metrics(self, registry: Any) -> None:
        """Attach the retry counter to *registry*."""
        self._m_retries = registry.counter(
            "repro_remote_retries_total",
            "Transport-level retries of idempotent remote requests, by client.",
            ("client",),
        ).labels("service")

    def _note_retry(self) -> None:
        self.retries += 1
        if self._m_retries is not None:
            self._m_retries.inc()

    # -- service calls --------------------------------------------------- #
    def healthz(self) -> dict[str, Any]:
        return self._get("/healthz")

    def stats(self) -> dict[str, Any]:
        return self._get("/stats")

    def checkout(self, version_id: str) -> dict[str, Any]:
        return self._get(f"/checkout/{version_id}")

    def checkout_many(self, version_ids: Sequence[str]) -> dict[str, Any]:
        return self._post("/checkout_many", {"versions": list(version_ids)})

    def commit(
        self,
        payload: Any,
        *,
        parents: Sequence[str] | None = None,
        message: str = "",
        branch: str | None = None,
    ) -> str:
        body: dict[str, Any] = {"payload": payload, "message": message}
        if parents is not None:
            body["parents"] = list(parents)
        if branch is not None:
            body["branch"] = branch
        return self._post("/commit", body)["version"]

    def plan(self, **options: Any) -> dict[str, Any]:
        return self._post("/plan", options)

    def metrics_text(self) -> str:
        """The server's ``GET /metrics`` Prometheus text exposition, raw."""
        url = f"{self.base_url}/metrics"
        try:
            raw = _http_idempotent(
                "GET",
                url,
                data=None,
                content_type=None,
                timeout=self.timeout,
                on_retry=self._note_retry,
            )
        except urlerror.HTTPError as error:
            raise RemoteServiceError(
                f"GET {url} failed: HTTP {error.code}"
            ) from error
        except urlerror.URLError as error:
            raise RemoteServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from error
        return raw.decode("utf-8")

    def repack(self, **options: Any) -> dict[str, Any]:
        """Trigger a server-side online repack (``POST /repack``).

        Options mirror the endpoint: ``problem``, ``threshold``,
        ``threshold_factor``, ``hop_limit``, ``algorithm``, ``workload``
        (default true — plan against the server's persisted workload log)
        and ``dry_run``.
        """
        return self._post("/repack", options)

    def snapshots(self) -> dict[str, Any]:
        """Epoch history from the metadata catalog (``GET /snapshots``)."""
        return self._get("/snapshots")

    def prune(self) -> dict[str, Any]:
        """Drop dead epochs and sweep garbage (``POST /prune``).

        On a replica-group member that does not hold the planner lease
        the server answers 409 — prune from the holder instead.
        """
        return self._post("/prune", {})

    # -- internals ------------------------------------------------------- #
    def _get(self, path: str) -> dict[str, Any]:
        return self._json("GET", path, None, retry=True)

    def _post(self, path: str, body: dict[str, Any]) -> dict[str, Any]:
        # POSTs are single-shot: commit / repack are not idempotent, and a
        # request the server may have half-processed must not be replayed.
        return self._json("POST", path, json.dumps(body).encode("utf-8"))

    def _json(
        self, method: str, path: str, data: bytes | None, *, retry: bool = False
    ) -> dict[str, Any]:
        url = f"{self.base_url}{path}"
        content_type = "application/json" if data is not None else None
        try:
            if retry:
                raw = _http_idempotent(
                    method,
                    url,
                    data=data,
                    content_type=content_type,
                    timeout=self.timeout,
                    on_retry=self._note_retry,
                )
            else:
                raw = _http(
                    method,
                    url,
                    data=data,
                    content_type=content_type,
                    timeout=self.timeout,
                )
        except urlerror.HTTPError as error:
            raise RemoteServiceError(
                f"{method} {url} failed: HTTP {error.code}"
                + _error_detail(error),
                status=error.code,
            ) from error
        except urlerror.URLError as error:
            raise RemoteServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from error
        return json.loads(raw.decode("utf-8"))


def _error_detail(error: urlerror.HTTPError) -> str:
    """Best-effort ``" — detail"`` suffix from an HTTP error body.

    Prefers the service's ``{"error": ...}`` JSON shape; a non-JSON body
    (a proxy's HTML page, a traceback) is kept as a truncated snippet
    instead of being silently discarded — an opaque ``HTTP 502`` with the
    actual complaint thrown away is what made these failures undebuggable.
    """
    try:
        body = error.read()
    except Exception:
        return ""
    if not body:
        return ""
    try:
        detail = str(json.loads(body.decode("utf-8")).get("error", ""))
    except Exception:
        detail = body.decode("utf-8", "replace").strip()
        if len(detail) > 200:
            detail = detail[:200] + "…"
    return f" — {detail}" if detail else ""
