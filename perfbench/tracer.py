"""Traced ``repro serve``: time each layer's public functions, then serve.

Usage::

    python3 -u perfbench/tracer.py SPANS.json serve REPO --port 0 ...

Everything after ``SPANS.json`` is handed unchanged to
``repro.cli.main``.  Before that call, the public functions of every
serving layer are replaced by timing wrappers, so the server runs
unmodified ``repro`` code with spans recorded around it.

* A call to ``_Handler.do_GET`` / ``do_POST`` opens a request: the
  handler thread's root span.  Every wrapped call on that thread until
  the root returns is folded into the request's record as
  ``name -> [calls, self seconds, inclusive seconds]``; self time is the
  span minus the wrapped calls nested inside it, so the self times of a
  request partition its handler time.
* Wrapped calls on threads with no open request (replay pool workers,
  background repack threads) are kept as ``(name, start, self seconds)``
  busy-time events.
* Names starting with ``~`` are side measurements (the exclusive
  barrier's hold time) that overlap other spans; they are not part of
  the partition.

Spans stay in memory and are written to ``SPANS.json`` when
``repro.cli.main`` returns (SIGINT stops the server).  Timestamps are
``time.perf_counter()``, which reads ``CLOCK_MONOTONIC`` on Linux, so
they compare directly with the load generator's clock.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

_local = threading.local()
_requests: list[tuple[float, float, str, str, dict]] = []
_background: list[tuple[str, float, float]] = []
_connections: list[float] = []


def _state():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
        _local.request = None
    return stack


def _close(name: str, started: float, ended: float, child: float, stack: list) -> None:
    elapsed = ended - started
    if stack:
        stack[-1] += elapsed
    request = _local.request
    if request is None:
        _background.append((name, started, elapsed - child))
        return
    entry = request.get(name)
    if entry is None:
        request[name] = [1, elapsed - child, elapsed]
    else:
        entry[0] += 1
        entry[1] += elapsed - child
        entry[2] += elapsed


def span(name: str, func):
    """Wrap ``func`` so each call is recorded as a span called ``name``."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = _state()
        stack.append(0.0)
        started = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            ended = perf_counter()
            _close(name, started, ended, stack.pop(), stack)

    return wrapper


def root(func):
    """Wrap a request handler method: the span that opens a request."""

    @functools.wraps(func)
    def wrapper(handler, *args, **kwargs):
        stack = _state()
        _local.request = request = {}
        stack.append(0.0)
        started = perf_counter()
        try:
            return func(handler, *args, **kwargs)
        finally:
            ended = perf_counter()
            child = stack.pop()
            request["httpd.root"] = [1, ended - started - child, ended - started]
            _requests.append((started, ended, handler.command, handler.path, request))
            _local.request = None

    return wrapper


def _leaf(name: str, started: float, ended: float) -> None:
    """Record an already-finished span with no children (a lock wait)."""
    _close(name, started, ended, 0.0, _state())


def _side(name: str, seconds: float) -> None:
    """Add to a side measurement of the open request (not a partition span)."""
    request = getattr(_local, "request", None)
    if request is None:
        _background.append((name, perf_counter() - seconds, seconds))
        return
    entry = request.setdefault(name, [0, 0.0, 0.0])
    entry[0] += 1
    entry[1] += seconds
    entry[2] += seconds


def _patch_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that imported it."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _calibrate(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op in this process."""

    def noop():
        return None

    wrapped = span("calibration", noop)
    _state()
    _local.request = {}
    try:
        best = float("inf")
        for _ in range(5):
            started = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - started
            started = perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, (perf_counter() - started - bare) / calls)
    finally:
        _local.request = None
    return max(best, 0.0)


def install() -> None:
    """Put timing wrappers around each serving layer's public functions."""
    import repro.cli as cli
    from repro.core import problems
    from repro.delta.line_diff import LineDiffEncoder
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.server.httpd import _Handler
    from repro.server.service import VersionStoreService
    from repro.storage.batch import BatchMaterializer
    from repro.storage.catalog import MetadataCatalog, SQLiteBackend
    from repro.storage.concurrency import EpochCoordinator, StripedLockManager
    from repro.storage.objects import ObjectStore
    from repro.storage.repack import OnlineRepacker
    from repro.storage.repository import Repository

    methods = {
        _Handler: {"_send_json": "httpd.write", "_read_json": "httpd.read"},
        VersionStoreService: {
            "checkout": "service.checkout",
            "checkout_many": "service.checkout_many",
            "commit": "service.commit",
            "repack": "service.repack",
            "stats": "service.stats",
        },
        ObjectStore: {
            "chain_ids": "objects.chain_walk",
            "subtree_stripe_key": "objects.chain_walk",
            "get": "objects.fetch",
            "get_many": "objects.fetch",
        },
        BatchMaterializer: {
            "materialize": "batch.materialize",
            "materialize_many": "batch.materialize_many",
            "warm_chain_cost": "batch.warm_cost",
        },
        LineDiffEncoder: {"apply": "delta.apply", "diff": "delta.diff"},
        SQLiteBackend: {"get": "backend.get", "get_many": "backend.get", "put": "backend.put"},
        MetadataCatalog: {
            "record_commit": "catalog.record_commit",
            "workload_record": "catalog.workload_record",
        },
        Repository: {
            "commit": "repository.commit",
            "sync": "catalog.sync",
            "build_cost_model": "repack.cost_model",
        },
        OnlineRepacker: {"rebuild": "repack.stage", "swap": "repack.swap"},
        EpochCoordinator: {
            "acquire_shared": "concurrency.shared_wait",
            "acquire_exclusive": "concurrency.exclusive_wait",
        },
        Counter: {"inc": "obs.metrics"},
        Gauge: {"set": "obs.metrics", "inc": "obs.metrics"},
        Histogram: {"observe": "obs.metrics"},
    }
    for owner, names in methods.items():
        for attribute, name in names.items():
            setattr(owner, attribute, span(name, getattr(owner, attribute)))
    for attribute in ("do_GET", "do_POST"):
        setattr(_Handler, attribute, root(getattr(_Handler, attribute)))

    original_setup = _Handler.setup

    def setup(handler):
        _connections.append(perf_counter())
        return original_setup(handler)

    _Handler.setup = setup

    holding = StripedLockManager.holding

    @contextmanager
    def timed_holding(self, key, observer=None):
        started = perf_counter()
        with holding(self, key, observer):
            _leaf("concurrency.stripe_wait", started, perf_counter())
            yield

    StripedLockManager.holding = timed_holding

    acquire = EpochCoordinator.acquire_exclusive
    release = EpochCoordinator.release_exclusive

    def acquire_exclusive(self):
        acquire(self)
        _local.exclusive_since = perf_counter()

    def release_exclusive(self):
        since = getattr(_local, "exclusive_since", None)
        if since is not None:
            _side("~concurrency.exclusive_hold", perf_counter() - since)
            _local.exclusive_since = None
        release(self)

    EpochCoordinator.acquire_exclusive = acquire_exclusive
    EpochCoordinator.release_exclusive = release_exclusive

    _patch_everywhere(problems.solve, span("repack.solve", problems.solve))
    _patch_everywhere(cli.save_repository, span("cli.save_state", cli.save_repository))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json serve REPO [serve flags]", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    calibration = _calibrate()
    install()
    import repro.cli

    try:
        code = repro.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "wrapper_seconds": calibration,
                    "requests": list(_requests),
                    "background": list(_background),
                    "connections": list(_connections),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
