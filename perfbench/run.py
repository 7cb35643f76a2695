"""Client-observed benchmark of ``repro serve`` over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 10 --trace 0

Each run builds a ``sqlite://`` store through the library, starts the real
``repro serve`` entry point in a child process with default flags (only
``--cache-size`` differs on ``cold_read``) and drives it from this one
process with two closed-loop clients.  Every payload a client receives is
compared with the payload that was committed.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the server under
``perfbench/tracer.py`` and reports the per-layer split.  The last line of
standard output is the JSON result; the line before it is a JSON report
with every metric, sample counts and run metadata.  See
``perfbench/DESIGN.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLIENTS = 2
SETUP_REPEATS = 5
ROWS = 200
DEPTH = 60  # versions per branch below the shared root
ZIPF_S = 1.1
# Consecutive Zipf ranks walk the branches round-robin and the depths in
# strides of 37 (coprime to DEPTH), so every seed's hot set spans all
# depths alike and phi_expected does not swing with the seed.
DEPTH_STRIDE = 37
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
# warm_read draws from the HOT_SET hottest versions, fewer than the
# default 256-payload cache holds.
HOT_SET = 160
# Operations per client per second of --seconds on ingest (see workload_ingest).
INGEST_OPS_PER_SECOND = 24


# workload -> (branches in the store, --cache-size; None keeps the default 256).
# Why each workload exists is in BENCHMARK.json and DESIGN.md.
SHAPES = {
    "warm_read": (8, None),
    "cold_read": (8, 32),
    "ingest": (8, None),
    "repack": (4, None),
}


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def _row(rng: random.Random, key: int) -> str:
    return f"{key},{rng.choice('abcdefgh')}{rng.randrange(10**6)},{rng.random():.6f},{rng.randrange(1000)}"


def evolve(rng: random.Random, payload: list[str]) -> list[str]:
    """The next version: three rows edited in place and one appended."""
    rows = list(payload)
    for _ in range(3):
        index = rng.randrange(len(rows))
        rows[index] = _row(rng, index)
    rows.append(_row(rng, len(rows)))
    return rows


@dataclass
class Store:
    """A built repository and the oracle of every payload committed to it."""

    directory: Path
    payloads: dict[str, list[str]]
    ranked: list[str]  # version ids, hottest first
    heads: dict[str, tuple[str, list[str]]]  # branch -> (head id, payload)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def full_size(self) -> float:
        from repro.delta.base import payload_size

        with self.lock:
            return sum(payload_size(payload) for payload in self.payloads.values())


def build_store(directory: Path, branches: int, seed: int) -> Store:
    """Commit a root and ``branches`` chains of DEPTH versions through the library."""
    from repro.cli import save_repository
    from repro.delta.line_diff import LineDiffEncoder
    from repro.storage.repository import Repository

    directory.mkdir(parents=True)
    rng = random.Random(f"store-{seed}")
    repo = Repository(
        encoder=LineDiffEncoder(),
        backend=f"sqlite://{directory / 'catalog.db'}",
        delta_against_parent=True,
    )
    repo.backend_spec = "sqlite://catalog.db"
    root_payload = [_row(rng, key) for key in range(ROWS)]
    root = repo.commit(root_payload, message="root")
    payloads = {root: root_payload}
    grid: list[list[str]] = []
    heads = {}
    for index in range(branches):
        name = "main" if index == 0 else f"b{index}"
        if index:
            repo.branch(name, at=root)
        repo.switch(name)
        payload, chain = root_payload, []
        for _ in range(DEPTH):
            payload = evolve(rng, payload)
            vid = repo.commit(payload)
            payloads[vid] = payload
            chain.append(vid)
        grid.append(chain)
        heads[name] = (chain[-1], payload)
    save_repository(repo, str(directory))
    order = list(range(branches))
    random.Random(f"ranks-{seed}").shuffle(order)
    ranked = [
        grid[order[rank % branches]][(rank // branches * DEPTH_STRIDE) % DEPTH]
        for rank in range(branches * DEPTH)
    ]
    return Store(directory, payloads, ranked, heads)


def zipf_multiset(versions: list[str], total: int) -> list[str]:
    """About ``total`` picks, rank r repeated round(C / (r+1)**ZIPF_S) times.

    Cycling through a reshuffled multiset instead of sampling keeps the
    logged access frequencies the same shape on every seed, so the
    workload-aware repack plans, and phi_expected prices, alike.
    """
    scale = total / sum(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(versions)))
    return [
        vid
        for rank, vid in enumerate(versions)
        for _ in range(round(scale / (rank + 1) ** ZIPF_S))
    ]


# --------------------------------------------------------------------- #
# the server under test
# --------------------------------------------------------------------- #
class Server:
    """``repro serve`` in a child process (optionally under the tracer)."""

    def __init__(self, repo_dir: Path, cache_size: int | None, spans: Path | None) -> None:
        entry = [sys.executable, "-u"]
        entry += [str(HERE / "tracer.py"), str(spans)] if spans else ["-m", "repro"]
        argv = entry + ["serve", str(repo_dir), "--port", "0"]
        if cache_size is not None:
            argv += ["--cache-size", str(cache_size)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_path = repo_dir / "server.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(ROOT)
            )
        self.host, self.port = self._read_address()

    def _read_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if " on http://" in line:
                    url = urlparse(line.split(" on ", 1)[1].split()[0])
                    return url.hostname, url.port
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if request_once(self.host, self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request_once(host: str, port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        return _exchange(conn, method, path, body)
    finally:
        conn.close()


def _exchange(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def read_stats(server: Server) -> dict:
    status, raw = request_once(server.host, server.port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(raw)


# --------------------------------------------------------------------- #
# load generation
# --------------------------------------------------------------------- #
class Client:
    """One closed-loop client: times each request and checks its payload."""

    def __init__(self, server: Server, store: Store) -> None:
        self.server, self.store = server, store
        self.conn: http.client.HTTPConnection | None = None
        self.samples: list[tuple[str, float, float]] = []  # (op, start, end)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: list[str] = []

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def _fail(self, message: str, *, mismatch: bool = False) -> None:
        self.failed += 1
        self.mismatches += mismatch
        if len(self.errors) < 5:
            self.errors.append(message)

    def _timed(self, op: str, method: str, path: str, body=None):
        """Send one request on the keep-alive connection; None on failure."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=REQUEST_TIMEOUT)
        self.attempted += 1
        started = time.perf_counter()
        try:
            status, raw = _exchange(self.conn, method, path, body)
        except (OSError, http.client.HTTPException) as error:
            self.close()
            self._fail(f"{op}: {type(error).__name__}: {error}")
            return None
        ended = time.perf_counter()
        if status != 200:
            self._fail(f"{op}: HTTP {status} {raw[:200]!r}")
            return None
        self.samples.append((op, started, ended))
        return json.loads(raw)

    def _check(self, vid: str, payload) -> bool:
        with self.store.lock:
            expected = self.store.payloads.get(vid)
        if payload != expected:
            self._fail(f"payload mismatch for {vid}", mismatch=True)
            return False
        return True

    def checkout(self, vid: str) -> None:
        body = self._timed("checkout", "GET", f"/checkout/{vid}")
        if body is not None:
            self._check(vid, body.get("payload"))

    def checkout_many(self, vids: list[str]) -> None:
        body = self._timed("checkout_many", "POST", "/checkout_many", {"versions": vids})
        if body is None:
            return
        items = body.get("items", {})
        if sorted(items) != sorted(set(vids)):
            self._fail("checkout_many returned the wrong versions", mismatch=True)
            return
        for vid in vids:
            if not self._check(vid, items[vid].get("payload")):
                return


class ServiceClientLoad(Client):
    """A client on the repo's own ``ServiceClient`` (one connection per call)."""

    def __init__(self, server: Server, store: Store) -> None:
        super().__init__(server, store)
        from repro.server.remote import ServiceClient

        self.service = ServiceClient(f"http://{server.host}:{server.port}", timeout=REQUEST_TIMEOUT)

    def _call(self, op: str, call, *args, **kwargs):
        from repro.exceptions import ReproError

        self.attempted += 1
        started = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except (OSError, ReproError) as error:
            self._fail(f"{op}: {type(error).__name__}: {error}")
            return None
        self.samples.append((op, started, time.perf_counter()))
        return result

    def checkout(self, vid: str) -> None:
        body = self._call("checkout", self.service.checkout, vid)
        if body is not None:
            self._check(vid, body.get("payload"))

    def commit(self, payload: list[str], branch: str) -> str | None:
        vid = self._call("commit", self.service.commit, payload, branch=branch)
        if vid is not None:
            with self.store.lock:
                if vid in self.store.payloads:
                    self._fail(f"commit reused version id {vid}", mismatch=True)
                    return None
                self.store.payloads[vid] = payload
        return vid


def run_clients(loops) -> None:
    threads = [threading.Thread(target=loop, daemon=True) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def begin_window(server: Server, clients: list[Client]) -> tuple[dict, float]:
    """Read /stats, then open the timed window: the counters' baseline."""
    stats = read_stats(server)
    for client in clients:
        client.samples.clear()
    return stats, time.perf_counter()


# --------------------------------------------------------------------- #
# workloads: each warms up untimed, then returns
# (stats at window start, window start, window end, extra report fields)
# --------------------------------------------------------------------- #
class Picks:
    """One seeded stream of version ids that both clients draw from.

    Every entry of ``items`` comes once per pass, in a new order each pass,
    so whatever the window holds covers the mix evenly and the logged
    access frequencies keep the same shape on every seed.
    """

    def __init__(self, rng: random.Random, items: list[str]) -> None:
        self._rng, self._items = rng, list(items)
        self._queue: list[str] = []
        self._lock = threading.Lock()

    def take(self, count: int = 1) -> list[str]:
        with self._lock:
            taken = []
            while len(taken) < count:
                if not self._queue:
                    self._queue = list(self._items)
                    self._rng.shuffle(self._queue)
                taken.append(self._queue.pop())
            return taken


def read_loop(client: Client, picks: Picks, done, *, many_every: int = 0) -> None:
    """Closed loop until ``done()``; every ``many_every``-th op is a checkout_many of 16."""
    step = 0
    while not done():
        step += 1
        if many_every and step % many_every == 0:
            client.checkout_many(picks.take(16))
        else:
            client.checkout(picks.take()[0])


def workload_warm_read(server, store, clients, seed, seconds):
    hot = store.ranked[:HOT_SET]
    for index, vid in enumerate(reversed(hot)):  # untimed pass warms the cache
        clients[index % CLIENTS].checkout(vid)
    picks = Picks(random.Random(f"warm-{seed}"), zipf_multiset(hot, 480))
    return timed_reads(server, clients, picks, seconds, many_every=0)


def workload_cold_read(server, store, clients, seed, seconds):
    picks = Picks(random.Random(f"cold-{seed}"), store.ranked)
    for index, vid in enumerate(picks.take(40)):  # untimed: fill the 32-payload cache
        clients[index % CLIENTS].checkout(vid)
    return timed_reads(server, clients, picks, seconds, many_every=4)


def timed_reads(server, clients, picks, seconds, *, many_every):
    before, start = begin_window(server, clients)
    deadline = start + seconds
    run_clients(
        lambda client=client: read_loop(
            client, picks, lambda: time.perf_counter() >= deadline, many_every=many_every
        )
        for client in clients
    )
    return before, start, time.perf_counter(), {}


def workload_ingest(server, store, clients, seed, seconds):
    rngs = [random.Random(f"ingest-{seed}-{index}") for index in range(CLIENTS)]

    def loop(client: ServiceClientLoad, index: int, done) -> None:
        rng, branch = rngs[index], f"b{index + 1}"
        last, payload = store.heads[branch]
        step = 0
        while not done(step):
            step += 1
            if step % 4 == 0:
                client.checkout(last)
                continue
            candidate = evolve(rng, payload)
            vid = client.commit(candidate, branch)
            if vid is not None:
                last, payload = vid, candidate
        store.heads[branch] = (last, payload)

    # Untimed: four operations per client.
    run_clients(lambda client=client, index=index: loop(client, index, lambda step: step >= 4)
                for index, client in enumerate(clients))
    # The window is a fixed number of operations, sized to last about
    # `seconds` at the commit that defined the benchmark: how far history
    # grows then does not depend on the machine's speed, and neither do the
    # phi_expected, storage_ratio and peak_rss_mb read after it.
    ops = round(INGEST_OPS_PER_SECOND * seconds)
    before, start = begin_window(server, clients)
    run_clients(lambda client=client, index=index: loop(client, index, lambda step: step >= ops)
                for index, client in enumerate(clients))
    return before, start, time.perf_counter(), {}


def workload_repack(server, store, clients, seed, seconds):
    mix = zipf_multiset(store.ranked, 140)
    picks = Picks(random.Random(f"repack-{seed}"), mix)
    before, start = begin_window(server, clients)
    # The first phase is one pass over the mix, split between the clients,
    # so the workload log the repack plans against has the same shape on
    # every seed.
    first = picks.take(len(mix))
    run_clients(
        lambda client=client, share=first[index::CLIENTS]: [client.checkout(vid) for vid in share]
        for index, client in enumerate(clients)
    )
    phase = seconds / 4.0
    planned = time.perf_counter()

    def read_phase(until: float) -> None:
        run_clients(
            lambda client=client: read_loop(client, picks, lambda: time.perf_counter() >= until)
            for client in clients
        )

    done = threading.Event()
    report: dict = {}

    def repack() -> None:
        try:
            body = clients[0]._timed("repack", "POST", "/repack", {"workload": True})
            if body is not None:
                report["repack"] = {
                    key: body.get(key) for key in ("problem", "algorithm", "workload_aware", "applied")
                }
        finally:
            done.set()

    run_clients([repack, lambda: read_loop(clients[1], picks, done.is_set)])
    swapped = time.perf_counter()
    read_phase(swapped + phase)
    end = time.perf_counter()
    bounds = {"before": (start, planned), "during": (planned, swapped),
              "after": (swapped, end)}
    report["checkout_ms_by_phase"] = {}
    for name, (low, high) in bounds.items():
        values = [(ended - began) * 1000.0 for client in clients
                  for op, began, ended in client.samples if op == "checkout" and low <= began < high]
        report["checkout_ms_by_phase"][name] = {"count": len(values), **percentiles(values)[0]}
    return before, start, end, report


RUNNERS = {
    "warm_read": workload_warm_read,
    "cold_read": workload_cold_read,
    "ingest": workload_ingest,
    "repack": workload_repack,
}


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def percentiles(values: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """(p50 and the tails with at least ten samples beyond them, the other tails)."""
    if len(values) < 2:
        return {}, {}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    supported, unsupported = {"p50": cuts[49]}, {}
    for tail in (90, 99):
        bucket = supported if len(values) * (100 - tail) / 100.0 >= 10 else unsupported
        bucket[f"p{tail}"] = cuts[tail - 1]
    return supported, unsupported


def counters(stats: dict) -> dict[str, float]:
    serving = stats["serving"]
    cache = serving["cache"]
    return {
        "checkouts": serving["checkout_requests"],
        "commits": serving["commits"],
        "coalesced": serving["coalesced_requests"],
        "deltas_applied": serving["deltas_applied"],
        "naive_delta_applications": serving["naive_delta_applications"],
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_evictions": cache["cost_evictions"] + cache["lru_evictions"],
    }


def end_to_end(samples, window, after, store, server, setup_s) -> dict:
    start, end = window
    by_op: dict[str, list[float]] = {}
    for op, began, ended in samples:
        by_op.setdefault(op, []).append((ended - began) * 1000.0)
    metrics: dict = {"setup_s": setup_s, "unsupported_tails": {}}
    repack = by_op.pop("repack", None)
    every = [value for values in by_op.values() for value in values]
    for name, values in [("request", every)] + sorted(by_op.items()):
        supported, unsupported = percentiles(values)
        for label, value in supported.items():
            metrics[f"{name}_{label}_ms"] = value
        for label, value in unsupported.items():
            metrics["unsupported_tails"][f"{name}_{label}_ms"] = value
    if repack:
        metrics["repack_s"] = repack[0] / 1000.0
    metrics["throughput_rps"] = len(samples) / (end - start)
    metrics["storage_ratio"] = after["repository"]["storage_cost"] / store.full_size()
    metrics["phi_expected"] = after["workload"]["expected_recreation_cost"]["per_request"]
    metrics["peak_rss_mb"] = server.peak_rss_mb()
    metrics["samples"] = {op: len(values) for op, values in sorted(by_op.items())}
    if repack:
        metrics["samples"]["repack"] = len(repack)
    return metrics


def per_layer(spans: dict, samples, window, before, after) -> dict[str, float]:
    """Split the timed window's requests across layers (ms per request)."""
    start, end = window
    requests = [r for r in spans["requests"] if start <= r[0] <= end]
    client_ms = sum(ended - began for _, began, ended in samples) * 1000.0
    n_client = max(len(samples), 1)
    n = max(len(requests), 1)
    totals: dict[str, list[float]] = {}
    for _, _, _, _, layers in requests:
        for name, (calls, self_s, incl_s) in layers.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s * 1000.0
            entry[2] += incl_s * 1000.0
    commits = sum(layers["repository.commit"][0] for *_, layers in requests
                  if "repository.commit" in layers)
    commit_applies = sum(layers.get("delta.apply", [0])[0] for *_, layers in requests
                         if "repository.commit" in layers)
    busy: dict[str, list[float]] = {}
    for name, began, self_s in spans["background"]:
        if start <= began <= end:
            entry = busy.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s * 1000.0

    def self_ms(*names: str) -> float:
        return sum(totals.get(name, [0, 0.0, 0.0])[1] for name in names) / n

    def incl_ms(*names: str) -> float:
        return sum(totals.get(name, [0, 0.0, 0.0])[2] for name in names) / n

    def calls(*names: str) -> float:
        return sum(totals.get(name, [0, 0.0, 0.0])[0] + busy.get(name, [0, 0.0])[0] for name in names) / n

    def busy_ms(*names: str) -> float:
        return sum(busy.get(name, [0, 0.0])[1] for name in names) / n

    def per_kind(name: str) -> float:
        entry = totals.get(name)
        return entry[2] / entry[0] if entry else 0.0

    handler_ms = incl_ms("httpd.root")
    service = ("service.checkout", "service.checkout_many", "service.commit", "service.repack")
    delta = {key: after_count - before[key] for key, after_count in after.items()}
    checkouts = max(delta["checkouts"], 1)
    lookups = max(delta["cache_hits"] + delta["cache_misses"], 1)
    transport = client_ms / n_client - handler_ms
    wrapper_calls = sum(entry[0] for entry in totals.values()) + sum(entry[0] for entry in busy.values())
    connections = [t for t in spans["connections"] if start <= t <= end]
    metrics = {
        "transport.residual_ms": transport,
        "httpd.handler_ms": handler_ms,
        "httpd.self_ms": handler_ms - incl_ms(*service),
        "httpd.write_ms": incl_ms("httpd.write"),
        "httpd.connections_per_request": len(connections) / n,
        "service.checkout_ms": per_kind("service.checkout"),
        "service.checkout_many_ms": per_kind("service.checkout_many"),
        "service.commit_ms": per_kind("service.commit"),
        "service.self_ms": self_ms(*service),
        "service.coalesced_share": delta["coalesced"] / checkouts,
        "concurrency.stripe_wait_ms": self_ms("concurrency.stripe_wait"),
        "concurrency.shared_wait_ms": self_ms("concurrency.shared_wait"),
        "concurrency.exclusive_wait_ms": self_ms("concurrency.exclusive_wait"),
        "concurrency.exclusive_hold_ms": self_ms("~concurrency.exclusive_hold") + busy_ms("~concurrency.exclusive_hold"),
        "objects.chain_walks_per_request": calls("objects.chain_walk"),
        "objects.chain_walk_ms": self_ms("objects.chain_walk"),
        "objects.fetches_per_request": calls("objects.fetch"),
        "batch.materialize_ms": self_ms("batch.materialize"),
        "batch.materialize_many_ms": self_ms("batch.materialize_many"),
        "batch.warm_cost_ms": self_ms("batch.warm_cost"),
        "batch.cache_hit_share": delta["cache_hits"] / lookups,
        "batch.deltas_per_checkout": delta["deltas_applied"] / checkouts,
        "batch.replay_savings": 1.0 - delta["deltas_applied"] / max(delta["naive_delta_applications"], 1),
        "batch.evictions_per_request": delta["cache_evictions"] / n,
        "delta.apply_calls_per_request": calls("delta.apply"),
        "delta.apply_ms": self_ms("delta.apply") + busy_ms("delta.apply"),
        "delta.diff_ms": self_ms("delta.diff"),
        "backend.get_calls_per_request": calls("backend.get"),
        "backend.get_ms": self_ms("backend.get") + busy_ms("backend.get"),
        "backend.put_ms": self_ms("backend.put"),
        "catalog.record_commit_ms": self_ms("catalog.record_commit"),
        "catalog.workload_record_ms": self_ms("catalog.workload_record"),
        "catalog.sync_ms": self_ms("catalog.sync"),
        "repository.commit_ms": self_ms("repository.commit"),
        "repository.commit_replay_deltas": commit_applies / max(commits, 1),
        "cli.save_state_ms": self_ms("cli.save_state"),
        "repack.cost_model_ms": incl_ms("repack.cost_model"),
        "repack.solve_ms": incl_ms("repack.solve"),
        "repack.stage_ms": incl_ms("repack.stage"),
        "repack.swap_ms": incl_ms("repack.swap"),
        "obs.metrics_ms": self_ms("obs.metrics") + busy_ms("obs.metrics"),
        "pool.busy_ms": sum(entry[1] for entry in busy.values()) / n,
        "trace.unattributed_share": (
            totals.get("httpd.root", [0, 0.0])[1] / n / (client_ms / n_client) if client_ms else 0.0
        ),
        "trace.overhead_share": spans["wrapper_seconds"] * 1000.0 * wrapper_calls / client_ms if client_ms else 0.0,
        "trace.requests": len(requests),
    }
    return metrics


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def set_up(work: Path, workload: str, seed: int, attempt: int, spans: Path | None):
    """Build a store and start its server: one set-up, timed to the first /healthz."""
    branches, cache_size = SHAPES[workload]
    started = time.perf_counter()
    store = build_store(work / f"store{attempt}", branches, seed)
    server = Server(store.directory, cache_size, spans)
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return store, server, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spans_path = work / "spans.json" if args.trace else None
    server = None
    try:
        setups = []
        for attempt in range(1 if args.trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            store, server, seconds = set_up(work, args.workload, args.seed, attempt, spans_path)
            setups.append(seconds)
        client_type = ServiceClientLoad if args.workload == "ingest" else Client
        clients = [client_type(server, store) for _ in range(CLIENTS)]
        before_stats, window_start, window_end, extra = RUNNERS[args.workload](
            server, store, clients, args.seed, args.seconds
        )
        for client in clients:
            client.close()
        after_stats = read_stats(server)
        # Latency samples cover the timed window; attempted and failed count
        # every request of the run, the untimed warm-up included.
        samples = [sample for client in clients for sample in client.samples]
        attempted = sum(client.attempted for client in clients)
        failed = sum(client.failed for client in clients)
        mismatches = sum(client.mismatches for client in clients)
        if after_stats["repository"]["versions"] != len(store.payloads):
            mismatches += 1
            failed += 1
        before, after = counters(before_stats), counters(after_stats)
        e2e = end_to_end(samples, (window_start, window_end), after_stats, store, server,
                         statistics.median(setups))
        e2e["failed_share"] = failed / max(attempted, 1)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "clients": CLIENTS,
            "versions": {"start": before_stats["repository"]["versions"],
                         "end": after_stats["repository"]["versions"]},
            "cache_capacity": after_stats["serving"]["cache"]["capacity"],
            "counters": {key: after[key] - before[key] for key in after},
            "errors": [error for client in clients for error in client.errors],
            "setup_runs_s": setups,
            "end_to_end": e2e,
            **extra,
        }
        names, values = spec["end_to_end"], e2e
        if args.trace:
            server.stop()
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            values = report["per_layer"] = per_layer(
                spans, samples, (window_start, window_end), before, after
            )
            names = spec["per_layer"]
        print(json.dumps({"report": report}, sort_keys=True))
        correct = mismatches == 0
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        }))
        return 0 if correct else 1
    except BaseException:
        for log in sorted(work.glob("store*/server.log")):
            print(f"--- {log.name} ({log.parent.name}):\n{log.read_text()[-2000:]}", file=sys.stderr)
        raise
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
