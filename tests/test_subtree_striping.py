"""Tests for subtree striping and the process-pool replay engine.

Covers the GIL-free hot-path refactor:

* **stripe keys** — the batch-local :func:`subtree_stripe_keys` and the
  store-global ``ObjectStore.subtree_stripe_key`` both key a chain by the
  node below its deepest fork point (the chain root for linear chains),
  and the store's fork index survives object removal;
* **fork-fan byte identity** — every version of a fork-heavy graph
  materializes to exactly the bytes a sequential checkout produces, under
  both worker models, batched and one at a time;
* **disjoint subtrees replay concurrently** — an instrumented backend
  observes overlapping fetches for two subtrees of one root within a
  single batch (thread model), and the process pool reports distinct
  worker pids with overlapping task spans (process model);
* **worker-model plumbing and fallback** — non-reopenable backends and
  unregistered encoders demote ``process`` to ``thread`` with a recorded
  reason; the CLI parser and the service thread the knobs through;
* **executor lifecycle** — ``BatchMaterializer`` works as a context
  manager and its ``weakref.finalize`` fallback shuts pools down when the
  materializer is dropped without ``close()``.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time

import pytest

from repro.cli import build_parser
from repro.delta import SimulatedCpuEncoder
from repro.delta.compression import CompressedEncoder
from repro.delta.line_diff import LineDiffEncoder
from repro.server.service import VersionStoreService
from repro.storage.backends import FilesystemBackend
from repro.storage.batch import BatchMaterializer
from repro.storage.concurrency import subtree_stripe_keys
from repro.storage.replay_worker import process_safe_spec, replayable_encoder
from repro.storage.repository import Repository


# --------------------------------------------------------------------- #
# graph factories
# --------------------------------------------------------------------- #
def build_fork_repo(
    *,
    backend=None,
    encoder=None,
    num_subtrees: int = 2,
    depth: int = 4,
) -> tuple[Repository, dict[int, list]]:
    """One root version with ``num_subtrees`` delta subtrees forked off it.

    Every subtree edits different rows, so each fork child is stored as a
    delta on the *same* root object — the shape whose replays used to
    serialize on the shared chain root.
    """
    repo = Repository(cache_size=0, backend=backend, encoder=encoder)
    base = [f"row,{i},{i * i}" for i in range(60)]
    root = repo.commit(base, message="root")
    subtrees: dict[int, list] = {}
    for tree in range(num_subtrees):
        payload, prev, vids = list(base), root, []
        for step in range(depth):
            payload = list(payload)
            payload[(tree * 17 + step * 5) % len(payload)] = f"t{tree},edit,{step}"
            payload.append(f"t{tree},appended,{step}")
            prev = repo.commit(payload, parents=[prev], message=f"t{tree} s{step}")
            vids.append(prev)
        subtrees[tree] = vids
    return repo, subtrees


def expected_payloads(repo: Repository, vids) -> dict:
    return {vid: repo.checkout(vid, record_stats=False).payload for vid in vids}


def all_version_ids(subtrees: dict[int, list]) -> list:
    return [vid for vids in subtrees.values() for vid in vids]


# --------------------------------------------------------------------- #
# stripe keys
# --------------------------------------------------------------------- #
class TestStripeKeys:
    def test_linear_chains_key_by_root(self):
        chains = {"c3": ("a", "b", "c3"), "z2": ("x", "z2")}
        keys = subtree_stripe_keys(chains)
        assert keys == {"c3": "a", "z2": "x"}

    def test_fork_children_get_distinct_keys(self):
        chains = {
            "l2": ("root", "l1", "l2"),
            "r2": ("root", "r1", "r2"),
        }
        keys = subtree_stripe_keys(chains)
        assert keys["l2"] == "l1"
        assert keys["r2"] == "r1"
        assert keys["l2"] != keys["r2"]

    def test_deepest_fork_wins(self):
        # root forks into (a, b); a forks again into (a1, a2).
        chains = {
            "a1": ("root", "a", "a1"),
            "a2": ("root", "a", "a2"),
            "b": ("root", "b"),
        }
        keys = subtree_stripe_keys(chains)
        assert keys["a1"] == "a1"
        assert keys["a2"] == "a2"
        assert keys["b"] == "b"

    def test_tips_in_one_subtree_share_a_key(self):
        chains = {
            "l1": ("root", "l1"),
            "l2": ("root", "l1", "l2"),
            "r1": ("root", "r1"),
        }
        keys = subtree_stripe_keys(chains)
        assert keys["l1"] == keys["l2"] == "l1"
        assert keys["r1"] == "r1"

    def test_store_global_key_splits_fork_subtrees(self, tmp_path):
        repo, subtrees = build_fork_repo(backend=f"file://{tmp_path}/objects")
        store = repo.store
        left = store.subtree_stripe_key(repo.object_id_of(subtrees[0][-1]))
        right = store.subtree_stripe_key(repo.object_id_of(subtrees[1][-1]))
        assert left is not None and right is not None
        assert left != right

    def test_store_global_key_is_root_for_linear_chain(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", num_subtrees=1
        )
        store = repo.store
        tip_object = repo.object_id_of(subtrees[0][-1])
        assert store.subtree_stripe_key(tip_object) == store.chain_ids(tip_object)[0]

    def test_remove_maintains_fork_index(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", num_subtrees=2, depth=1
        )
        store = repo.store
        left_object = repo.object_id_of(subtrees[0][0])
        right_object = repo.object_id_of(subtrees[1][0])
        assert store.subtree_stripe_key(left_object) == left_object
        store.remove(right_object)
        # The fork collapsed; the survivor keys by the chain root again.
        assert (
            store.subtree_stripe_key(left_object)
            == store.chain_ids(left_object)[0]
        )


# --------------------------------------------------------------------- #
# fork-fan byte identity across worker models
# --------------------------------------------------------------------- #
class TestForkFanByteIdentity:
    @pytest.mark.parametrize("worker_model", ["thread", "process"])
    def test_batched_and_single_checkouts_match(self, tmp_path, worker_model):
        if worker_model == "process":
            pytest.importorskip("multiprocessing")
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", num_subtrees=3, depth=3
        )
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        with BatchMaterializer(
            repo.store,
            repo.encoder,
            cache_size=0,
            max_workers=2,
            worker_model=worker_model,
        ) as materializer:
            assert materializer.worker_model == worker_model
            batch = materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in vids]
            )
            for vid in vids:
                assert batch.items[vid].payload == expected[vid], vid
            # Singles after the batch (cache disabled, so these re-replay).
            for vid in vids:
                item = materializer.materialize(repo.object_id_of(vid))
                assert item.payload == expected[vid], vid
            if worker_model == "process":
                info = materializer.pool_info()
                assert info["tasks"]["process"] > 0
                assert info["tasks"]["thread"] == 0
                assert info["worker_pids"]
                assert os.getpid() not in info["worker_pids"]

    def test_service_checkouts_match_across_models(self, tmp_path):
        repo, subtrees = build_fork_repo(backend=f"file://{tmp_path}/objects")
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        for worker_model in ("thread", "process"):
            service = VersionStoreService(
                repo, cache_size=0, max_workers=2, worker_model=worker_model
            )
            try:
                assert service.worker_model == worker_model
                batch = service.checkout_many(vids)
                for vid in vids:
                    assert batch.items[vid].payload == expected[vid], vid
                for vid in vids:
                    assert service.checkout(vid).payload == expected[vid], vid
            finally:
                service.close()


# --------------------------------------------------------------------- #
# disjoint subtrees replay concurrently
# --------------------------------------------------------------------- #
class InstrumentedBackend(FilesystemBackend):
    """A file backend that records how many fetches overlap in time."""

    def __init__(self, directory: str, *, delay: float = 0.005) -> None:
        super().__init__(directory)
        self.delay = delay
        self._lock = threading.Lock()
        self._active = 0
        self.max_concurrent = 0

    def get(self, key):
        with self._lock:
            self._active += 1
            self.max_concurrent = max(self.max_concurrent, self._active)
        try:
            time.sleep(self.delay)
            return super().get(key)
        finally:
            with self._lock:
                self._active -= 1


class TestConcurrentSubtrees:
    @pytest.mark.slow
    def test_thread_model_overlaps_fetches_across_subtrees(self, tmp_path):
        backend = InstrumentedBackend(str(tmp_path / "objects"), delay=0.01)
        repo, subtrees = build_fork_repo(backend=backend, num_subtrees=2, depth=5)
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        backend.max_concurrent = 0
        with BatchMaterializer(
            repo.store, repo.encoder, cache_size=0, max_workers=4
        ) as materializer:
            tips = [subtrees[0][-1], subtrees[1][-1]]
            batch = materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in tips]
            )
        for vid in tips:
            assert batch.items[vid].payload == expected[vid]
        # Both subtrees hang off one root: the old root-keyed grouping put
        # them in a single group and replayed them back to back.  Subtree
        # stripes run them as two parallel groups, so their backend fetches
        # must overlap.
        assert backend.max_concurrent >= 2

    @pytest.mark.slow
    def test_process_model_uses_distinct_overlapping_workers(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects",
            encoder=SimulatedCpuEncoder(apply_seconds=0.2),
            num_subtrees=2,
            depth=3,
        )
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        with BatchMaterializer(
            repo.store,
            repo.encoder,
            cache_size=0,
            max_workers=2,
            worker_model="process",
        ) as materializer:
            tips = [subtrees[0][-1], subtrees[1][-1]]
            batch = materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in tips]
            )
            for vid in tips:
                assert batch.items[vid].payload == expected[vid]
            info = materializer.pool_info()
            spans = list(materializer.recent_task_spans)
        assert info["tasks"]["process"] == 2
        assert len(spans) == 2
        pids = {pid for pid, _, _ in spans}
        assert os.getpid() not in pids
        # Two subtree groups were dispatched together; with the simulated
        # CPU cost dominating, their execution windows must overlap — which
        # is only possible in distinct worker processes (the simulated GIL
        # serializes applies *within* one process).
        latest_start = max(started for _, started, _ in spans)
        earliest_finish = min(finished for _, _, finished in spans)
        assert latest_start < earliest_finish
        assert len(pids) == 2


# --------------------------------------------------------------------- #
# worker-model plumbing and fallback
# --------------------------------------------------------------------- #
class TestWorkerModelPlumbing:
    def test_serve_parser_accepts_worker_model_and_frontend_procs(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "repo", "--worker-model", "process", "--frontend-procs", "2"]
        )
        assert args.worker_model == "process"
        assert args.frontend_procs == 2
        defaults = parser.parse_args(["serve", "repo"])
        assert defaults.worker_model == "thread"
        assert defaults.frontend_procs == 1

    def test_invalid_worker_model_rejected(self, tmp_path):
        repo, _ = build_fork_repo(backend=f"file://{tmp_path}/objects", depth=1)
        with pytest.raises(ValueError):
            BatchMaterializer(repo.store, repo.encoder, worker_model="greenlet")

    def test_service_reports_worker_model_in_stats(self, tmp_path):
        repo, _ = build_fork_repo(backend=f"file://{tmp_path}/objects", depth=1)
        service = VersionStoreService(repo, worker_model="process")
        try:
            concurrency = service.stats()["concurrency"]
            assert concurrency["worker_model"] == "process"
            pool = concurrency["replay_pool"]
            assert pool["requested_worker_model"] == "process"
            assert pool["worker_model_fallback"] is None
        finally:
            service.close()

    def test_process_safe_spec_verdicts(self, tmp_path):
        assert process_safe_spec(f"file://{tmp_path}/objects")
        assert process_safe_spec(f"zip://{tmp_path}/objects")
        assert process_safe_spec("sqlite://catalog.db")
        assert process_safe_spec(f"shard://2/file://{tmp_path}/objects")
        assert not process_safe_spec("memory://")
        assert not process_safe_spec("shard://[memory://,memory://]")
        assert not process_safe_spec("not a spec")

    def test_replayable_encoder_verdicts(self):
        assert replayable_encoder(LineDiffEncoder())
        assert replayable_encoder(SimulatedCpuEncoder())
        assert not replayable_encoder(CompressedEncoder(LineDiffEncoder()))

    def test_memory_backend_falls_back_to_threads(self):
        repo, subtrees = build_fork_repo(depth=2)
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        with BatchMaterializer(
            repo.store, repo.encoder, cache_size=0, worker_model="process"
        ) as materializer:
            assert materializer.requested_worker_model == "process"
            assert materializer.worker_model == "thread"
            assert materializer.worker_model_fallback is not None
            assert "backend" in materializer.worker_model_fallback
            batch = materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in vids]
            )
            for vid in vids:
                assert batch.items[vid].payload == expected[vid]
            assert materializer.pool_info()["tasks"]["process"] == 0

    def test_unregistered_encoder_falls_back_to_threads(self, tmp_path):
        repo, _ = build_fork_repo(
            backend=f"file://{tmp_path}/objects",
            encoder=CompressedEncoder(LineDiffEncoder()),
            depth=1,
        )
        with BatchMaterializer(
            repo.store, repo.encoder, worker_model="process"
        ) as materializer:
            assert materializer.worker_model == "thread"
            assert materializer.worker_model_fallback is not None
            assert "encoder" in materializer.worker_model_fallback


# --------------------------------------------------------------------- #
# executor lifecycle
# --------------------------------------------------------------------- #
class TestExecutorLifecycle:
    def test_context_manager_shuts_executors_down(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", depth=2
        )
        vids = all_version_ids(subtrees)
        with BatchMaterializer(
            repo.store, repo.encoder, max_workers=2
        ) as materializer:
            materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in vids]
            )
            assert materializer._executors
        assert not materializer._executors
        materializer.close()  # idempotent

    def test_finalizer_reaps_abandoned_executors(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", depth=2
        )
        vids = all_version_ids(subtrees)
        materializer = BatchMaterializer(repo.store, repo.encoder, max_workers=2)
        materializer.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in vids]
        )
        holder = materializer._executors
        assert holder
        finalizer = materializer._finalizer
        del materializer
        gc.collect()
        assert not finalizer.alive
        assert not holder


# --------------------------------------------------------------------- #
# broken process pools
# --------------------------------------------------------------------- #
class TestBrokenProcessPool:
    @staticmethod
    def _kill_workers(service) -> None:
        executor = service.materializer._executors["process"]
        for process in list(executor._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)

    def test_killed_worker_rebuilds_then_demotes_to_threads(self, tmp_path):
        """SIGKILLing replay workers: the first break rebuilds the pool, a
        break of the rebuilt pool demotes to threads with a reason code and
        a decision record — and every checkout stays byte-correct."""
        repo = Repository(cache_size=0, backend=f"file://{tmp_path}/objects")
        oracle: dict = {}
        payload = [f"row,{i},{i * 3}" for i in range(40)]
        for step in range(8):
            payload = payload + [f"appended,{step}"]
            oracle[repo.commit(payload, message=f"s{step}")] = list(payload)
        vids = list(oracle)
        service = VersionStoreService(
            repo, worker_model="process", max_workers=1, cache_size=0
        )
        try:
            assert service.checkout(vids[-1]).payload == oracle[vids[-1]]

            self._kill_workers(service)
            assert service.checkout(vids[-2]).payload == oracle[vids[-2]]
            batch = service.checkout_many(vids)
            assert {vid: batch.items[vid].payload for vid in vids} == oracle
            assert service.worker_model == "process"
            assert service.materializer.worker_model_fallback is None

            self._kill_workers(service)
            assert service.checkout(vids[-3]).payload == oracle[vids[-3]]
            batch = service.checkout_many(vids)
            assert {vid: batch.items[vid].payload for vid in vids} == oracle
            concurrency = service.stats()["concurrency"]
            assert concurrency["worker_model"] == "thread"
            assert (
                concurrency["replay_pool"]["worker_model_fallback"]
                == "process_pool_broken"
            )
            records = [
                record
                for record in service.decision_log.tail(20)
                if record.get("event") == "worker_model_fallback"
            ]
            assert len(records) == 1
            assert records[0]["reason"] == "process_pool_broken"
        finally:
            service.close()
