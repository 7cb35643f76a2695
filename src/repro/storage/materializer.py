"""Materialization: reconstructing a version from its delta chain.

Checking out a version that is stored as a delta means walking its chain
down from the nearest fully materialized ancestor, applying one delta per
hop.  :class:`Materializer` performs that walk against an
:class:`~repro.storage.objects.ObjectStore`, optionally caching intermediate
payloads (useful when many checkouts share a prefix of the chain) and
keeping an account of the recreation cost it actually paid — the quantity
the paper's Φ matrix models.

:class:`LRUPayloadCache` is the bounded cache both this module and the
batch engine (:mod:`repro.storage.batch`) key intermediate payloads on.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Sequence

from ..delta.base import DeltaEncoder
from ..exceptions import ObjectNotFoundError
from ..obs.metrics import log_once
from .objects import ObjectStore, StoredObject

__all__ = [
    "Materializer",
    "MaterializationResult",
    "LRUPayloadCache",
    "replay_chain",
    "ADMISSION_POLICIES",
]

_MISS = object()

#: Admission policies understood by :class:`LRUPayloadCache`: ``"always"``
#: inserts unconditionally (classic LRU behavior), ``"cost"`` refuses a
#: payload whose marginal rebuild cost is lower than the cheapest victim
#: it would displace — cheap-to-rebuild payloads never push expensive ones
#: out of a full cache.
ADMISSION_POLICIES = ("always", "cost")


class LRUPayloadCache:
    """A bounded least-recently-used cache of object-id → payload.

    ``capacity <= 0`` disables the cache entirely (every lookup misses,
    every insert is dropped), which lets callers share one code path.

    **Victim ranking.**  With ``victim_cost`` unset, eviction is plain
    LRU (oldest entry out).  With it set, the cache ranks the
    ``eviction_sample`` least-recently-used entries by their *marginal
    recreation cost* — what a request would re-pay if exactly that entry
    were evicted — and drops the cheapest one: payloads sitting deep on
    otherwise-uncached chains are worth more than payloads one delta away
    from a cached base, even when touched less recently.  ``victim_cost``
    returning ``None`` marks an entry unpriceable (e.g. its chain left the
    store's index after a repack) — those evict first.  The callback is
    invoked while the cache lock is held; it may take other locks but must
    never call back into this cache except through ``__contains__``.

    **Admission.**  With ``admission="cost"`` (and ``victim_cost`` set),
    the same ranking is applied at the door: once the cache is full, a
    payload whose marginal rebuild cost is lower than the cheapest sampled
    victim's is not inserted at all (counted in ``admission_rejections``)
    — the entries it would displace are worth more than it is.

    Every operation is atomic behind an internal lock: the batch engine's
    union-tree workers and concurrently served checkouts all read and warm
    one shared cache, so ``move_to_end``/eviction must never interleave
    mid-flight.  Payload *values* are shared by reference and treated as
    immutable by every caller, exactly as before.
    """

    def __init__(
        self,
        capacity: int,
        *,
        victim_cost: Callable[[str], float | None] | None = None,
        eviction_sample: int = 8,
        admission: str = "always",
    ) -> None:
        if admission not in ADMISSION_POLICIES:
            known = ", ".join(ADMISSION_POLICIES)
            raise ValueError(f"unknown admission policy {admission!r} (known: {known})")
        self.capacity = int(capacity)
        self.victim_cost = victim_cost
        self.eviction_sample = max(1, int(eviction_sample))
        self.admission = admission
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.cost_evictions = 0
        self.lru_evictions = 0
        self.admission_rejections = 0

    def get(self, key: str) -> Any:
        """The cached payload for ``key``, or the module-level miss sentinel."""
        value = self.probe(key)
        if value is _MISS:
            with self._lock:
                self.misses += 1
        return value

    def probe(self, key: str) -> Any:
        """Like :meth:`get`, but a miss is not counted.

        For a caller that checks for a warm entry before deciding how to
        serve it: a hit is a hit (counted, recency refreshed), while a miss
        leaves the counters to the lookup the slow path makes anyway.
        """
        with self._lock:
            if self.capacity <= 0 or key not in self._entries:
                return _MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: str, payload: Any) -> None:
        if self._admission_reject(key):
            return
        with self._lock:
            if self.capacity <= 0:
                return
            self._entries[key] = payload
            self._entries.move_to_end(key)
            if len(self._entries) <= self.capacity:
                return
            if self.victim_cost is None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.lru_evictions += 1
                return
        # Cost-ranked eviction prices candidates *outside* the lock: each
        # victim_cost call walks chain metadata, and serializing every
        # over-capacity put of all replay workers behind those walks would
        # undo the per-chain parallelism the cache serves.
        self._evict_by_cost()

    def _admission_reject(self, key: str) -> bool:
        """True when cost admission refuses to insert ``key``.

        Mirrors the eviction ranking at the door: with the cache full, a
        candidate whose marginal rebuild cost is *below* the cheapest
        sampled victim's would immediately become the next eviction choice
        — inserting it only churns the cold end.  Unpriceable candidates
        or victims admit (plain LRU behavior), and a cache below capacity
        admits everything, so admission never starves a warming cache.
        Pricing happens outside the lock for the same reason eviction
        pricing does.
        """
        if self.admission != "cost" or self.victim_cost is None:
            return False
        with self._lock:
            if (
                self.capacity <= 0
                or key in self._entries
                or len(self._entries) < self.capacity
            ):
                return False
            sample = min(self.eviction_sample, len(self._entries) - 1)
            candidates = []
            for existing in self._entries:  # insertion order = LRU order
                candidates.append(existing)
                if len(candidates) >= sample:
                    break
        if not candidates:
            return False
        try:
            candidate_cost = self.victim_cost(key)
        except Exception as exc:
            log_once(
                "cache:admission_cost",
                "admission scoring failed (%s: %s); admitting the entry",
                type(exc).__name__,
                exc,
            )
            return False
        if candidate_cost is None:
            return False
        cheapest: float | None = None
        for existing in candidates:
            try:
                cost = self.victim_cost(existing)
            except Exception:
                cost = None
            if cost is None:
                # An unpriceable victim (dead-epoch leftover) evicts for
                # free — displacing it is always worthwhile.
                return False
            if cheapest is None or cost < cheapest:
                cheapest = cost
        if cheapest is not None and float(candidate_cost) < cheapest:
            with self._lock:
                self.admission_rejections += 1
            return True
        return False

    def _evict_by_cost(self) -> None:
        # Rank the oldest entries only, and never the most recent one: a
        # just-replayed payload always looks cheap (its base is cached) but
        # evicting it would defeat the warm repeat the cache exists for —
        # recency stays the first filter, marginal cost breaks ties within
        # the cold end.  The lock is held only to snapshot candidates and
        # to delete the chosen victim (re-validated: it may have been
        # touched or evicted by a peer while we priced); after a few
        # contended rounds fall back to plain LRU rather than spin.
        for _attempt in range(4):
            with self._lock:
                if len(self._entries) <= self.capacity:
                    return
                sample = min(self.eviction_sample, len(self._entries) - 1)
                candidates: list[str] = []
                for key in self._entries:  # insertion order = LRU order
                    candidates.append(key)
                    if len(candidates) >= sample:
                        break
            victim = candidates[0]
            best: tuple[int, float, int] | None = None
            for index, key in enumerate(candidates):
                try:
                    cost = self.victim_cost(key)  # type: ignore[misc]
                except Exception as exc:
                    # Scoring must never break a put, but a broken scorer
                    # silently degrades the cache to LRU — say so once.
                    cost = None
                    log_once(
                        "cache:victim_cost",
                        "victim_cost scoring failed (%s: %s); treating the "
                        "entry as unpriceable",
                        type(exc).__name__,
                        exc,
                    )
                # Unpriceable entries (dead-epoch leftovers) rank below
                # every priced one; ties go to the least recently used.
                rank = (0, 0.0, index) if cost is None else (1, float(cost), index)
                if best is None or rank < best:
                    best = rank
                    victim = key
            with self._lock:
                if len(self._entries) <= self.capacity:
                    return
                mru = next(reversed(self._entries))
                if victim in self._entries and victim != mru:
                    if victim != next(iter(self._entries)):
                        self.cost_evictions += 1
                    else:
                        self.lru_evictions += 1
                    del self._entries[victim]
                    if len(self._entries) <= self.capacity:
                        return
        with self._lock:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.lru_evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self.capacity > 0 and key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @staticmethod
    def is_miss(value: Any) -> bool:
        """True when ``value`` is the sentinel returned on a cache miss."""
        return value is _MISS


def replay_chain(
    chain_ids: Sequence[str],
    fetch: Callable[[str], StoredObject],
    cache: LRUPayloadCache,
    encoder: DeltaEncoder,
    observe: Callable[[str, float], None] | None = None,
) -> tuple[Any, float, int, int]:
    """Replay one root-first full-object/delta chain through a payload cache.

    Starts from the deepest cached ancestor and applies the remaining
    deltas, parking every intermediate payload in ``cache``.  Objects are
    pulled through ``fetch`` one at a time and only for the replayed
    suffix, so a caller's peak memory stays at one :class:`StoredObject`
    plus whatever the payload cache holds.  ``observe``, when given, is
    called with ``(object_id, seconds)`` for every hop actually replayed
    (fetch + apply wall time) — the feed for the store's measured Δ/Φ
    model.  Returns ``(payload, cost_paid, deltas_applied, cache_hits)``
    — the single source of truth for chain replay shared by
    :class:`Materializer` and the batch engine.
    """
    start_index = 0
    payload: Any = None
    cache_hits = 0
    for index in range(len(chain_ids) - 1, -1, -1):
        cached = cache.get(chain_ids[index])
        if not LRUPayloadCache.is_miss(cached):
            payload = cached
            start_index = index + 1
            cache_hits += 1
            break

    cost_paid = 0.0
    deltas_applied = 0
    for index in range(start_index, len(chain_ids)):
        started = time.perf_counter() if observe is not None else 0.0
        obj = fetch(chain_ids[index])
        if not obj.is_delta:
            payload = obj.payload
            cost_paid += obj.storage_cost()
        else:
            if payload is None:
                raise ObjectNotFoundError(
                    f"delta object {obj.object_id!r} has no materialized base"
                )
            payload = encoder.apply(payload, obj.payload)
            cost_paid += obj.payload.recreation_cost
            deltas_applied += 1
        if observe is not None:
            observe(obj.object_id, time.perf_counter() - started)
        cache.put(obj.object_id, payload)
    return payload, cost_paid, deltas_applied, cache_hits


class MaterializationResult:
    """The payload of a checked-out version plus the cost of producing it."""

    __slots__ = ("payload", "recreation_cost", "chain_length", "cache_hits")

    def __init__(
        self, payload: Any, recreation_cost: float, chain_length: int, cache_hits: int
    ) -> None:
        self.payload = payload
        self.recreation_cost = recreation_cost
        self.chain_length = chain_length
        self.cache_hits = cache_hits


class Materializer:
    """Reconstructs payloads from full/delta object chains."""

    def __init__(
        self,
        store: ObjectStore,
        encoder: DeltaEncoder,
        *,
        cache_size: int = 0,
    ) -> None:
        self.store = store
        self.encoder = encoder
        self.cache_size = int(cache_size)
        self._cache = LRUPayloadCache(self.cache_size)

    def materialize(self, object_id: str) -> MaterializationResult:
        """Reconstruct the payload stored under ``object_id``.

        The recreation cost is the recreation cost of reading the base full
        object (its size) plus the recreation cost of every delta applied on
        the way — i.e. exactly the chain sum the storage plan predicted.
        """
        chain = self.store.delta_chain(object_id)
        by_id = {obj.object_id: obj for obj in chain}
        payload, recreation_cost, _, cache_hits = replay_chain(
            [obj.object_id for obj in chain], by_id.__getitem__, self._cache, self.encoder
        )
        return MaterializationResult(
            payload=payload,
            recreation_cost=recreation_cost,
            chain_length=len(chain) - 1,
            cache_hits=cache_hits,
        )

    def clear_cache(self) -> None:
        """Drop every cached payload."""
        self._cache.clear()
