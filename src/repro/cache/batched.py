"""Columnar cache policies: N clients' caches stepped as arrays.

The batch engine (:mod:`repro.batch.engine`) advances a whole fleet in
lockstep, so its cache state must be columnar too: one ``(N, C)`` page
matrix instead of N dict-based policies.  Each class here replicates one
scalar policy from this package *decision-for-decision* — the same
victims in the same tie-break order — which the hypothesis property
tests in ``tests/test_properties_batch.py`` assert against random
request interleavings.  Batched policies never ``discard``, so a
client's first free slot is always its ``count``, a full client stays
full, and every structure below only ever sees inserts, hits and
evictions.

P, PIX, LIX and L keep the structures their scalar twins use, so that a
step costs a few operations per client rather than a scan of its
``C`` slots:

* **A page index** (the scalar dict): an ``(N, AccessRange)`` matrix,
  :data:`EMPTY` where the page is not resident.  A lookup is one
  gather; an admit writes the new page's entry and clears the victim's.
* :class:`BatchedLIX` / :class:`BatchedL` — **per-disk chains as linked
  lists** (the scalar ``OrderedDict`` chains): each chain is a circular
  doubly-linked list over flat ``next``/``prev`` columns, closed by one
  sentinel node per (client, disk), so its bottom (least recently used
  end) is ``next[sentinel]`` and an empty chain links its sentinel to
  itself.  The index holds node ids, and the estimate, last-access and
  broadcast-rate columns span the sentinels too (a sentinel's rate is
  0).  So victim search gathers the D chain bottoms straight into an
  ``(n, D)`` lix-value matrix, where a zero rate — an empty chain or a
  never-broadcast page — scores ``+inf``, and its first argmin is the
  scalar walk's strict ``<`` in ascending disk order: the earliest
  chain wins ties.
* :class:`BatchedP` / :class:`BatchedPIX` — **the resident ``(value,
  insertion stamp)`` minimum per client** (the top of the scalar lazy
  min-heap), with each slot's pair packed into one int64 key (the
  value's dense rank above the stamp) so that a minimum is one argmin.
  A free-slot insert carries the newest stamp, so it displaces the
  minimum only with a strict ``<``; the minimum is rescanned only in
  the rows that evict.  A new page less valuable than everything
  resident is declined (``admit`` returns the page itself) against the
  stored minimum, touching nothing.

Once every admitting client is full — most steps of a run — an admit
takes a steady path that skips the free-slot bookkeeping.

:class:`BatchedLRU` keeps the plain ``(N, C)`` scan and a recency-stamp
argmin.  It is the policy of cache-less fleets (capacity 1), where an
index would add two scatters per admit and a matrix of ``AccessRange``
entries per client to a one-slot scan.

``admit`` takes a client mask (only the clients that missed admit) and
returns a victim column using the scalar protocol's vocabulary in array
form: :data:`FREE` where a free slot absorbed the page (scalar
``None``), the page itself where the policy declined it, the evicted
page otherwise, and :data:`NO_ADMIT` for clients outside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

#: ``admit`` victim sentinel: this client was outside the admit mask.
NO_ADMIT = -2

#: ``admit`` victim sentinel: a free slot absorbed the page (scalar
#: policies return ``None`` here).
FREE = -1

#: Slot content marking an empty cache slot, and the page index entry
#: of a page that is not resident (page ids, slots and nodes are >= 0).
EMPTY = -1

#: Largest int64: the "nothing resident" P/PIX minimum key.
_KEY_MAX = np.iinfo(np.int64).max

#: Low bits of a P/PIX key that hold the insertion stamp.
_STAMP_BITS = 32

#: Minimum inter-access gap in the LIX estimator (mirrors the scalar
#: module's ``_MIN_GAP``).
_MIN_GAP = 1e-9

def _gather(table: np.ndarray, rows: np.ndarray, pages: np.ndarray):
    """Index a per-client (N, R) or shared (1, R) oracle table."""
    if table.shape[0] == 1:
        return table[0, pages]
    return table[rows, pages]


@dataclass
class BatchedOracles:
    """The :class:`~repro.cache.base.PolicyContext` oracles, as arrays.

    ``probability`` is indexed by logical page; ``frequency`` and
    ``disk`` are ``(clients, pages)`` matrices (or ``(1, pages)`` when
    every client shares one mapping — noise-free groups).  Their page
    axis is the client's AccessRange, which sizes the page index.
    """

    probability: Optional[np.ndarray] = None
    frequency: Optional[np.ndarray] = None
    disk: Optional[np.ndarray] = None
    num_disks: int = 1
    lix_alpha: float = 0.25


class BatchedPolicy:
    """Base: the ``(N, C)`` slot matrix, the page index, the protocol.

    Slot ``s`` of client ``i`` is *node* ``i * C + s``: the flat
    position of that slot in every ``(N, C)`` column.  ``num_pages``
    (the AccessRange) sizes the page index; a policy built without it
    (LRU) answers lookups by scanning its slots instead.
    """

    name = "batched"
    #: dtype of the page index; ``None`` picks the narrowest signed
    #: dtype that holds a slot number.
    index_dtype = None

    def __init__(self, num_clients: int, capacity: int,
                 num_pages: Optional[int] = None):
        if num_clients < 1:
            raise ConfigurationError(
                f"batched policies need >= 1 client, got {num_clients}"
            )
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1 page, got {capacity}"
            )
        self.num_clients = num_clients
        self.capacity = capacity
        self.slots = np.full((num_clients, capacity), EMPTY, dtype=np.int64)
        self.count = np.zeros(num_clients, dtype=np.int64)
        self._rows = np.arange(num_clients)
        self._slots = self.slots.reshape(-1)
        self._slot_base = self._rows * capacity
        self._no_admit = np.full(num_clients, NO_ADMIT, dtype=np.int64)
        if num_pages is not None:
            self.index = np.full(
                (num_clients, num_pages), EMPTY,
                dtype=self.index_dtype or np.min_scalar_type(-capacity),
            )
            self._index = self.index.reshape(-1)
            self._page_base = self._rows * num_pages

    # -- protocol ----------------------------------------------------------
    def is_full(self) -> np.ndarray:
        """Boolean column: which clients' caches are at capacity."""
        return self.count >= self.capacity

    def lookup(self, pages: np.ndarray, now: np.ndarray) -> np.ndarray:
        """Hit column; recency state updated where applicable."""
        return self._index[self._page_base + pages] >= 0

    def admit(
        self, pages: np.ndarray, now: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Offer each masked client's page; return the victim column."""
        raise NotImplementedError


class BatchedLRU(BatchedPolicy):
    """Columnar :class:`~repro.cache.lru.LRUPolicy`: min-stamp eviction.

    Without a page index: lookups compare the slot matrix, and the
    victim is the minimum recency stamp (the scalar ``OrderedDict``'s
    bottom entry).
    """

    name = "LRU"

    def __init__(self, num_clients: int, capacity: int):
        super().__init__(num_clients, capacity)
        self.stamps = np.zeros((num_clients, capacity), dtype=np.int64)
        self._seq = np.zeros(num_clients, dtype=np.int64)

    def _match(self, pages: np.ndarray):
        """``(hit, position)``: where each client's page is resident."""
        match = self.slots == pages[:, None]
        return match.any(axis=1), match.argmax(axis=1)

    def lookup(self, pages: np.ndarray, now: np.ndarray) -> np.ndarray:
        hit, position = self._match(pages)
        rows = hit.nonzero()[0]
        if len(rows):
            self._seq[rows] += 1
            self.stamps[rows, position[rows]] = self._seq[rows]
        return hit

    def admit(self, pages, now, mask) -> np.ndarray:
        victims = self._no_admit.copy()
        rows = mask.nonzero()[0]
        if not len(rows):
            return victims
        self._seq[rows] += 1
        full = self.count[rows] >= self.capacity
        free_rows = rows[~full]
        if len(free_rows):
            position = self.count[free_rows]
            self.slots[free_rows, position] = pages[free_rows]
            self.stamps[free_rows, position] = self._seq[free_rows]
            self.count[free_rows] += 1
            victims[free_rows] = FREE
        full_rows = rows[full]
        if len(full_rows):
            position = self.stamps[full_rows].argmin(axis=1)
            victims[full_rows] = self.slots[full_rows, position]
            self.slots[full_rows, position] = pages[full_rows]
            self.stamps[full_rows, position] = self._seq[full_rows]
        return victims


class BatchedP(BatchedPolicy):
    """Columnar :class:`~repro.cache.p.PPolicy`: static-value eviction.

    The scalar policy's lazy min-heap holds one live entry per resident
    page (engines never ``discard``), so its top is exactly the
    lexicographic ``(value, insertion stamp)`` minimum.  Each resident
    slot holds that pair packed into one int64 *key*: the value's dense
    rank among the oracle's values (ranks order and tie exactly as the
    values do) above :data:`_STAMP_BITS` bits of per-client insertion
    stamp, so the minimum is one argmin.  It is kept per client: a
    free-slot insert lowers it with a strict ``<``, an eviction rescans
    its row, and a decline only reads it.
    """

    name = "P"

    def __init__(self, num_clients: int, capacity: int,
                 oracles: BatchedOracles):
        if oracles.probability is None:
            raise ConfigurationError(
                "this policy requires the 'probability' oracle in its context"
            )
        super().__init__(num_clients, capacity, len(oracles.probability))
        values = self._value_table(oracles)
        #: Each page's rank, shifted into key position: a (1, pages)
        #: or (clients, pages) table like the oracles it ranks.
        self._rank = (
            np.unique(values, return_inverse=True)[1]
            .reshape(values.shape).astype(np.int64) << _STAMP_BITS
        )
        self.keys = np.zeros((num_clients, capacity), dtype=np.int64)
        self._keys = self.keys.reshape(-1)
        self._seq = np.zeros(num_clients, dtype=np.int64)
        self._min_key = np.full(num_clients, _KEY_MAX)
        self._min_slot = np.zeros(num_clients, dtype=np.int64)

    @staticmethod
    def _value_table(oracles: BatchedOracles) -> np.ndarray:
        """The scalar ``_value`` of every page, as a (1, pages) table."""
        return oracles.probability[None, :]

    def admit(self, pages, now, mask) -> np.ndarray:
        victims = self._no_admit.copy()
        rows = mask.nonzero()[0]
        if not len(rows):
            return victims
        page = pages[rows]
        rank = _gather(self._rank, rows, page)
        full = self.count[rows] >= self.capacity
        steady = full.all()
        # Decline when nothing resident is less valuable (scalar:
        # ``self._resident[victim] >= value`` — no stamp consumed): the
        # minimum's rank is at least the new page's.
        declined = self._min_key[rows] >= rank
        if not steady:
            declined &= full
        if declined.any():
            victims[rows[declined]] = page[declined]
            enter = ~declined
            rows, page, rank, full = (
                rows[enter], page[enter], rank[enter], full[enter]
            )
            if not len(rows):
                return victims
        # Stamps count a client's inserts, bounded by its trace length
        # and so far below 2 ** _STAMP_BITS.
        stamp = self._seq[rows] + 1
        self._seq[rows] = stamp
        key = rank + stamp
        if steady:
            # Every admitting client is full and evicts its minimum: no
            # free-slot bookkeeping.
            slot = self._min_slot[rows]
            evicting = rows
        else:
            victims[rows] = FREE
            slot = np.where(full, self._min_slot[rows], self.count[rows])
            evicting = rows[full]
            free = ~full
            free_rows = rows[free]
            self.count[free_rows] += 1
            better = key[free] < self._min_key[free_rows]
            self._min_key[free_rows[better]] = key[free][better]
            self._min_slot[free_rows[better]] = slot[free][better]
        node = self._slot_base[rows] + slot
        if len(evicting):
            gone = self._slots[node if steady else node[full]]
            victims[evicting] = gone
            self._index[self._page_base[evicting] + gone] = EMPTY
        self._slots[node] = page
        self._keys[node] = key
        self._index[self._page_base[rows] + page] = slot
        if len(evicting):
            lowest = self.keys[evicting].argmin(axis=1)
            self._min_key[evicting] = self._keys[
                self._slot_base[evicting] + lowest
            ]
            self._min_slot[evicting] = lowest
        return victims


class BatchedPIX(BatchedP):
    """Columnar :class:`~repro.cache.pix.PIXPolicy`: probability/frequency."""

    name = "PIX"

    def __init__(self, num_clients: int, capacity: int,
                 oracles: BatchedOracles):
        if oracles.frequency is None:
            raise ConfigurationError(
                "this policy requires the 'frequency' oracle in its context"
            )
        super().__init__(num_clients, capacity, oracles)

    @staticmethod
    def _value_table(oracles: BatchedOracles) -> np.ndarray:
        frequency = oracles.frequency
        with np.errstate(divide="ignore", invalid="ignore"):
            value = oracles.probability[None, :] / frequency
        return np.where(frequency > 0.0, value, np.inf)


class BatchedLIX(BatchedPolicy):
    """Columnar :class:`~repro.cache.lix.LIXPolicy`: per-disk chains.

    Links live in two flat columns over ``N·C + N·D`` nodes: node
    ``i·C + s`` is client ``i``'s slot ``s``, node ``N·C + i·D + d`` is
    the sentinel of client ``i``'s chain for disk ``d``.  Following
    ``next`` from a sentinel walks its chain from the bottom (least
    recently used) to the top and back to the sentinel.  The page index
    holds node ids, and the estimate, last-access and rate columns span
    every node: a sentinel's rate is 0, so the bottom of an empty chain
    (its sentinel) scores ``+inf`` like a never-broadcast page.
    """

    name = "LIX"
    use_frequency = True
    #: The index holds node ids in ``intp``: NumPy converts a non-intp
    #: index array on every gather.
    index_dtype = np.intp

    def __init__(self, num_clients: int, capacity: int,
                 oracles: BatchedOracles):
        if oracles.disk is None:
            raise ConfigurationError(
                "this policy requires the 'disk_of' oracle in its context"
            )
        if self.use_frequency and oracles.frequency is None:
            raise ConfigurationError(
                "this policy requires the 'frequency' oracle in its context"
            )
        if not 0.0 < oracles.lix_alpha <= 1.0:
            raise ConfigurationError(
                f"lix_alpha must be in (0, 1], got {oracles.lix_alpha}"
            )
        if oracles.num_disks < 1:
            raise ConfigurationError(
                f"num_disks must be >= 1, got {oracles.num_disks}"
            )
        super().__init__(num_clients, capacity, oracles.disk.shape[1])
        # The oracle tables an admit reads: each page's rate (LIX only)
        # and its disk.
        self._frequency = oracles.frequency if self.use_frequency else None
        self._disk = oracles.disk
        self._alpha = float(oracles.lix_alpha)
        self._beta = 1.0 - self._alpha
        nodes = num_clients * capacity
        links = nodes + num_clients * oracles.num_disks
        self._estimates = np.zeros(links, dtype=np.float64)
        self._last_access = np.zeros(links, dtype=np.float64)
        #: Each node's broadcast rate, stored when its page is placed:
        #: 1.0 for every L slot (so L's division is exact), 0.0 for the
        #: sentinels.
        self._rate = np.ones(links, dtype=np.float64)
        self._rate[nodes:] = 0.0
        #: Sentinel of each slot's chain (its page's disk).
        self._home = np.zeros(nodes, dtype=np.intp)
        self._disks = np.arange(oracles.num_disks)
        self._sentinel_base = nodes + self._rows * oracles.num_disks
        # Every node starts linked to itself: the sentinels as empty
        # chains, the slots until they are first placed.
        self._next = np.arange(links)
        self._prev = np.arange(links)

    def lookup(self, pages: np.ndarray, now: np.ndarray) -> np.ndarray:
        node = self._index[self._page_base + pages]
        hit = node >= 0
        rows = hit.nonzero()[0]
        if len(rows):
            node = node[rows]
            at = now[rows]
            # The scalar estimate ``alpha / max(now - t, _MIN_GAP) +
            # (1 - alpha) * p``, then move-to-top: unlink, append.
            self._estimates[node] = (
                self._alpha / np.maximum(at - self._last_access[node],
                                         _MIN_GAP)
                + self._beta * self._estimates[node]
            )
            self._last_access[node] = at
            self._relink(node, self._home[node])
        return hit

    def admit(self, pages, now, mask) -> np.ndarray:
        victims = self._no_admit.copy()
        rows = mask.nonzero()[0]
        if not len(rows):
            return victims
        page = pages[rows]
        at = now[rows]
        base = self._page_base[rows]
        slot = self.count[rows]
        full = slot >= self.capacity
        if full.all():
            # Every admitting client is full: each one evicts, and the
            # free-slot bookkeeping is skipped.
            node = evicted = self._victims(rows, at)
            evicting, evict_base = rows, base
        else:
            victims[rows] = FREE
            node = self._slot_base[rows] + slot
            evicting, evict_base = rows[full], base[full]
            if len(evicting):
                evicted = node[full] = self._victims(evicting, at[full])
            self.count[rows] += ~full
        if len(evicting):
            gone = self._slots[evicted]
            victims[evicting] = gone
            self._index[evict_base + gone] = EMPTY
        # Enter each page with fresh state at the top of its disk's
        # chain, with its rate for later victim searches.
        self._slots[node] = page
        self._index[base + page] = node
        self._estimates[node] = 0.0
        self._last_access[node] = at
        if self.use_frequency:
            self._rate[node] = _gather(self._frequency, rows, page)
        sentinel = self._sentinel_base[rows] + _gather(self._disk, rows, page)
        self._home[node] = sentinel
        self._relink(node, sentinel)
        return victims

    def _relink(self, node: np.ndarray, sentinel: np.ndarray) -> None:
        """Move each node to the top (most recent end) of its
        sentinel's chain.  A slot never placed is linked to itself, so
        unlinking it changes nothing."""
        nxt, prev = self._next, self._prev
        before = prev[node]
        after = nxt[node]
        nxt[before] = after
        prev[after] = before
        top = prev[sentinel]
        nxt[top] = node
        prev[node] = top
        nxt[node] = sentinel
        prev[sentinel] = node

    def _victims(self, rows: np.ndarray, now: np.ndarray) -> np.ndarray:
        """The evicted node of each listed (full) client: the chain
        bottom of least lix value ``(alpha / max(now - t, _MIN_GAP) +
        (1 - alpha) * p) / rate``, the scalar walk's arithmetic.  A zero
        rate scores ``+inf``, as the scalar walk scores a never-broadcast
        page and skips an empty chain."""
        bottom = self._next[self._sentinel_base[rows, None] + self._disks]
        value = self._alpha / np.maximum(
            now[:, None] - self._last_access[bottom], _MIN_GAP
        ) + self._beta * self._estimates[bottom]
        rate = self._rate[bottom]
        value = np.divide(value, rate, out=np.full_like(value, np.inf),
                          where=rate > 0.0)
        # The first argmin is the scalar walk's strict <: the earliest
        # chain keeps a tie.
        return bottom[self._rows[:len(rows)], value.argmin(axis=1)]


class BatchedL(BatchedLIX):
    """Columnar :class:`~repro.cache.lix.LPolicy`: LIX without frequency."""

    name = "L"
    use_frequency = False


_BATCHED_FACTORIES = {
    "lru": lambda n, c, oracles: BatchedLRU(n, c),
    "p": BatchedP,
    "pix": BatchedPIX,
    "lix": BatchedLIX,
    "l": BatchedL,
}


def batchable_policy_name(policy: str) -> Optional[str]:
    """Normalised policy name if it has a columnar form, else ``None``."""
    name = policy.strip().lower()
    return name if name in _BATCHED_FACTORIES else None


def make_batched_policy(
    name: str,
    num_clients: int,
    capacity: int,
    oracles: BatchedOracles,
) -> BatchedPolicy:
    """A columnar policy for ``name``.

    Callers ask :func:`batchable_policy_name` first and run the scalar
    per-client path for ``None`` (LRU-K and 2Q keep history beyond
    residency, which has no columnar formulation here); such a name
    raises :class:`~repro.errors.ConfigurationError`.  Name
    normalisation matches the scalar registry.
    """
    factory = _BATCHED_FACTORIES.get(name.strip().lower())
    if factory is None:
        raise ConfigurationError(
            f"policy {name!r} has no columnar form; columnar policies: "
            + ", ".join(sorted(key.upper() for key in _BATCHED_FACTORIES))
        )
    return factory(num_clients, capacity, oracles)
