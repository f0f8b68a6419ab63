"""Property tests: batched cache policies == scalar policies, always.

The batched formulations in :mod:`repro.cache.batched` claim to
replicate their scalar counterparts *decision-for-decision* — the same
hits, the same victims, the same declines, in the same tie-break order.
Hypothesis drives both sides of that claim with random fleets over
random request strings:

* every client column of a batched policy behaves exactly like a
  private scalar policy fed the same requests;
* tie-heavy oracles (constant probability, single disk) force the
  tie-break paths: P/PIX must evict the *oldest* minimum-value entry,
  LIX/L must prefer the earliest disk chain — exactly like the scalar
  min-heap and chain walk;
* broadcast-disk-shaped oracles at realistic scale (150 pages, five
  disks, caches up to 48 pages, hundreds of skewed requests) reach the
  long linked chains, the emptied chains and the moving minimum of the
  indexed policies.

Decision equality on every step subsumes evict-score agreement: a
diverging score would pick a diverging victim somewhere in the stream.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import PolicyContext
from repro.cache.batched import (
    FREE,
    NO_ADMIT,
    BatchedOracles,
    make_batched_policy,
)
from repro.cache.registry import make_policy

PAGE_COUNT = 18
NUM_DISKS = 3
POLICIES = ("lru", "p", "pix", "lix", "l")


def oracle_arrays(*, tie_breaking=False):
    """Matching scalar/batched oracle pairs over PAGE_COUNT pages.

    ``tie_breaking=True`` collapses every score to a constant and every
    page onto one disk, so victim selection is decided purely by the
    tie-break rules under test.
    """
    pages = np.arange(PAGE_COUNT)
    if tie_breaking:
        probability = np.full(PAGE_COUNT, 1.0 / PAGE_COUNT)
        frequency = np.full(PAGE_COUNT, 0.125)
        disk = np.zeros(PAGE_COUNT, dtype=np.int64)
    else:
        probability = (PAGE_COUNT - pages) / 300.0
        frequency = 0.05 + 0.01 * (pages % 5)
        disk = pages % NUM_DISKS
    scalar = PolicyContext(
        probability=lambda page: float(probability[page]),
        frequency=lambda page: float(frequency[page]),
        disk_of=lambda page: int(disk[page]),
        num_disks=NUM_DISKS,
    )
    batched = BatchedOracles(
        probability=probability.astype(np.float64),
        frequency=frequency.astype(np.float64)[None, :],
        disk=disk[None, :],
        num_disks=NUM_DISKS,
    )
    return scalar, batched


def drive_both(name, capacity, request_matrix, *, tie_breaking=False):
    """Advance a batched fleet and per-client scalar twins in lockstep.

    ``request_matrix`` is ``(steps, clients)``; every client shares the
    :func:`oracle_arrays` oracles and requests arrive 2.0 apart.
    """
    steps, clients = request_matrix.shape
    scalar_context, batched_oracles = oracle_arrays(
        tie_breaking=tie_breaking
    )
    drive_pair(name, capacity, request_matrix, [scalar_context] * clients,
               batched_oracles, 2.0 * np.arange(1, steps + 1))


def drive_pair(name, capacity, request_matrix, contexts, oracles, times):
    """Step a batched policy and one scalar twin per client together.

    ``contexts[c]`` is client ``c``'s scalar context, ``oracles`` the
    batched form of all of them, ``times`` the request instants.
    Asserts hit columns and victim columns agree on every step,
    translating the scalar vocabulary (None / page / victim) into the
    batched sentinels.
    """
    steps, clients = request_matrix.shape
    batched = make_batched_policy(name, clients, capacity, oracles)
    assert batched is not None
    twins = [make_policy(name, capacity, context) for context in contexts]

    for step in range(steps):
        time = float(times[step])
        pages = request_matrix[step]
        now = np.full(clients, time)
        hits = batched.lookup(pages, now)
        scalar_hits = np.array([
            twin.lookup(int(page), time)
            for twin, page in zip(twins, pages)
        ])
        assert (hits == scalar_hits).all(), (
            f"{name}: hit column diverged at step {step}"
        )
        victims = batched.admit(pages, now, ~hits)
        for client, twin in enumerate(twins):
            if hits[client]:
                assert victims[client] == NO_ADMIT
                continue
            scalar_victim = twin.admit(int(pages[client]), time)
            expected = FREE if scalar_victim is None else scalar_victim
            assert victims[client] == expected, (
                f"{name}: victim diverged at step {step} for "
                f"client {client}: batched {victims[client]}, "
                f"scalar {expected}"
            )
        assert (batched.count <= capacity).all()


request_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda clients: st.lists(
        st.lists(
            st.integers(min_value=0, max_value=PAGE_COUNT - 1),
            min_size=clients, max_size=clients,
        ),
        min_size=1, max_size=60,
    ).map(lambda rows: np.array(rows, dtype=np.int64))
)


class TestBatchedEqualsScalar:
    @given(
        st.sampled_from(POLICIES),
        st.integers(min_value=1, max_value=8),
        request_matrices,
    )
    @settings(max_examples=120, deadline=None)
    def test_decisions_identical(self, name, capacity, matrix):
        drive_both(name, capacity, matrix)

    @given(
        st.sampled_from(("p", "pix")),
        st.integers(min_value=1, max_value=6),
        request_matrices,
    )
    @settings(max_examples=60, deadline=None)
    def test_value_ties_break_by_insertion_order(self, name, capacity,
                                                 matrix):
        # Constant probability: every resident entry shares the minimum
        # value, so the victim must be the oldest insertion — the scalar
        # heap's (value, stamp) order against the batched masked argmin.
        drive_both(name, capacity, matrix, tie_breaking=True)

    @given(
        st.sampled_from(("lix", "l", "lru")),
        st.integers(min_value=1, max_value=6),
        request_matrices,
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_ties_break_by_disk_order(self, name, capacity, matrix):
        # One disk, constant frequency: every candidate sits in chain 0
        # and LIX's inter-access estimator alone picks the victim.
        drive_both(name, capacity, matrix, tie_breaking=True)


# ---------------------------------------------------------------------------
# Realistic scale: long chains, chains that empty and refill, a moving
# minimum
# ---------------------------------------------------------------------------

WIDE_PAGES = 150
WIDE_DISKS = 5


def wide_oracles(clients, rng, *, per_client):
    """Broadcast-disk-shaped oracles over WIDE_PAGES pages, WIDE_DISKS disks.

    Disk ``d`` holds a contiguous run of pages, each disk larger and
    half as frequent as the one before; probabilities fall off Zipf-like
    over regions of five pages, so P's values tie within a region.
    With ``per_client`` every client's pages are shuffled across the
    disks (the noise mapping), giving ``(clients, pages)`` oracles.
    Returns ``(scalar contexts, batched oracles)``.
    """
    pages = np.arange(WIDE_PAGES)
    bounds = np.cumsum(np.arange(1, WIDE_DISKS + 1))
    home = np.searchsorted(bounds * WIDE_PAGES / bounds[-1], pages,
                           side="right")
    probability = 1.0 / (1 + pages // 5) ** 0.95
    probability /= probability.sum()
    rows = clients if per_client else 1
    disk = np.empty((rows, WIDE_PAGES), dtype=np.int64)
    for row in range(rows):
        disk[row] = home[rng.permutation(WIDE_PAGES)] if per_client else home
    frequency = 0.5 ** disk / 4.0
    contexts = [
        PolicyContext(
            probability=lambda page: float(probability[page]),
            frequency=lambda page, row=row: float(frequency[row, page]),
            disk_of=lambda page, row=row: int(disk[row, page]),
            num_disks=WIDE_DISKS,
        )
        for row in (range(clients) if per_client else [0] * clients)
    ]
    oracles = BatchedOracles(
        probability=probability,
        frequency=frequency,
        disk=disk,
        num_disks=WIDE_DISKS,
    )
    return contexts, oracles


def skewed_requests(clients, steps, rng):
    """A ``(steps, clients)`` Zipf-skewed request matrix whose hot set
    moves once, halfway through, so cached chains drain and refill."""
    weights = 1.0 / np.arange(1, WIDE_PAGES + 1) ** rng.uniform(0.6, 1.4)
    requests = rng.choice(WIDE_PAGES, size=(steps, clients),
                          p=weights / weights.sum())
    shift = int(rng.integers(1, WIDE_PAGES))
    requests[steps // 2:] = (requests[steps // 2:] + shift) % WIDE_PAGES
    return requests


class TestBatchedEqualsScalarAtScale:
    """Decisions stay identical at scales the small strategies miss:
    chains dozens of nodes long that empty and refill when the hot set
    moves, and a P/PIX minimum that moves after every eviction."""

    @given(
        st.sampled_from(("lix", "l", "p", "pix")),
        st.integers(min_value=8, max_value=48),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=150, max_value=400),
        st.booleans(),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decisions_identical(self, name, capacity, clients, steps,
                                 per_client, seed):
        rng = np.random.default_rng(seed)
        contexts, oracles = wide_oracles(clients, rng, per_client=per_client)
        requests = skewed_requests(clients, steps, rng)
        # Quantised gaps between requests: the LIX estimator sees
        # repeated gaps.
        times = np.cumsum(rng.integers(1, 8, size=steps) * 0.5)
        drive_pair(name, capacity, requests, contexts, oracles, times)


class TestBatchedSentinels:
    def test_masked_clients_never_admit(self):
        _, oracles = oracle_arrays()
        batched = make_batched_policy("lru", 3, 2, oracles)
        pages = np.array([0, 1, 2])
        now = np.ones(3)
        victims = batched.admit(pages, now, np.array([True, False, True]))
        assert victims[1] == NO_ADMIT
        assert victims[0] == FREE and victims[2] == FREE
        assert batched.count.tolist() == [1, 0, 1]

    def test_decline_returns_the_offered_page(self):
        # P with a full cache of hotter pages declines a colder one.
        _, oracles = oracle_arrays()
        batched = make_batched_policy("p", 1, 2, oracles)
        now = np.ones(1)
        for page in (0, 1):  # hottest pages (descending probability)
            batched.admit(np.array([page]), now, np.array([True]))
        victims = batched.admit(np.array([17]), now, np.array([True]))
        assert victims[0] == 17  # declined: the page itself comes back
        assert 17 not in batched.slots[0]


# ---------------------------------------------------------------------------
# The vectorized single-frequency tuner == the scalar fast tuner
# ---------------------------------------------------------------------------

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.trace import MemorySink, Tracer
from repro.population import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    UniformInt,
    run_population,
)
from repro.population.run import fold_results  # noqa: F401  (import guard)


def _channel_config(channels, policy, cache_size, retune_cost, think_time,
                    seed):
    return ExperimentConfig(
        disk_sizes=(20, 60, 80),
        delta=2,
        cache_size=cache_size,
        policy=policy,
        access_range=60,
        region_size=6,
        num_requests=120,
        think_time=think_time,
        seed=seed,
        channels=channels,
        retune_cost=retune_cost,
    )


class TestMultiChannelTunerEquivalence:
    """Batched tuner decisions == the scalar ``FastEngine`` tuner.

    Trace-stream equality pins the retune *instants* and the
    from/to channel fields; sample equality pins the retune *costs*
    (waits include the switch penalty); the ``retunes`` counter pins
    the measured-phase accounting.
    """

    @given(
        st.sampled_from((1, 2, 4)),
        st.sampled_from(("LRU", "LIX", "L", "P", "PIX")),
        st.integers(min_value=1, max_value=16),
        st.sampled_from((0.0, 1.0, 2.5)),
        st.sampled_from((0.0, 1.0, 2.5)),
        st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_fast_per_client(self, channels, policy,
                                          cache_size, retune_cost,
                                          think_time, seed):
        config = _channel_config(
            channels, policy, cache_size, retune_cost, think_time, seed
        )
        streams = {}
        results = {}
        for engine in ("fast", "batch"):
            sink = MemorySink()
            results[engine] = run_experiment(
                config, engine=engine, collect_responses=True,
                tracer=Tracer(sink),
            )
            streams[engine] = [
                (r.time, r.kind, r.fields) for r in sink.records
            ]
        fast, batch = results["fast"], results["batch"]
        assert batch.samples == fast.samples
        assert batch.mean_response_time == fast.mean_response_time
        assert batch.hit_rate == fast.hit_rate
        assert batch.retunes == fast.retunes
        assert streams["batch"] == streams["fast"]
        if channels > 1:
            retune_records = [
                r for r in streams["batch"] if r[1] == "client.retune"
            ]
            assert batch.retunes <= sum(
                1 for r in streams["batch"] if r[1] == "client.retune"
            )
            for _, _, fields in retune_records:
                assert fields["from_channel"] != fields["to_channel"]


# ---------------------------------------------------------------------------
# Sub-segmented heterogeneous fleets == the per-client plan path
# ---------------------------------------------------------------------------

class TestSubSegmentationIdentity:
    @given(
        st.sampled_from((1, 2)),
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=10, deadline=None)
    def test_fleet_matches_population(self, channels, clients, seed):
        from repro.batch.fleet import run_fleet

        spec = PopulationSpec(
            name="prop-subseg",
            base=_channel_config(channels, "LIX", 8, 1.0, 1.0, 3),
            seed=seed,
            engine="batch",
            segments=(
                SegmentSpec(
                    "varied", clients,
                    cache_size=UniformInt(2, 10),
                    policy=Choice(("LRU", "LIX")),
                ),
            ),
        )
        fleet = run_fleet(spec)
        # A ``batch`` spec would send run_population back to run_fleet;
        # ``fast`` folds the clients one plan at a time.
        population = run_population(dataclasses.replace(spec, engine="fast"))

        def strip(document):
            document.pop("total_wall_seconds")
            return document

        assert strip(fleet.overall.snapshot()) == \
            strip(population.overall.snapshot())
