"""The benchmark's four workloads, driven through the library's public API.

Each workload builds its inputs from the seed, sets up its system several
times (the median is ``setup_s``), runs the measured phase, checks the
outputs and returns an :class:`Outcome`.  With a :class:`Tracer` it also
records spans around the layer-boundary calls it makes, from which
:func:`layer_metrics` derives the per-layer numbers.

Why these four (each stresses a different layer):

* ``xlmr-train`` is ORAM-bound: almost all of an XLM-R epoch is spent in
  the store's ``fetch_rows``/``update_rows`` on the LAORAM engine.
* ``dlrm-train`` is model-bound: the per-sample DLRM forward/backward
  dominates, so an ORAM change should not move it and a model change should.
* ``kaggle-trace`` is the paper's offline replay with a recursive position
  map; the only workload that plans, places, evicts in the background and
  walks recursion levels.
* ``zipf-serve`` is open-loop online serving on PathORAM shards in worker
  processes; the only workload that uses the fused single-access driver,
  shared memory, IPC and request coalescing.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
from multiprocessing import resource_tracker
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.datasets.kaggle import SyntheticCriteoDataset, SyntheticKaggleTrace
from repro.datasets.xnli import XLMR_VOCABULARY_SIZE, SyntheticXNLIDataset
from repro.datasets.zipf import ZipfTraceGenerator
from repro.embedding.dlrm import DLRMModel
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer
from repro.embedding.xlmr import XLMRClassifier
from repro.experiments.configs import build_engine, build_oram_config
from repro.experiments.sharded import ShardedRunner
from repro.oram.engine import TreeORAMEngine
from repro.serving.service import AsyncShardedService

from measure import (
    ladder_should_stop,
    max_ok_rate,
    median,
    peak_rss_mb,
    percentile,
    rung_passes,
    due_latencies,
    windowed_percentile,
)
from tracing import Tracer

#: Engine configuration of the three single-engine workloads (paper notation).
LAORAM_LABEL = "Fat/S4"
#: Embedding width of both training workloads.
EMBEDDING_DIM = 16
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Work per ``--seconds`` second, sized so a run measures about that long
#: on a 2-vCPU machine.  Fixed per second (not adaptive) so that the parent
#: and a change run identical work and their counters repeat exactly.
XLMR_SAMPLES_PER_SECOND = 200
DLRM_SAMPLES_PER_SECOND = 352
KAGGLE_ACCESSES_PER_SECOND = 8192

DLRM_TABLE_ROWS = 1 << 20
DLRM_BATCH = 32
KAGGLE_BLOCKS = 1 << 20

SERVE_BLOCKS = 1 << 20
SERVE_SHARDS = 4
SERVE_BLOCK_BYTES = 128
SERVE_REQUEST_IDS = 16
SERVE_ZIPF = 1.1
#: Nominal open-loop rate, well below capacity (1.6-1.8k rps with one
#: worker on a quiet 2-vCPU machine); 300 requests per ``--seconds`` second
#: are sent at it (6 s of schedule at ``--seconds 10``).
SERVE_NOMINAL_RPS = 500.0
SERVE_NOMINAL_REQUESTS_PER_SECOND = 300
#: p99 is the median over windows of this many requests (10 beyond the p99).
SERVE_P99_WINDOW = 1000
#: Capacity ladder: fixed rates 10% apart, 1000 requests per rung; a rung
#: passes when its p99 and its final completion stay within the limit.
SERVE_LADDER_RPS = tuple(float(round(1000 * 1.1**k)) for k in range(17))
SERVE_RUNG_REQUESTS = 1000
SERVE_P99_LIMIT_MS = 50.0

#: Engine entry points whose self time is ``oram.execute_s``.
ORAM_CALLS = ("oram.run_trace", "oram.access_many", "oram.write_many")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    #: Compared between the untraced and the traced run; must be equal.
    fingerprint: tuple
    #: Base of the tracing overhead: the measured call's wall time (closed
    #: loops) or the median request latency (serving).
    measured_s: float
    #: Raw inputs of :func:`layer_metrics` (counters, span-free figures).
    raw: dict[str, float] = field(default_factory=dict)


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent seeds derived from the run's ``--seed``."""
    return [int(value) for value in np.random.SeedSequence(seed).generate_state(count)]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _repeated_setup(build: Callable, release: Callable = lambda _: None):
    """Build ``SETUP_REPS`` times; return (median seconds, last instance).

    Each earlier instance is released before the next is built, so peak
    memory holds one instance at a time.
    """
    times = []
    instance = None
    for _ in range(SETUP_REPS):
        if instance is not None:
            release(instance)
            instance = None
            gc.collect()
        start = time.perf_counter()
        instance = build()
        times.append(time.perf_counter() - start)
    return median(times), instance


def _checked(failures: list[str], name: str, ok: bool) -> None:
    if not ok:
        failures.append(name)


def _bytes_per_access(snapshot) -> float:
    return (snapshot.total_bytes + snapshot.posmap_total_bytes) / snapshot.logical_accesses


def _stash_entry_bytes(block_size_bytes: int) -> int:
    """Client bytes per stashed block, as ``client_memory_bytes()`` charges it."""
    return block_size_bytes + TreeORAMEngine.STASH_ENTRY_OVERHEAD_BYTES


def _peak_client_memory(engine) -> float:
    """``client_memory_bytes()`` with the stash at its peak, not its final size.

    The final stash size depends on where the run stopped relative to the
    last background eviction; the peak is what a deployment provisions.
    """
    entry = _stash_entry_bytes(engine.config.block_size_bytes)
    return float(
        engine.client_memory_bytes()
        + (engine.statistics.stash_peak - engine.stash_occupancy) * entry
    )


def _counter_raw(snapshot, stash_hits: float) -> dict[str, float]:
    return {
        "logical_accesses": snapshot.logical_accesses,
        "path_reads": snapshot.path_reads,
        "dummy_reads": snapshot.dummy_reads,
        "posmap_path_reads": snapshot.posmap_path_reads,
        "posmap_bytes": snapshot.posmap_total_bytes,
        "stash_peak": snapshot.stash_peak,
        "stash_hits": stash_hits,
    }


# ----------------------------------------------------------------------
# Closed-loop training
# ----------------------------------------------------------------------
def _training(
    model_factory: Callable,
    dataset,
    num_rows: int,
    epoch: Callable,
    expected_accesses: int,
    seeds: list[int],
    tracer: Optional[Tracer],
    check_reference: bool,
) -> Outcome:
    """One training epoch through ``SecureEmbeddingStore`` on Fat/S4."""
    table = EmbeddingTable(num_rows, EMBEDDING_DIM, seed=seeds[0])
    config = build_oram_config(num_rows, block_size_bytes=table.row_nbytes, seed=seeds[1])

    def build() -> SecureEmbeddingStore:
        with _span(tracer, "oram.construct"):
            engine = build_engine(LAORAM_LABEL, config, fast=True)
        with _span(tracer, "embedding.load"):
            return SecureEmbeddingStore(engine, table)

    setup_s, store = _repeated_setup(build)
    engine = store.memory
    trainer = ObliviousEmbeddingTrainer(store)
    if tracer is not None:
        tracer.wrap(engine, "preprocess", "core.plan")
        tracer.wrap(engine, "apply_initial_placement", "core.place")
        tracer.wrap(engine, "access_many", "oram.access_many")
        tracer.wrap(engine, "write_many", "oram.write_many")
        tracer.wrap(store, "fetch_rows", "embedding.fetch")
        tracer.wrap(store, "update_rows", "embedding.update")

    model = model_factory()
    with _span(tracer, "embedding.epoch"):
        start = time.perf_counter()
        report = epoch(trainer, model, dataset)
        elapsed = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    snapshot = engine.statistics
    failures: list[str] = []
    _checked(failures, "every access served", snapshot.logical_accesses == expected_accesses)
    raw = _counter_raw(snapshot, engine.stash_hits)
    client_mem = _peak_client_memory(engine)
    del trainer, store, engine
    gc.collect()
    if check_reference:
        # The same epoch over the insecure flat store must train identically.
        reference_store = SecureEmbeddingStore(build_engine("Insecure", config), table)
        reference = epoch(ObliviousEmbeddingTrainer(reference_store), model_factory(), dataset)
        _checked(
            failures,
            "loss and accuracy equal the insecure epoch",
            (reference.mean_loss, reference.accuracy) == (report.mean_loss, report.accuracy),
        )

    samples = dataset.num_samples
    checks = 1 + int(check_reference)
    return Outcome(
        metrics={
            "samples_per_s": samples / elapsed,
            "accesses_per_s": snapshot.logical_accesses / elapsed,
            "setup_s": setup_s,
            "bytes_per_access": _bytes_per_access(snapshot),
            "client_mem_bytes": client_mem,
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - len(failures) / (samples + checks),
        },
        attempted=samples + checks,
        failures=failures,
        fingerprint=(snapshot, report.mean_loss, report.accuracy),
        measured_s=elapsed,
        raw=raw,
    )


def xlmr_train(seed: int, seconds: int, tracer: Optional[Tracer], check_reference: bool) -> Outcome:
    """XLM-R epoch: 262,144-row vocabulary, 32 Zipf(1.2) tokens per sample."""
    seeds = sub_seeds(seed, 4)
    dataset = SyntheticXNLIDataset(
        XLMR_SAMPLES_PER_SECOND * seconds,
        vocabulary_size=XLMR_VOCABULARY_SIZE,
        sequence_length=32,
        exponent=1.2,
        seed=seeds[2],
    )
    return _training(
        lambda: XLMRClassifier(EMBEDDING_DIM, seed=seeds[3]),
        dataset,
        XLMR_VOCABULARY_SIZE,
        lambda trainer, model, data: trainer.train_xlmr_epoch(model, data),
        2 * dataset.tokens.size,  # every token row is fetched, then written back
        seeds,
        tracer,
        check_reference,
    )


def dlrm_train(seed: int, seconds: int, tracer: Optional[Tracer], check_reference: bool) -> Outcome:
    """DLRM epoch: 2^20-row protected table, minibatches of 32."""
    seeds = sub_seeds(seed, 4)
    dataset = SyntheticCriteoDataset(
        DLRM_SAMPLES_PER_SECOND * seconds // DLRM_BATCH * DLRM_BATCH,
        largest_table_rows=DLRM_TABLE_ROWS,
        seed=seeds[2],
    )
    protected = dataset.largest_table_index
    small_tables = tuple(
        size for index, size in enumerate(dataset.table_sizes) if index != protected
    )
    return _training(
        lambda: DLRMModel(
            dataset.dense.shape[1], small_tables, embedding_dim=EMBEDDING_DIM, seed=seeds[3]
        ),
        dataset,
        DLRM_TABLE_ROWS,
        lambda trainer, model, data: trainer.train_dlrm_epoch(
            model, data, batch_size=DLRM_BATCH
        ),
        2 * dataset.num_samples,  # one protected row fetched and written per sample
        seeds,
        tracer,
        check_reference,
    )


# ----------------------------------------------------------------------
# Closed-loop trace replay
# ----------------------------------------------------------------------
def kaggle_trace(seed: int, seconds: int, tracer: Optional[Tracer], check_reference: bool) -> Outcome:
    """Offline replay of a Kaggle-like trace with a recursive position map."""
    seeds = sub_seeds(seed, 2)
    config = build_oram_config(KAGGLE_BLOCKS, seed=seeds[0])
    addresses = SyntheticKaggleTrace(KAGGLE_BLOCKS, hot_fraction=0.12, seed=seeds[1]).generate(
        KAGGLE_ACCESSES_PER_SECOND * seconds
    ).addresses

    def build():
        with _span(tracer, "oram.construct"):
            return build_engine(
                LAORAM_LABEL,
                config,
                fast=True,
                recursive_posmap=True,
                posmap_positions_per_block=64,
                posmap_cutoff_bytes=1 << 16,
            )

    setup_s, engine = _repeated_setup(build)
    if tracer is not None:
        tracer.wrap(engine, "preprocess", "core.plan")
        tracer.wrap(engine, "apply_initial_placement", "core.place")
        tracer.wrap(engine, "run_trace", "oram.run_trace")

    start = time.perf_counter()
    engine.run_trace(addresses)
    elapsed = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    snapshot = engine.statistics
    failures: list[str] = []
    _checked(failures, "every access served", snapshot.logical_accesses == addresses.size)
    _checked(failures, "blocks conserved", engine.total_real_blocks() == KAGGLE_BLOCKS)
    _checked(
        failures,
        "posmap traffic charged",
        snapshot.posmap_path_reads > 0 and snapshot.posmap_total_bytes > 0,
    )
    checks = 3
    # One replayed trace element is the replay's sample.
    accesses_per_s = addresses.size / elapsed
    return Outcome(
        metrics={
            "samples_per_s": accesses_per_s,
            "accesses_per_s": accesses_per_s,
            "setup_s": setup_s,
            "bytes_per_access": _bytes_per_access(snapshot),
            "client_mem_bytes": _peak_client_memory(engine),
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - len(failures) / (addresses.size + checks),
        },
        attempted=int(addresses.size) + checks,
        failures=failures,
        fingerprint=(snapshot,),
        measured_s=elapsed,
        raw=_counter_raw(snapshot, engine.stash_hits),
    )


# ----------------------------------------------------------------------
# Open-loop serving
# ----------------------------------------------------------------------
async def _open_loop(service: AsyncShardedService, offsets: np.ndarray, ids: list[list[int]]):
    """Submit ``ids[i]`` at ``offsets[i]`` seconds from now; never wait on replies.

    Returns absolute (due, sent, done) times; a failed request's done time
    is infinite so it misses every latency limit.
    """
    count = len(ids)
    sent = [0.0] * count
    done = [float("inf")] * count

    async def request(index: int) -> None:
        await service.submit(ids[index])
        done[index] = time.perf_counter()

    base = time.perf_counter() + 0.01
    due = [base + float(offset) for offset in offsets]
    tasks = []
    for index in range(count):
        delay = due[index] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent[index] = time.perf_counter()
        tasks.append(asyncio.create_task(request(index)))
    results = await asyncio.gather(*tasks, return_exceptions=True)
    failed = sum(isinstance(result, BaseException) for result in results)
    return due, sent, done, failed


def _poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class _ServeRun:
    """Schedule outcome of one serving run."""

    nominal: tuple  # (due, sent, done, failed) of the nominal phase
    nominal_snapshot: object  # merged counters after the nominal phase
    rates: list[float]  # ladder rungs run, in order
    passed: list[bool]
    submitted: int
    failed: int


async def _drive(
    service: AsyncShardedService,
    runner: ShardedRunner,
    ids: list[list[int]],
    nominal_offsets: np.ndarray,
    rung_offsets: list[np.ndarray],
) -> _ServeRun:
    """The nominal phase, then the capacity ladder, on one service."""
    async with service:
        nominal = await _open_loop(service, nominal_offsets, ids[: len(nominal_offsets)])
        runner.executor.refresh_states()
        run = _ServeRun(
            nominal, runner.merged_snapshot(), [], [], len(nominal_offsets), nominal[3]
        )
        for rate, offsets in zip(SERVE_LADDER_RPS, rung_offsets):
            if ladder_should_stop(run.passed):
                break
            rung_ids = ids[run.submitted : run.submitted + len(offsets)]
            due, _, done, failed = await _open_loop(service, offsets, rung_ids)
            run.submitted += len(offsets)
            run.failed += failed
            run.rates.append(rate)
            run.passed.append(rung_passes(due, done, SERVE_P99_LIMIT_MS))
    return run


def zipf_serve(seed: int, seconds: int, tracer: Optional[Tracer], check_reference: bool) -> Outcome:
    """Open-loop Zipf lookups into AsyncShardedService over PathORAM shards."""
    seeds = sub_seeds(seed, 3)
    # One CPU is left to the front end (event loop, generator, dispatch
    # threads); the others run shard workers.
    workers = max(1, min(SERVE_SHARDS, len(os.sched_getaffinity(0)) - 1))
    nominal = SERVE_NOMINAL_REQUESTS_PER_SECOND * seconds
    total = nominal + SERVE_RUNG_REQUESTS * len(SERVE_LADDER_RPS)
    all_ids = (
        ZipfTraceGenerator(SERVE_BLOCKS, exponent=SERVE_ZIPF, seed=seeds[0])
        .generate(total * SERVE_REQUEST_IDS)
        .addresses.reshape(total, SERVE_REQUEST_IDS)
        .tolist()
    )
    arrivals = np.random.default_rng(seeds[1])
    nominal_offsets = _poisson_offsets(arrivals, SERVE_NOMINAL_RPS, nominal)
    rung_offsets = [
        _poisson_offsets(arrivals, rate, SERVE_RUNG_REQUESTS) for rate in SERVE_LADDER_RPS
    ]

    def build() -> ShardedRunner:
        with _span(tracer, "sharded.start"):
            return ShardedRunner(
                SERVE_BLOCKS,
                SERVE_SHARDS,
                family="pathoram",
                block_size_bytes=SERVE_BLOCK_BYTES,
                seed=seeds[2],
                num_workers=workers,
            )

    # Workers forked after this share one resource tracker, a child of this
    # process, instead of each starting its own; stopping it at the end
    # waits for it, so no process the run started outlives it.
    resource_tracker.ensure_running()
    try:
        setup_s, runner = _repeated_setup(build, release=lambda old: old.close())
        try:
            if tracer is not None:
                tracer.wrap(runner.executor, "access_on_worker", "sharded.access_on_worker")
            service = AsyncShardedService(runner)
            run = asyncio.run(_drive(service, runner, all_ids, nominal_offsets, rung_offsets))
            peak_mb = peak_rss_mb([child.pid for child in multiprocessing.active_children()])
            states = runner.executor.refresh_states()
            snapshot = runner.merged_snapshot()
            stash_peaks = sum(state["snapshot"].stash_peak for state in states.values())
            batch_ids_mean = service.latency_summary().mean_batch_size
        finally:
            runner.close()
    finally:
        resource_tracker._resource_tracker._stop()

    # Client memory of the dense-posmap PathORAM shards with every stash at
    # its peak: one int64 leaf per block plus the stashed blocks, as
    # client_memory_bytes() computes it inside the workers.  Reading the
    # live position maps instead (runner.position_maps()) attaches to the
    # workers' segments, which under the fork start method makes the shared
    # resource tracker print KeyError tracebacks when the workers unlink.
    posmap_bytes = SERVE_BLOCKS * np.dtype(np.int64).itemsize
    client_mem = posmap_bytes + stash_peaks * _stash_entry_bytes(SERVE_BLOCK_BYTES)
    due, sent, done, _ = run.nominal
    latencies_ms = [1e3 * value for value in due_latencies(due, done)]
    failures = [f"request {index} failed" for index in range(run.failed)]
    _checked(
        failures,
        "every id served once",
        snapshot.logical_accesses == run.submitted * SERVE_REQUEST_IDS,
    )
    checks = 1
    # Goodput at the nominal offered rate: requests delivered per second
    # from the first due time to the last completion.
    goodput = nominal / (max(done) - due[0])
    return Outcome(
        metrics={
            "samples_per_s": goodput,
            "accesses_per_s": goodput * SERVE_REQUEST_IDS,
            "setup_s": setup_s,
            "bytes_per_access": _bytes_per_access(snapshot),
            "client_mem_bytes": float(client_mem),
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - len(failures) / (run.submitted + checks),
        },
        attempted=run.submitted + checks,
        failures=failures,
        fingerprint=(run.nominal_snapshot,),
        measured_s=median(latencies_ms) * 1e-3,
        raw={
            **_counter_raw(snapshot, 0.0),
            "batch_ids_mean": batch_ids_mean,
            "gen_late_ms": percentile([1e3 * (s - d) for s, d in zip(sent, due)], 99.0),
            "p50_ms": median(latencies_ms),
            "p99_ms": windowed_percentile(latencies_ms, 99.0, SERVE_P99_WINDOW),
            "max_ok_rps": max_ok_rate(run.rates, run.passed),
        },
    )


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "xlmr-train": xlmr_train,
    "dlrm-train": dlrm_train,
    "kaggle-trace": kaggle_trace,
    "zipf-serve": zipf_serve,
}


def layer_metrics(tracer: Tracer, outcome: Outcome, untraced: Outcome) -> dict[str, float]:
    """Per-layer metrics of a traced run (0.0 where a layer did no work)."""
    raw = outcome.raw
    accesses = raw["logical_accesses"]
    paths = raw["path_reads"] + raw["dummy_reads"] + raw["posmap_path_reads"]
    execute_s = tracer.self_total(ORAM_CALLS)
    batch_ms = [1e3 * value for value in tracer.durations("sharded.access_on_worker")]

    def setup_median(name: str) -> float:
        values = tracer.durations(name)
        return median(values) if values else 0.0

    return {
        "core.plan_s": tracer.total(("core.plan",)),
        "core.place_s": tracer.total(("core.place",)),
        "oram.execute_s": execute_s,
        "oram.us_per_path": 1e6 * execute_s / paths if paths else 0.0,
        "oram.path_reads_per_access": raw["path_reads"] / accesses,
        "oram.stash_hit_ratio": raw["stash_hits"] / accesses,
        "oram.dummy_reads_per_access": raw["dummy_reads"] / accesses,
        "oram.stash_peak": raw["stash_peak"],
        "oram.posmap_paths_per_access": raw["posmap_path_reads"] / accesses,
        "oram.posmap_bytes_per_access": raw["posmap_bytes"] / accesses,
        "oram.construct_s": setup_median("oram.construct"),
        "embedding.load_s": setup_median("embedding.load"),
        "embedding.fetch_s": tracer.total(("embedding.fetch",)),
        "embedding.update_s": tracer.total(("embedding.update",)),
        "embedding.store_self_s": tracer.self_total(("embedding.fetch", "embedding.update")),
        "embedding.model_s": tracer.self_total(("embedding.epoch",)),
        "sharded.start_s": setup_median("sharded.start"),
        "sharded.batch_exec_ms.p50": percentile(batch_ms, 50.0) if batch_ms else 0.0,
        "sharded.batch_exec_ms.p99": percentile(batch_ms, 99.0) if batch_ms else 0.0,
        "serving.batch_ids_mean": raw.get("batch_ids_mean", 0.0),
        # Generator lateness, request latency and capacity: untraced pass.
        "serving.gen_late_ms": untraced.raw.get("gen_late_ms", 0.0),
        "serving.p50_ms": untraced.raw.get("p50_ms", 0.0),
        "serving.p99_ms": untraced.raw.get("p99_ms", 0.0),
        "serving.max_ok_rps": untraced.raw.get("max_ok_rps", 0.0),
        "trace.overhead_frac": outcome.measured_s / untraced.measured_s - 1.0,
    }
