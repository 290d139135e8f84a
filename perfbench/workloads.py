"""The benchmark's three workloads: seeded inputs, the measured run, the checks.

* ``batch_dense_hybrid`` — a Stock-shaped world (every pair shares hundreds
  of items), HYBRID detection, serial executor, dense pair layout.  The
  BOUND+ timer-chain replay dominates.
* ``batch_sparse_index`` — a Book-shaped Zipf world whose pair key space
  exceeds the dense limit, INDEX detection on the ``processes`` executor
  with a tree reduce, then a read phase whose working set is several times
  the reader's LRU.
* ``stream_growing`` — a Book-CS-shaped feed pushed through the live
  streaming service in closed-loop micro-batches while the ledger grows,
  with reads of each published epoch.

Each workload builds its inputs from ``--seed`` alone (load generation,
never timed); the system under test receives only the generated claims.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import random
import shutil
import time
from statistics import median
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from digest import Outcome
from measure import percentile, tail_percentile
from spans import Tracer, count_layout_fallbacks

WORKLOADS = ("batch_dense_hybrid", "batch_sparse_index", "stream_growing")

#: World and run sizes: ``full`` is the benchmark, ``tiny`` exercises the
#: same code paths in about a second for the benchmark's own tests.
SIZES = ("full", "tiny")

#: Workloads whose world is generated once, with this seed, whatever the run's
#: seed; the run's seed only samples (and for the stream orders) the claims.
#: Their Zipf-covered worlds differ in size from seed to seed — 7% in claims
#: on the sparse world, 10% in the stream's pair count — and their cost with it.
FIXED_WORLD_SEED = 0
FIXED_WORLD = ("batch_sparse_index", "stream_growing")

#: Share of the sparse world's claims each seed leaves out.
SPARSE_DROP = 0.05

#: ``run_fusion`` pinned to three rounds: ``tolerance=0`` never converges
#: early, so every job does the same amount of work.
PINNED_ROUNDS = dict(max_rounds=3, min_rounds=3, tolerance=0.0)


@dataclass(frozen=True)
class BatchSpec:
    method: str
    executor: str
    n_partitions: int
    reduce: str
    setups: int  #: set-ups per run; ``setup_s`` is their median
    min_jobs: int  #: timed jobs per run, at least (more while time remains)
    reads: int  #: read operations in the read phase (0: none)


@dataclass(frozen=True)
class StreamSpec:
    setups: int
    bootstrap: int  #: claims in the bootstrap epoch (part of set-up)
    epochs: int  #: streamed micro-batches (closed loop)
    batch: int  #: claims per micro-batch
    read_keys: int  #: distinct pairs read per epoch (fits the LRU)
    reads: int  #: verdict reads per epoch
    truth_reads: int  #: truth reads per epoch


BATCH_SPECS = {
    ("batch_dense_hybrid", "full"): BatchSpec("hybrid", "serial", 1, "flat", 5, 3, 150_000),
    ("batch_dense_hybrid", "tiny"): BatchSpec("hybrid", "serial", 1, "flat", 2, 2, 500),
    ("batch_sparse_index", "full"): BatchSpec("index", "processes", 2, "tree", 3, 2, 150_000),
    ("batch_sparse_index", "tiny"): BatchSpec("index", "processes", 2, "tree", 2, 2, 500),
}

STREAM_SPECS = {
    "full": StreamSpec(setups=3, bootstrap=3000, epochs=50, batch=80, read_keys=50, reads=300, truth_reads=30),
    "tiny": StreamSpec(setups=2, bootstrap=150, epochs=12, batch=15, read_keys=10, reads=30, truth_reads=5),
}


def generator_config(workload: str, size: str, seed: int):
    """The synthetic world behind a batch workload."""
    from repro.synth import GeneratorConfig

    if workload == "batch_dense_hybrid":
        # Stock-shaped: ~212 sources x 400 items, everyone covers 30-60%.
        n_items, n_sources = (400, 200) if size == "full" else (40, 12)
        return GeneratorConfig(
            n_items=n_items,
            n_independent_sources=n_sources,
            n_false_values=50,
            accuracy_range=(0.7, 0.97),
            coverage_model="uniform",
            coverage_range=(0.3, 0.6),
            n_copier_groups=4,
            copiers_per_group=3,
            copy_selectivity=0.8,
            copier_accuracy=0.6,
            copier_extra_coverage=0.3,
            gold_size=n_items,
            seed=seed,
        )
    if workload == "batch_sparse_index":
        # Book-shaped: ~2,400 sources x 1,500 items with Zipf coverage;
        # 2400**2 pair keys exceed the 4M dense limit, so "auto" goes sparse.
        n_items, n_sources = (1500, 2385) if size == "full" else (150, 45)
        return GeneratorConfig(
            n_items=n_items,
            n_independent_sources=n_sources,
            n_false_values=50,
            accuracy_range=(0.35, 0.85),
            coverage_model="zipf",
            coverage_range=(0.003 if size == "full" else 0.03, 0.5),
            zipf_exponent=1.0,
            n_copier_groups=5,
            copiers_per_group=3,
            copy_selectivity=0.8,
            copier_accuracy=0.55,
            copier_extra_coverage=0.02,
            gold_size=n_items,
            seed=seed,
        )
    raise ValueError(f"{workload} is not a batch workload")


@dataclass
class Inputs:
    """Generated load: claims as name triples, plus the generator's ground truth."""

    sources: list[str]
    claims: list[tuple[str, str, str]]
    gold: dict[str, str]  #: item name -> true value, for every item of the world
    planted: set[frozenset[str]]  #: every pair inside a planted copier group


def _planted_group_pairs(copy_pairs) -> set[frozenset[str]]:
    """All pairs inside each connected group of planted copy edges.

    Copiers of one original share its claims and are detected as copying
    each other, so the whole group is the reference, not just the edges.
    """
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in copy_pairs:
        parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for name in parent:
        groups.setdefault(find(name), []).append(name)
    return {
        frozenset(pair)
        for members in groups.values()
        for pair in itertools.combinations(sorted(members), 2)
    }


def make_inputs(workload: str, size: str, seed: int) -> Inputs:
    """Deterministic inputs of a workload: the same seed gives the same claims."""
    from repro.synth import generate

    world_seed = FIXED_WORLD_SEED if workload in FIXED_WORLD else seed
    if workload == "stream_growing":
        from repro.synth import make_profile

        spec = STREAM_SPECS[size]
        world = make_profile("book_cs", scale=0.6 if size == "full" else 0.1, seed=world_seed)
        # The same claims again, with every item in the gold standard: the
        # profile's 100 gold items make truth accuracy swing with the seed.
        world = generate(replace(world.config, gold_size=world.config.n_items))
    else:
        world = generate(generator_config(workload, size, world_seed))
    dataset = world.dataset
    claims = [
        (dataset.source_names[s], dataset.item_names[i], dataset.value_label[v])
        for s, i, v in dataset.iter_claims()
    ]
    sources = list(dataset.source_names)
    if workload == "stream_growing":
        random.Random(seed).shuffle(claims)
        needed = spec.bootstrap + spec.epochs * spec.batch
        if len(claims) < needed:
            raise ValueError(
                f"seed {seed}: the feed has {len(claims)} claims, the schedule needs {needed}"
            )
        claims = claims[:needed]
        sources = list(dict.fromkeys(source for source, _, _ in claims))
    elif workload == "batch_sparse_index":
        rng = random.Random(seed)
        claims = [claim for claim in claims if rng.random() >= SPARSE_DROP]
        kept = {source for source, _, _ in claims}
        sources = [source for source in sources if source in kept]
    return Inputs(
        sources=sources,
        claims=claims,
        gold=dict(world.gold.truths),
        planted=_planted_group_pairs(world.copy_pairs),
    )


def fingerprint(workload: str, size: str, inputs: Inputs) -> str:
    """Hash of everything that decides a workload's outputs: claims, sources, schedule.

    Reference digests are keyed by it, so changing a workload's inputs can
    never be checked against a digest recorded for the old ones.
    """
    if workload == "stream_growing":
        spec = STREAM_SPECS[size]
        shape = [spec.bootstrap, spec.epochs, spec.batch]
    else:
        shape = [BATCH_SPECS[(workload, size)].method, PINNED_ROUNDS]
    payload = json.dumps([shape, inputs.sources, inputs.claims])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def stream_partitions(inputs: Inputs, size: str) -> list[list[tuple[str, str, str]]]:
    """The bootstrap batch followed by the streamed micro-batches."""
    spec = STREAM_SPECS[size]
    claims = inputs.claims
    parts = [claims[: spec.bootstrap]]
    for k in range(spec.epochs):
        start = spec.bootstrap + k * spec.batch
        parts.append(claims[start : start + spec.batch])
    return parts


def build_dataset(inputs: Inputs):
    from repro.data import DatasetBuilder

    builder = DatasetBuilder()
    for name in inputs.sources:
        builder.ensure_source(name)
    for source, item, value in inputs.claims:
        builder.add(source, item, value)
    return builder.build()


def quality(dataset, chosen, copying_pairs, inputs: Inputs) -> tuple[float, float]:
    """``(truth_accuracy, copy_f1)`` against the generator's gold and planted groups.

    Gold items and planted pairs whose sources never made it into
    ``dataset`` (a stream stops before the whole world arrives) are left out.
    """
    from repro.eval import pair_quality

    item_ids = {name: i for i, name in enumerate(dataset.item_names)}
    source_ids = {name: i for i, name in enumerate(dataset.source_names)}
    gold = [(item_ids[item], value) for item, value in inputs.gold.items() if item in item_ids]
    right = sum(
        1
        for item, value in gold
        if item in chosen and dataset.value_label[chosen[item]] == value
    )
    planted = set()
    for pair in inputs.planted:
        a, b = sorted(pair)
        if a in source_ids and b in source_ids:
            planted.add(tuple(sorted((source_ids[a], source_ids[b]))))
    f1 = pair_quality(planted, copying_pairs).f_measure
    return (right / len(gold) if gold else 0.0), f1


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(problems if isinstance(problems, list) else [problems])


@dataclass
class PassResult:
    """What one pass over a workload measured."""

    setups: list[float]
    job_s: float
    jobs: list[float]
    reads_ns: list[int]
    truth_accuracy: float
    copy_f1: float
    world: dict
    layer_extras: dict[str, float] = field(default_factory=dict)
    stream: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _BatchContext:
    """Everything set-up produces: the dataset, a warm workspace, the detector."""

    def __init__(self, inputs: Inputs, spec: BatchSpec, tracer: Tracer):
        from repro.core import CopyParams, SingleRoundDetector
        from repro.fusion.workspace import FusionWorkspace

        self.params = CopyParams()
        with tracer.span("data.dataset_build"):
            self.dataset = build_dataset(inputs)
        self.workspace = FusionWorkspace(self.dataset, self.params)
        try:
            # Claims are static: the round-invariant caches are part of ready-to-run.
            self.workspace.shared_items
            self.workspace.fusion_columns
            if spec.executor != "serial":
                # Pools start workers on first use; make them start now.
                pool = self.workspace.pool(spec.executor)
                with tracer.span("parallel.pool_spawn"):
                    list(pool.map(abs, range(os.cpu_count() or 1)))
            self.detector = SingleRoundDetector(
                self.params,
                method=spec.method,
                n_partitions=spec.n_partitions,
                executor=spec.executor,
                reduce=spec.reduce,
            )
        except BaseException:
            self.workspace.close()
            raise

    def close(self) -> None:
        self.workspace.close()


def _batch_job(ctx: _BatchContext, store_dir: Path):
    """One job: pinned-round fusion, then the final round as one full snapshot."""
    from repro.fusion import FusionConfig, pipeline
    from repro.serving.store import SnapshotPublisher

    result = pipeline.run_fusion(
        ctx.dataset,
        ctx.params,
        ctx.detector,
        FusionConfig(**PINNED_ROUNDS),
        workspace=ctx.workspace,
    )
    publisher = SnapshotPublisher(store_dir, ctx.dataset)
    snapshot_id = publisher.publish_round(
        result.n_rounds, result.final_detection(), result.probabilities
    )
    return result, snapshot_id


def _read_plan(rng: random.Random, pair_keys, items, n_reads: int):
    """Read operations: four verdict reads for every truth read, uniform keys."""
    plan = []
    for k in range(n_reads):
        if k % 5 == 4:
            plan.append((None, rng.choice(items)))
        else:
            plan.append(rng.choice(pair_keys))
    return plan


def _timed_reads(reader, plan, expect_snapshot, decisions, chosen, tally: Tally, reads_ns):
    """Serve each planned read, time it, and check it against its snapshot's state."""
    clock = time.perf_counter_ns
    for a, b in plan:
        if a is None:
            t0 = clock()
            truth = reader.get_truth(b)
            reads_ns.append(clock() - t0)
            if truth is None or truth.value != chosen[b] or truth.snapshot_id != expect_snapshot:
                tally.op(f"truth of item {b}: served {truth}, expected {chosen[b]} @ {expect_snapshot}")
            else:
                tally.op(None)
        else:
            t0 = clock()
            verdict = reader.get_verdict(a, b)
            reads_ns.append(clock() - t0)
            if (
                verdict is None
                or verdict.copying != decisions[(a, b)].copying
                or verdict.snapshot_id != expect_snapshot
            ):
                tally.op(
                    f"verdict ({a},{b}): served {verdict}, expected copying="
                    f"{decisions[(a, b)].copying} @ {expect_snapshot}"
                )
            else:
                tally.op(None)


def _cache_counts(reader) -> tuple[int, int]:
    info = reader.cache_info()
    hits = info["verdict_cache"].hits + info["truth_cache"].hits
    misses = info["verdict_cache"].misses + info["truth_cache"].misses
    return hits, misses


def run_batch(
    workload: str,
    size: str,
    seed: int,
    seconds: float,
    inputs: Inputs,
    check: Callable[[Outcome], list[str]],
    tracer: Tracer,
    traced: bool,
    workdir: Path,
    tally: Tally,
) -> PassResult:
    from repro.serving.reader import VerdictReader

    spec = BATCH_SPECS[(workload, size)]
    setups = []
    ctx = None
    n_setups = 1 if traced else spec.setups
    try:
        for k in range(n_setups):
            if ctx is not None:
                ctx.close()
                ctx = None
            tracer.phase = "setup"
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            ctx = _BatchContext(inputs, spec, tracer)
            setups.append(time.perf_counter() - t0)
            tracer.disable()

        # One untimed job first: the shared-memory block, the entry
        # skeleton and the kernels' lazy imports are ready before timing.
        result, snapshot_id = _batch_job(ctx, workdir / "store-warm")
        outcome = Outcome.from_fusion(
            ctx.dataset, result.chosen, result.accuracies, result.final_detection().copying_pairs()
        )
        tally.op(check(outcome))

        jobs: list[float] = []
        store_dir = None
        started = time.perf_counter()
        while len(jobs) < spec.min_jobs or time.perf_counter() - started < seconds:
            if store_dir is not None:
                shutil.rmtree(store_dir)
            store_dir = workdir / f"store-{len(jobs)}"
            tracer.phase = "job"
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            result, snapshot_id = _batch_job(ctx, store_dir)
            jobs.append(time.perf_counter() - t0)
            tracer.disable()
            detection = result.final_detection()
            outcome = Outcome.from_fusion(
                ctx.dataset, result.chosen, result.accuracies, detection.copying_pairs()
            )
            tally.op(check(outcome))

        reads_ns: list[int] = []
        hits = misses = 0
        if spec.reads:
            decisions = detection.decisions
            rng = random.Random(seed)
            warm = _read_plan(rng, list(decisions), list(result.chosen), spec.reads // 2)
            plan = _read_plan(rng, list(decisions), list(result.chosen), spec.reads)
            tracer.phase = "read"
            if traced:
                tracer.enable()
            reader = VerdictReader(store_dir)
            if reader.snapshot_id != snapshot_id:
                tally.op(f"reader opened snapshot {reader.snapshot_id}, published {snapshot_id}")
            # Fill the LRU first, so the timed reads see its steady state
            # (evicting misses on the sparse world) rather than its fill-up.
            _timed_reads(reader, warm, snapshot_id, decisions, result.chosen, tally, [])
            before = _cache_counts(reader)
            _timed_reads(reader, plan, snapshot_id, decisions, result.chosen, tally, reads_ns)
            tracer.disable()
            after = _cache_counts(reader)
            hits, misses = after[0] - before[0], after[1] - before[1]

        truth_accuracy, copy_f1 = quality(ctx.dataset, result.chosen, detection.copying_pairs(), inputs)
        world = _world_stats(ctx.dataset, ctx.params, result, detection)
    finally:
        tracer.disable()
        if ctx is not None:
            ctx.close()
    return PassResult(
        setups=setups,
        job_s=median(jobs),
        jobs=jobs,
        reads_ns=reads_ns,
        truth_accuracy=truth_accuracy,
        copy_f1=copy_f1,
        world=world,
        layer_extras={"serving.read_hit_ratio": hits / (hits + misses) if hits + misses else 0.0},
    )


def _world_stats(dataset, params, result, detection) -> dict:
    """World size as the run saw it; the index is rebuilt once, untimed, to count entries."""
    from repro.core.index import InvertedIndex
    from repro.core.kernel import DENSE_KEY_SPACE

    index = InvertedIndex.build(dataset, result.probabilities, result.accuracies, params)
    return {
        "sources": dataset.n_sources,
        "items": dataset.n_items,
        "claims": sum(len(c) for c in dataset.claims),
        "index_entries": len(index.entries),
        "observed_pairs": len(detection.decisions),
        "pair_layout": (
            params.pair_layout
            if params.pair_layout != "auto"
            else ("dense" if dataset.n_sources**2 <= DENSE_KEY_SPACE else "sparse")
        ),
    }


# ----------------------------------------------------------------------
# Streaming workload
# ----------------------------------------------------------------------
def _as_deltas(claims):
    from repro.data import ClaimDelta

    return [ClaimDelta(source, item, value) for source, item, value in claims]


async def _start_service(store_dir: Path, bootstrap):
    """Service start plus the bootstrap epoch; returns (service, event queue, event)."""
    from repro.streaming import StreamEngine, StreamingService

    service = StreamingService(
        StreamEngine(store=store_dir), max_batch=1 << 20, max_delay=0.05, debounce=0.005
    )
    await service.start()
    queue = service.subscribe()
    service.submit(bootstrap)
    await service.flush()
    return service, queue, queue.get_nowait()


async def _run_stream(size, seed, inputs, check, tracer, traced, workdir, tally) -> PassResult:
    from repro.serving.reader import VerdictReader

    spec = STREAM_SPECS[size]
    parts = [_as_deltas(part) for part in stream_partitions(inputs, size)]
    bootstrap, batches = parts[0], parts[1:]
    rng = random.Random(seed)

    setups = []
    service = None
    n_setups = 1 if traced else spec.setups
    try:
        for k in range(n_setups):
            if service is not None:
                await service.stop()
                service = None
            tracer.phase = "setup"
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            service, queue, event = await _start_service(workdir / f"store-{k}", bootstrap)
            setups.append(time.perf_counter() - t0)
            tally.op(None)
            reader = VerdictReader(workdir / f"store-{k}")
            tracer.disable()

        latencies, engine_s, rounds = [], [], []
        reads_ns: list[int] = []
        hits = misses = 0
        for batch in batches:
            tracer.phase = "job"
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            service.submit(batch)
            await service.flush()
            latency = time.perf_counter() - t0
            if queue.empty():
                tracer.disable()
                tally.op("epoch published no event")
                continue
            event = queue.get_nowait()
            h, m = _cache_counts(reader)
            hits, misses = hits + h, misses + m
            reader.refresh()
            tracer.disable()
            latencies.append(latency)
            engine_s.append(event["elapsed_seconds"])
            rounds.append(event["rounds"])
            if reader.snapshot_id != event["snapshot_id"]:
                tally.op(
                    f"reader refreshed to snapshot {reader.snapshot_id}, "
                    f"epoch announced {event['snapshot_id']}"
                )
                continue
            tally.op(None)

            state = service.state
            decisions = state.detection.decisions
            keys = rng.sample(sorted(decisions), min(spec.read_keys, len(decisions)))
            items = rng.sample(sorted(state.chosen), min(spec.read_keys, len(state.chosen)))
            plan = [rng.choice(keys) for _ in range(spec.reads)]
            plan += [(None, rng.choice(items)) for _ in range(spec.truth_reads)]
            rng.shuffle(plan)
            tracer.phase = "read"
            if traced:
                tracer.enable()
            _timed_reads(reader, plan, event["snapshot_id"], decisions, state.chosen, tally, reads_ns)
            tracer.disable()
        h, m = _cache_counts(reader)
        hits, misses = hits + h, misses + m

        state = service.state
        detection = state.detection
        outcome = Outcome.from_fusion(
            state.dataset, state.chosen, state.accuracies, detection.copying_pairs()
        )
        final_problems = check(outcome)
        if final_problems:
            # The final epoch was counted as passed above; it failed after all.
            tally.failed += 1
            tally.errors.extend(final_problems)
        truth_accuracy, copy_f1 = quality(state.dataset, state.chosen, detection.copying_pairs(), inputs)
        world = _world_stats(state.dataset, state.params, state, detection)
        ledger_claims = len(service.engine.ledger)
        epochs_run, epochs_skipped = service.epochs_run, service.epochs_skipped
    finally:
        tracer.disable()
        if service is not None:
            await service.stop()

    streamed = sum(len(b) for b in batches)
    job_s = sum(latencies)
    waits_ms = [(lat - eng) * 1000.0 for lat, eng in zip(latencies, engine_s)]
    tail = tail_percentile(len(latencies))
    stream = {
        "ingest_claims_per_s": streamed / job_s,
        "epoch_p50_ms": percentile(latencies, 50) * 1000.0,
        "epoch_tail_ms": percentile(latencies, tail) * 1000.0 if tail else None,
        "epoch_tail_pct": tail,
        "epochs": len(latencies),
        "streamed_claims": streamed,
    }
    return PassResult(
        setups=setups,
        job_s=job_s,
        jobs=latencies,
        reads_ns=reads_ns,
        truth_accuracy=truth_accuracy,
        copy_f1=copy_f1,
        world=world,
        layer_extras={
            "data.ledger_claims_end": ledger_claims,
            "serving.read_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "streaming.wait_ms": median(waits_ms) if waits_ms else 0.0,
            "streaming.epochs": epochs_run,
            "streaming.epochs_skipped": epochs_skipped,
            "streaming.rounds_per_epoch": sum(rounds) / len(rounds) if rounds else 0.0,
        },
        stream=stream,
    )


def run_stream(workload, size, seed, seconds, inputs, check, tracer, traced, workdir, tally) -> PassResult:
    """The stream's schedule is fixed (bootstrap + ``epochs`` micro-batches).

    ``seconds`` does not stretch it: a faster system must stream the same
    ledger growth, or its per-epoch figures would not be comparable.
    """
    return asyncio.run(_run_stream(size, seed, inputs, check, tracer, traced, workdir, tally))


RUNNERS = {
    "batch_dense_hybrid": run_batch,
    "batch_sparse_index": run_batch,
    "stream_growing": run_stream,
}

#: Spans a traced pass must record at least once per workload; a wrapper
#: installed where nobody looks the name up would otherwise pass as 0 s.
EXPECTED_SPANS = {
    "batch_dense_hybrid": (
        "data.dataset_build", "core.index_build", "core.detect", "fusion.run",
        "fusion.workspace", "serving.publish", "serving.write", "serving.refresh",
    ),
    "batch_sparse_index": (
        "data.dataset_build", "core.index_build", "core.detect", "parallel.detect",
        "parallel.broadcast", "parallel.pool", "parallel.pool_spawn", "fusion.run",
        "fusion.workspace", "serving.publish", "serving.write", "serving.refresh",
    ),
    "stream_growing": (
        "data.ledger_apply", "data.ledger_snapshot", "core.index_build", "core.detect",
        "fusion.run", "fusion.workspace", "serving.publish", "serving.write",
        "serving.refresh", "streaming.engine",
    ),
}


def run_pass(workload, size, seed, seconds, inputs, check, tracer, traced, workdir, tally) -> PassResult:
    """One pass over a workload in a fresh work directory (removed afterwards)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        with count_layout_fallbacks(tracer):
            return RUNNERS[workload](
                workload, size, seed, seconds, inputs, check, tracer, traced, workdir, tally
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
