"""The ``sharded`` backend: EnumMIS across a multiprocessing pool.

The graph is decomposed exactly as the serial pipeline does
(components / atoms / none); each region runs a
:class:`~repro.engine.coordinator.MISCoordinator` whose extend tasks
execute on a shared worker pool, and disconnected inputs are recombined
through the same lazy fair product as the serial enumerator.  Answers
arrive as frozensets of separator masks and are materialised into
:class:`~repro.core.triangulation.Triangulation` objects here, through
each region coordinator's mask-level materialiser — the same one the
serial yield path uses, so both backends produce equal Triangulation
values.

The module also hosts :func:`coordinated_stream`, the backend-agnostic
assembly (regions → coordinators → materialisation → product), which
the serial backend reuses with an in-process runner for checkpointable
runs.  Checkpointing covers multi-region jobs too: every region owns a
section of one checkpoint document (see
:mod:`repro.engine.checkpoint`), the cross-region product records its
arrival order and delivered-combination count, and resume replays the
recorded product deterministically so no combination is delivered
twice and none is lost.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from repro.core.ranked import _resolve_cost, _warn_unranked
from repro.core.triangulation import Triangulation
from repro.engine.base import EngineError, EnumerationBackend, register_backend
from repro.engine.batching import AdaptiveBatcher
from repro.engine.checkpoint import (
    CheckpointDocument,
    CheckpointError,
    CheckpointManager,
    job_fingerprint,
    region_fingerprint,
)
from repro.engine.coordinator import Answer, MISCoordinator
from repro.engine.job import EnumerationJob
from repro.engine.pool import (
    PoolRunner,
    default_worker_count,
    make_payload,
)
from repro.engine.watchdog import BatchLimits
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics

__all__ = ["ShardedBackend", "coordinated_stream"]


def _resolve_regions(job: EnumerationJob) -> list[frozenset]:
    graph = job.graph
    if job.decompose == "none":
        return [graph.node_set()]
    if job.decompose == "atoms":
        from repro.chordal.atoms import atoms

        return list(atoms(graph))
    return list(connected_components(graph))


class _DocumentSink:
    """One checkpoint document shared by every region of a job.

    Coordinators call :meth:`save` (directly, or through their cadence
    counter); the sink then snapshots *all* attached coordinators plus
    the cross-region product state and writes the whole document
    atomically.  For multi-region jobs ``caches`` holds each region's
    answers in product-arrival order and overrides the per-section
    ``yielded`` lists, whose order the replay on resume depends on.
    """

    def __init__(
        self, manager: CheckpointManager, stats: EnumMISStatistics
    ) -> None:
        self.every = manager.every
        self._manager = manager
        self._stats = stats
        self._coordinators: list[MISCoordinator] = []
        # Product state; ``caches`` stays None for single-region jobs.
        self.caches: list[list[Answer]] | None = None
        self.arrivals: list[int] = []
        self.delivered = 0
        self._since_save = 0

    def attach(self, coordinator: MISCoordinator) -> None:
        self._coordinators.append(coordinator)

    def save(self) -> None:
        regions = []
        stats = dict(self._stats.snapshot())
        for index, coordinator in enumerate(self._coordinators):
            section = coordinator.control_snapshot()
            if coordinator.barrier_active:
                # The barrier node is re-pulled (and re-counted) on
                # resume; the section already drops it from V.
                stats["nodes_generated"] -= 1
            if self.caches is not None:
                section.yielded = list(self.caches[index])
            regions.append(section)
        self._manager.save_document(
            CheckpointDocument(
                regions=regions,
                arrivals=list(self.arrivals),
                delivered=self.delivered,
                stats=stats,
            )
        )
        self._since_save = 0

    def bump(self) -> None:
        """Count one delivered combination; save on the job's cadence."""
        self._since_save += 1
        if self._since_save >= self.every:
            self.save()


def coordinated_stream(
    job: EnumerationJob,
    stats: EnumMISStatistics,
    runner_factory: Callable[[object], "InlineRunner | PoolRunner"],
) -> Iterator[Triangulation]:
    """Run ``job`` through coordinators on runners from ``runner_factory``.

    One runner (one worker pool) is shared by every region; it is
    closed when the stream is closed or exhausted.
    """
    graph = job.graph
    if graph.num_nodes == 0:
        yield Triangulation(graph, ())
        return

    regions = _resolve_regions(job)
    multi_region = len(regions) > 1
    cost_fn = _resolve_cost(job.cost) if job.cost is not None else None
    mode = job.effective_mode

    manager = document = None
    if job.checkpoint_path is not None:
        manager = CheckpointManager(
            job.checkpoint_path,
            job_fingerprint(
                graph, mode, job.triangulator_name(), job.decompose
            ),
            every=job.checkpoint_every,
        )
        document = manager.load_document_if_resuming(job.resume)

    payload = make_payload(graph, job.triangulator)
    runner = runner_factory(payload)
    # One batcher for the whole job: the per-pair cost model learned on
    # one region transfers to the next (same graph family, same
    # triangulator), and the IPC/latency report covers the run.
    batcher = AdaptiveBatcher(
        getattr(runner, "workers", 1), target_ms=job.batch_target_ms
    )
    try:
        if not multi_region:
            # Enumerate over the original graph object so yielded
            # Triangulations reference it, exactly like the serial path.
            sink = restore = None
            fingerprint = ""
            if manager is not None:
                fingerprint = region_fingerprint(graph)
                sink = _DocumentSink(manager, stats)
            if document is not None:
                restore = _match_sections(
                    document, [fingerprint], job
                )[0]
                stats.restore(document.stats)
            coordinator = MISCoordinator(
                graph,
                graph.core.alive,
                runner,
                mode=mode,
                triangulator=job.triangulator,
                cost=cost_fn,
                stats=stats,
                checkpoint=sink,
                restore_state=restore,
                region_fingerprint=fingerprint,
                batcher=batcher,
                max_batch_retries=job.max_batch_retries,
            )
            if sink is not None:
                sink.attach(coordinator)
            answers = coordinator.stream()
            try:
                for answer in answers:
                    yield coordinator.materialise(answer)
            finally:
                answers.close()
            return

        # Disconnected input: per-region coordinators on the shared
        # pool, recombined through the lazy fair product.  Ranking is
        # component-local at best, so (as in repro.core.ranked) the
        # cross-region product falls back to plain order, with a warning.
        if cost_fn is not None:
            _warn_unranked(f"{len(regions)} regions")
        region_graphs = [
            graph.subgraph(region_nodes) for region_nodes in regions
        ]
        sink = None
        restores: list = [None] * len(region_graphs)
        fingerprints = [""] * len(region_graphs)
        if manager is not None:
            fingerprints = [
                region_fingerprint(region) for region in region_graphs
            ]
            sink = _DocumentSink(manager, stats)
            sink.caches = [[] for __ in region_graphs]
            if document is not None:
                restores = _match_sections(document, fingerprints, job)
                sink.caches = [
                    list(section.yielded) for section in restores
                ]
                sink.arrivals = list(document.arrivals)
                sink.delivered = document.delivered
                stats.restore(document.stats)
        coordinators = [
            MISCoordinator(
                region,
                region.core.alive,
                runner,
                mode=mode,
                triangulator=job.triangulator,
                stats=stats,
                checkpoint=sink,
                restore_state=restores[index],
                region_fingerprint=fingerprints[index],
                batcher=batcher,
                max_batch_retries=job.max_batch_retries,
            )
            for index, region in enumerate(region_graphs)
        ]
        if sink is not None:
            for coordinator in coordinators:
                sink.attach(coordinator)
        streams = [coordinator.stream() for coordinator in coordinators]
        try:
            yield from _product_stream(
                graph, coordinators, streams, sink, document
            )
        finally:
            for stream in streams:
                stream.close()
            if sink is not None:
                sink.save()
    finally:
        runner.close()


def _match_sections(
    document: CheckpointDocument,
    fingerprints: list[str],
    job: EnumerationJob,
) -> list:
    """Align a loaded document's sections with the job's regions."""
    if len(document.regions) != len(fingerprints):
        raise CheckpointError(
            f"checkpoint holds {len(document.regions)} region "
            f"section(s) but the job resolves to {len(fingerprints)} "
            f"region(s) under decompose={job.decompose!r}"
        )
    for section, fingerprint in zip(document.regions, fingerprints):
        # Sections from version-1 files carry no region fingerprint;
        # those were single-region by construction.
        if section.region and section.region != fingerprint:
            raise CheckpointError(
                "checkpoint region sections do not match the job's "
                "regions (graph or decomposition changed)"
            )
    return list(document.regions)


def _product_stream(
    graph: Graph,
    coordinators: list[MISCoordinator],
    streams: list[Iterator[Answer]],
    sink: _DocumentSink | None,
    document: CheckpointDocument | None,
) -> Iterator[Triangulation]:
    """The lazy fair product over region answer streams, resumable.

    Combination semantics match :func:`repro.core.enumerate._fair_product`:
    when region i contributes a new answer x, every combination of x
    with the already-cached answers of the other regions is emitted
    (none while any other cache is still empty, so seeding falls out
    of the uniform rule).  Each combination contains exactly one new
    coordinate, hence no duplicates.

    On resume, the recorded ``arrivals`` sequence is replayed against
    the restored caches to regenerate the interrupted run's exact
    combination order; the first ``delivered`` combinations are
    skipped (the consumer already has them — counting happens before
    the yield, matching the at-most-once convention of the per-region
    yielded sets) and the remainder re-emitted before live streaming
    continues.
    """
    count = len(streams)
    caches: list[list[Answer]] = (
        sink.caches
        if sink is not None and sink.caches is not None
        else [[] for __ in range(count)]
    )
    # Per-region answer → triangulation memo, so a combination joins
    # materialised parts instead of re-saturating every coordinate.
    memos: list[dict[Answer, Triangulation]] = [{} for __ in range(count)]

    def part(index: int, answer: Answer) -> Triangulation:
        memo = memos[index]
        region_answer = memo.get(answer)
        if region_answer is None:
            region_answer = coordinators[index].materialise(answer)
            memo[answer] = region_answer
        return region_answer

    def combine(parts: list[Answer]) -> Triangulation:
        return Triangulation._product(
            graph, (part(index, answer) for index, answer in enumerate(parts))
        )

    if document is not None and document.arrivals:
        # Replay the interrupted product from the restored caches.
        replayed: list[list[Answer]] = [[] for __ in range(count)]
        positions = [0] * count
        emitted = 0
        for region_index in document.arrivals:
            if not 0 <= region_index < count or positions[
                region_index
            ] >= len(caches[region_index]):
                raise CheckpointError(
                    "checkpoint product state is inconsistent (arrivals "
                    "do not match the per-region answer lists)"
                )
            answer = caches[region_index][positions[region_index]]
            positions[region_index] += 1
            others = [
                replayed[j] for j in range(count) if j != region_index
            ]
            for rest in itertools.product(*others):
                emitted += 1
                if emitted > sink.delivered:
                    parts = list(rest)
                    parts.insert(region_index, answer)
                    sink.delivered += 1
                    yield combine(parts)
            replayed[region_index].append(answer)
        if positions != [len(cache) for cache in caches]:
            raise CheckpointError(
                "checkpoint product state is inconsistent (answers "
                "missing from the arrival record)"
            )
        if sink.delivered > emitted:
            # More combinations marked delivered than the recorded
            # product can produce: a corrupt file.  Silently skipping
            # every replayed combination would lose answers for good.
            raise CheckpointError(
                "checkpoint product state is inconsistent (delivered "
                f"count {sink.delivered} exceeds the {emitted} "
                "recorded combinations)"
            )

    active = list(range(count))
    while active:
        for index in list(active):
            try:
                answer = next(streams[index])
            except StopIteration:
                active.remove(index)
                continue
            # Cache and arrival-record appends stay adjacent (no yield
            # between them), so any snapshot taken from here on is
            # consistent.
            caches[index].append(answer)
            if sink is not None:
                sink.arrivals.append(index)
            others = [caches[j] for j in range(count) if j != index]
            for rest in itertools.product(*others):
                parts = list(rest)
                parts.insert(index, answer)
                if sink is not None:
                    sink.delivered += 1
                yield combine(parts)
            if sink is not None:
                sink.bump()


class ShardedBackend(EnumerationBackend):
    """Partition the EnumMIS answer queue across worker processes."""

    name = "sharded"

    def stream(
        self,
        job: EnumerationJob,
        stats: EnumMISStatistics,
        workers: int | None,
    ) -> Iterator[Triangulation]:
        count = workers if workers is not None else job.workers
        if count is None:
            count = default_worker_count()
        if count < 1:
            raise EngineError(
                f"sharded backend needs workers >= 1, got {count}"
            )
        limits = BatchLimits.from_cli(
            job.batch_deadline_s, job.batch_rss_limit_mb
        )
        return coordinated_stream(
            job,
            stats,
            lambda payload: PoolRunner(payload, count, limits=limits),
        )


register_backend(ShardedBackend())
