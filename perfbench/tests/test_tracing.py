"""Span bookkeeping: nesting, self time and the per-layer split."""

import pytest

import tracing


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.t = 0

    def now(self):
        return self.t


def make_tracer():
    clock = FakeClock()
    return tracing.Tracer(clock), clock


def test_nested_self_times_add_up_to_the_root():
    tracer, clock = make_tracer()
    root = tracer.begin("request")
    clock.t += 5
    with tracer.span("extend"):
        clock.t += 30
        with tracer.span("materialise"):
            clock.t += 7
        clock.t += 3
    with tracer.span("crossing", units=4):
        clock.t += 11
    clock.t += 2
    tracer.end(root)

    own = tracing.self_times(tracer.spans)
    assert own == {"request": 7, "extend": 33, "materialise": 7, "crossing": 11}
    assert sum(own.values()) == 58  # the root span's duration


def test_layer_split_gives_the_driver_the_remainder_of_the_wall():
    tracer, clock = make_tracer()
    for answer in range(3):
        tracer.answer = answer
        root = tracer.begin("request")
        with tracer.span("extend"):
            clock.t += 10
        with tracer.span("crossing", units=5):
            clock.t += 1
        clock.t += 2
        tracer.end(root)
        clock.t += 4  # harness time between requests, outside any span
    split = tracing.layer_split(tracer.spans, wall_ns=clock.t)
    assert split["extend"] == {"calls": 3, "busy_ns": 30}
    assert split["crossing"] == {"calls": 15, "busy_ns": 3}
    assert split["driver"]["busy_ns"] == 6 + 12
    assert sum(entry["busy_ns"] for entry in split.values()) == clock.t
    assert {span[5] for span in tracer.spans} == {0, 1, 2}


def test_spans_must_close_innermost_first():
    tracer, __ = make_tracer()
    outer = tracer.begin("request")
    tracer.begin("extend")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_iterator_wrapper_counts_yields_not_the_exhausting_call():
    tracer, clock = make_tracer()

    def gen():
        for item in range(3):
            clock.t += 1
            yield item

    wrapped = tracing._wrap_iterator(tracer, "sepgen", gen)
    assert list(wrapped()) == [0, 1, 2]
    assert len(tracer.spans) == 4
    assert tracing.layer_split(tracer.spans, clock.t)["sepgen"]["calls"] == 3


def test_install_then_uninstall_restores_every_entry_point():
    from repro.core.triangulation import Triangulation
    from repro.engine import coordinator, wire
    from repro.sgr.separator_graph import MinimalSeparatorSGR

    before = (
        MinimalSeparatorSGR.__dict__["extend"],
        Triangulation.__dict__["width"],
        wire.encode_batch,
        coordinator.wait,
    )
    uninstall = tracing.install(tracing.Tracer())
    assert MinimalSeparatorSGR.__dict__["extend"] is not before[0]
    uninstall()
    after = (
        MinimalSeparatorSGR.__dict__["extend"],
        Triangulation.__dict__["width"],
        wire.encode_batch,
        coordinator.wait,
    )
    assert after == before


def test_traced_enumeration_matches_the_program_counters():
    from repro.engine import EnumerationEngine, EnumerationJob
    from repro.graph.generators import gnp_random_graph
    from repro.sgr.enum_mis import EnumMISStatistics

    clock = tracing.Clock()
    tracer = tracing.Tracer(clock)
    uninstall = tracing.install(tracer)
    try:
        stats = EnumMISStatistics()
        opened = clock.now()
        job = EnumerationJob(gnp_random_graph(12, 0.4, seed=5), max_results=20)
        for index, answer in enumerate(EnumerationEngine("serial").stream(job, stats)):
            tracer.answer = index
            with tracer.span("request"):
                answer.width, answer.fill
        wall = clock.now() - opened
    finally:
        uninstall()
    split = tracing.layer_split(tracer.spans, wall)
    assert split["extend"]["calls"] == stats.extend_calls
    assert split["sepgen"]["calls"] == stats.nodes_generated
    assert split["crossing"]["calls"] == stats.edge_oracle_calls
    assert split["materialise"]["calls"] == 40
    assert sum(entry["busy_ns"] for entry in split.values()) == wall
