"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import re
from collections import Counter
from dataclasses import replace

import pytest

from perfbench import harness, tracing
from perfbench.workloads import (
    OneShotSpec,
    ServeSpec,
    describe,
    matches_oracle,
    oneshot_inputs,
    serve_inputs,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_PROBE = OneShotSpec("t-probe", n=300, m=3)
SMALL_SERVE = ServeSpec("t-serve", n=300, warmup=1)


@pytest.mark.parametrize(
    "make, spec",
    [
        (oneshot_inputs, SMALL_PROBE),
        (serve_inputs, SMALL_SERVE),
    ],
)
def test_same_seed_gives_byte_identical_workload(make, spec):
    assert describe(make(spec, 7)) == describe(make(spec, 7))
    assert describe(make(spec, 7)) != describe(make(spec, 8))


def test_oneshot_mix_is_balanced_at_every_seed():
    for seed in (1, 2, 3):
        queries = oneshot_inputs(SMALL_PROBE, seed).queries
        head = Counter((q.family, q.k) for q in queries[: harness.MIN_QUERIES])
        assert len(head) == 20 and set(head.values()) == {harness.MIN_QUERIES // 20}
        assert len({q.data for q in queries}) == len(queries)


def test_metric_names_are_well_formed_and_all_computed():
    names = [*harness.END_TO_END, *harness.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    reply = harness.Reply(0, 0.01, True, 1.0)
    computed = harness.end_to_end([reply], 1.0, 1.0, [reply])
    assert list(computed) == list(harness.END_TO_END)


def test_oracle_flags_a_corrupted_answer():
    inputs = oneshot_inputs(SMALL_PROBE, 3)
    instance = harness.OneShotInstance(inputs)
    assert asyncio.run(instance.send(0)).ok
    query = inputs.queries[0]
    corrupted = list(query.expected)
    corrupted[-1] -= 1e-6
    inputs.queries[0] = replace(query, expected=tuple(corrupted))
    assert not asyncio.run(instance.send(0)).ok
    assert not matches_oracle(list(query.expected)[:-1], query.expected)
    assert matches_oracle(list(reversed(query.expected)), query.expected)


def test_served_answers_are_checked_against_the_oracle():
    async def scenario() -> tuple[bool, bool]:
        inputs = serve_inputs(SMALL_SERVE, 3)
        instance = await harness.ServeInstance(inputs).open()
        try:
            good = (await instance.send(0)).ok
            template = inputs.template(0)
            index = inputs.templates.index(template)
            inputs.templates[index] = replace(
                template, expected=tuple(s + 1e-3 for s in template.expected)
            )
            bad = (await instance.send(0)).ok
        finally:
            await instance.close()
        return good, bad

    assert asyncio.run(scenario()) == (True, False)


def _current_hooks() -> list[object]:
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in tracing.HOOKS
    ]


def test_trace_hooks_are_removed_and_untraced_runs_never_see_them():
    originals = _current_hooks()
    tracer = tracing.Tracer()
    instance = harness.OneShotInstance(oneshot_inputs(SMALL_PROBE, 1))
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert all(
                now is not before for now, before in zip(_current_hooks(), originals)
            )
            replies, wall = asyncio.run(harness.closed_loop(instance, 0.0, 2, tracer))
            raise RuntimeError("leave the block by an exception")
    assert all(now is before for now, before in zip(_current_hooks(), originals))
    names = {span.name for span in tracer.spans}
    assert {"client.query", "optimizer.plan", "core.engine", "sources.build"} <= names
    assert tracer.counters["core.bound_evals"] > 0
    setup_keys = ["setup.import_s", "setup.build_s", "setup.warmup_s"]
    layers = harness.layer_metrics(tracer, replies, wall, replies, None, None)
    assert sorted([*setup_keys, *layers]) == sorted(harness.PER_LAYER)
    recorded = (len(tracer.spans), dict(tracer.counters))
    asyncio.run(harness.closed_loop(instance, 0.0, 2))
    assert (len(tracer.spans), dict(tracer.counters)) == recorded


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, "client.query", 0.0, 10.0, None, 0),
        tracing.Span(1, "optimizer.plan", 1.0, 5.0, 0, 0),
        tracing.Span(2, "core.engine", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == {0: 2.0, 1: 4.0, 2: 4.0}
    rows = tracing.layer_table(spans, wall=12.0)
    assert [(r.name, r.self_time) for r in rows] == [
        ("optimizer.plan", 4.0),
        ("core.engine", 4.0),
        ("client.query", 2.0),
        ("(outside spans)", 2.0),
    ]
