"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_median_and_quartiles():
    assert run.median([3, 1, 2]) == 2
    assert run.median([4, 1, 3, 2]) == 2.5
    assert run.median([]) is None
    # the "exclusive" method of statistics.quantiles
    assert run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert run.quartiles([7.0, 5.0]) == (4.5, 6.0, 7.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def toy_module(clock):
    """outer spends 1 + 2 s itself around inner, which spends 4 s and
    recurses once; the module is importable as "toy"."""
    mod = types.ModuleType("toy")

    def inner(depth=0):
        clock.now += 2
        if depth == 0:
            mod.inner(1)

    def outer():
        clock.now += 1
        mod.inner()
        clock.now += 2
        return "done"

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_nested_call(monkeypatch):
    clock = FakeClock()
    toy = toy_module(clock)
    monkeypatch.setitem(sys.modules, "toy", toy)
    original = toy.inner
    table = ((("toy:outer",), "outer_s", None, ()),
             (("toy:inner",), "inner_s", None, ()))
    with layers.Tracer(table, clock=clock) as tracer:
        assert toy.outer() == "done"
    assert tracer.time("outer_s") == 7
    assert tracer.self_seconds["outer_s"] == 3
    assert tracer.time("inner_s") == 4
    assert tracer.entries["inner_s"] == 1  # the recursive entry is not counted
    assert tracer.covered == 7
    assert toy.inner is original


def test_rerun_is_the_nested_solve(monkeypatch):
    clock = FakeClock()
    mod = types.ModuleType("toy")

    def solve(rerun=True):
        clock.now += 5
        if rerun:
            mod.solve(False)

    mod.solve = solve
    monkeypatch.setitem(sys.modules, "toy", mod)
    table = ((("toy:solve",), layers.SOLVE, None, ()),)
    with layers.Tracer(table, clock=clock) as tracer:
        mod.solve()
    assert tracer.time(layers.SOLVE) == 10
    assert tracer.time(layers.RERUN) == 5


def test_comparator_flags_failures():
    pinned = b"config: x\n0,1,1,0,true\n"
    assert worker.compare(pinned, pinned, 0) is None
    one_byte = pinned[:12] + b"2" + pinned[13:]
    assert worker.compare(pinned, one_byte, 0).endswith("at byte 12")
    assert worker.compare(pinned, pinned + b"\n", 0) is not None
    assert worker.compare(pinned, pinned, 3) == "exit code 3"
    assert worker.compare(pinned, b"", None, "AssertionError: x") is not None


def small_solve(cli, tracer=None):
    return worker.solve(cli, ["coinv", "--curve", "nodal", "--truncate", "2",
                              "--format", "csv"], tracer)


def test_traced_solve_matches_untraced_and_restores():
    from logblocks import blocks, cli, exactalg, vacore

    originals = (cli.coinvariant_dims, blocks.coinvariant_dims,
                 blocks.span_insert, blocks.TensorWindow.apply_generator,
                 vacore.VertexAlgebraInstance.apply_mode)
    code, plain, error, _ = small_solve(cli)
    assert (code, error) == (0, None)
    tracer = layers.Tracer()
    code, traced, error, seconds = small_solve(cli, tracer)
    assert (code, error, traced) == (0, None, plain)
    assert originals == (cli.coinvariant_dims, blocks.coinvariant_dims,
                         blocks.span_insert,
                         blocks.TensorWindow.apply_generator,
                         vacore.VertexAlgebraInstance.apply_mode)
    assert blocks.span_insert is exactalg.span_insert
    metrics = layers.layer_metrics(tracer, seconds)
    assert None not in metrics.values()
    # degrees 0..2 of the nodal window have full image rank 1 + 2 + 5
    assert metrics["exactalg.rank"] == 8
    assert 0 < metrics["blocks.stability_rerun_s"] < seconds


def test_missing_wrap_target_is_reported_missing():
    from logblocks import cli

    table = tuple(
        (tuple(b.replace("apply_generator", "no_such_method")
               for b in bindings), span, count, names)
        for bindings, span, count, names in layers.LAYERS)
    tracer = layers.Tracer(table)
    code, _, error, seconds = small_solve(cli, tracer)
    assert (code, error) == (0, None)
    metrics = layers.layer_metrics(tracer, seconds)
    for name in ("blocks.apply_generator_s", "blocks.apply_self_s",
                 "blocks.applications", "blocks.dropped_applications",
                 "blocks.useful_application_ratio"):
        assert metrics[name] is None
    assert metrics["exactalg.inserts"] > 0
    assert metrics["vacore.apply_mode_s"] > 0


def test_counter_that_no_longer_fits_is_missing(monkeypatch):
    clock = FakeClock()
    mod = types.ModuleType("toy")
    mod.build = lambda: 7  # not a sized result any more
    monkeypatch.setitem(sys.modules, "toy", mod)
    table = ((("toy:build",), "blocks.lie_generators_s",
              layers._count_generators,
              ("blocks.generators", "blocks.component_terms")),)
    with layers.Tracer(table, clock=clock) as tracer:
        assert mod.build() == 7
    assert tracer.time("blocks.lie_generators_s") == 0
    assert tracer.count("blocks.generators", "blocks.lie_generators_s") is None


def test_reported_metrics_are_the_listed_ones():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = layers.Tracer()
    traced = set(layers.layer_metrics(tracer, 1.0)) | {
        "trace.solve_s", "trace.overhead_frac", "host.ref_loop_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "solve_s", "setup_s", "peak_rss_mb"}
