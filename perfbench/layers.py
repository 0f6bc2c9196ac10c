"""Per-layer spans and counters for one traced solve.

The tracer replaces each traced callable at the binding where the program
looks it up (a module global or a class attribute), so
``cli.coinvariant_dims`` and ``blocks.coinvariant_dims`` are wrapped
separately.  Leaving the context puts every original back.  Only the
outermost entry of a span opens a frame, so recursion is timed once; the
one exception is the solve span, whose nested entry is the stability rerun
at N-1 and gets a span of its own.

A span whose bindings no longer exist, or that was never entered, is
reported as missing (``None``), never as 0, and the solve still runs.
"""

from __future__ import annotations

import functools
import importlib
import time

SOLVE = "solve"
RERUN = "blocks.stability_rerun_s"
_ROOTS = (SOLVE, RERUN)


def _count_generators(tracer, args, gens):
    return {"blocks.generators": len(gens),
            "blocks.component_terms": sum(len(c.terms) for g in gens
                                          for c in g.components)}


def _count_applications(tracer, args, result):
    window = args[0]
    vectors, dropped = result
    return {"blocks.applications": len(window.basis),
            "blocks.image_vectors": len(vectors),
            "blocks.dropped_applications": dropped}


def _count_insert(tracer, args, space):
    raised = space.rank > args[0].rank
    # each solve grows its span from empty, one rank per useful insert, so
    # the useful inserts outside the rerun sum to the solves' final ranks
    return {"exactalg.inserts": 1,
            "exactalg.redundant_inserts": int(not raised),
            "exactalg.rank": int(raised and RERUN not in tracer.open)}


# (bindings, span, counter function, counter names); a binding is
# "module:attribute" or "module:Class.attribute"
LAYERS = (
    (("logblocks.cli:coinvariant_dims", "logblocks.blocks:coinvariant_dims"),
     SOLVE, None, ()),
    (("logblocks.blocks:lie_generators",),
     "blocks.lie_generators_s", _count_generators,
     ("blocks.generators", "blocks.component_terms")),
    (("logblocks.blocks:restrict_to_disc",), "curves.restrict_s", None, ()),
    (("logblocks.blocks:invert_variable", "logblocks.curves:invert_variable"),
     "series.invert_variable_s", None, ()),
    (("logblocks.blocks:TensorWindow.apply_generator",),
     "blocks.apply_generator_s", _count_applications,
     ("blocks.applications", "blocks.image_vectors",
      "blocks.dropped_applications")),
    (("logblocks.vacore:VertexAlgebraInstance.apply_mode",),
     "vacore.apply_mode_s", None, ()),
    (("logblocks.blocks:span_insert",),
     "exactalg.span_insert_s", _count_insert,
     ("exactalg.inserts", "exactalg.redundant_inserts", "exactalg.rank")),
)


def _resolve(binding):
    """(owner, attribute) of a "module:Owner.attr" binding, or None."""
    module, _, path = binding.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
        for name in owners:
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Wraps the bindings of ``layers`` while installed (a context manager)."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.stack = []  # open frames: [span, start, seconds in child spans]
        self.open = set()
        self.seconds = {}
        self.self_seconds = {}
        self.entries = {}
        self.counts = {}
        self.broken = set()  # counters whose function failed
        self.covered = 0.0  # time in spans directly under a solve or rerun
        self._restore = []

    def __enter__(self):
        for bindings, span, count, names in self.layers:
            for target in map(_resolve, bindings):
                if target is not None:  # a missing span is never entered
                    self._wrap(*target, span, count, names)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, had, original = self._restore.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, owner, attr, span, count, names):
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if name in tracer.open:
                if name != SOLVE or RERUN in tracer.open:
                    return fn(*args, **kwargs)
                name = RERUN
            result = tracer._call(name, fn, args, kwargs)
            if count is not None:
                tracer._count(count, names, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, had, original))

    def _call(self, name, fn, args, kwargs):
        frame = [name, self.clock(), 0.0]
        self.stack.append(frame)
        self.open.add(name)
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = self.clock() - frame[1]
            self.stack.pop()
            self.open.discard(name)
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                       + seconds - frame[2])
            self.entries[name] = self.entries.get(name, 0) + 1
            parent = self.stack[-1] if self.stack else None
            if parent is not None:
                parent[2] += seconds
            if name not in _ROOTS and (parent is None
                                       or parent[0] in _ROOTS):
                self.covered += seconds

    def _count(self, count, names, args, result):
        try:
            increments = count(self, args, result)
        except (AttributeError, TypeError, ValueError):
            self.broken.update(names)  # the layer changed shape
            return
        for key, value in increments.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def time(self, span):
        """Seconds in a span's outermost entries; None if never entered."""
        return self.seconds.get(span)

    def count(self, name, span):
        if self.time(span) is None or name in self.broken:
            return None
        return self.counts.get(name, 0)


def _ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return num / den


def layer_metrics(tracer: Tracer, solve_s: float) -> dict:
    """Per-layer metrics of one traced solve; None marks a missing one."""
    span_insert = tracer.time("exactalg.span_insert_s")
    inserts = tracer.count("exactalg.inserts", "exactalg.span_insert_s")
    redundant = tracer.count("exactalg.redundant_inserts",
                             "exactalg.span_insert_s")
    apply_mode = tracer.time("vacore.apply_mode_s")
    apply_gen = tracer.time("blocks.apply_generator_s")
    applications = tracer.count("blocks.applications",
                                "blocks.apply_generator_s")
    images = tracer.count("blocks.image_vectors", "blocks.apply_generator_s")
    rerun = tracer.time(RERUN)
    return {
        "exactalg.span_insert_s": span_insert,
        "exactalg.inserts": inserts,
        "exactalg.redundant_inserts": redundant,
        "exactalg.useful_insert_ratio": _ratio(
            None if redundant is None else inserts - redundant, inserts),
        "exactalg.rank": tracer.count("exactalg.rank",
                                      "exactalg.span_insert_s"),
        "vacore.apply_mode_s": apply_mode,
        "vacore.apply_mode_calls": (
            None if apply_mode is None
            else tracer.entries["vacore.apply_mode_s"]),
        "vacore.apply_mode_share": _ratio(apply_mode, solve_s),
        "blocks.apply_generator_s": apply_gen,
        # self time subtracts child spans, so it needs apply_mode traced
        "blocks.apply_self_s": (
            None if apply_gen is None or apply_mode is None
            else tracer.self_seconds["blocks.apply_generator_s"]),
        "blocks.applications": applications,
        "blocks.image_vectors": images,
        "blocks.dropped_applications": tracer.count(
            "blocks.dropped_applications", "blocks.apply_generator_s"),
        "blocks.useful_application_ratio": _ratio(images, applications),
        "blocks.stability_rerun_s": rerun,
        "blocks.stability_share": _ratio(rerun, solve_s),
        "blocks.lie_generators_s": tracer.time("blocks.lie_generators_s"),
        "blocks.generators": tracer.count("blocks.generators",
                                          "blocks.lie_generators_s"),
        "blocks.component_terms": tracer.count("blocks.component_terms",
                                               "blocks.lie_generators_s"),
        "curves.restrict_s": tracer.time("curves.restrict_s"),
        "series.invert_variable_s": tracer.time("series.invert_variable_s"),
        "blocks.other_s": solve_s - tracer.covered,
    }
