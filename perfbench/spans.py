"""Spans and counters around rscore's public layer functions, patched from outside.

``Tracer.install`` replaces each layer function with a wrapper in every
loaded ``rscore`` module that holds it, so names bound by ``from .x import y``
(in ``rscore.cli`` and ``rscore.analysis``) are traced too. Spans are kept
in memory; ``Tracer.report`` turns them into self times once the command
has finished. A span's self time is its duration minus its child spans.

Counters are computed from each call's arguments and result. The time spent
computing them is taken off the trace clock, so it is in no span. A counter
that no longer fits the program's API is skipped and named in ``errors``;
the traced run keeps going.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _count_build_counts(tracer, args, kwargs, counts):
    corpus = args[0] if args else kwargs["corpus"]
    venues = set(counts.venue_index)
    probes = sum(pub.venue in venues for pub in corpus.publications) * len(corpus.programs)
    tracer.counters["counts.roster_probes"] += probes
    tracer.counters["counts.program_venue_cells"] += len(counts.per_program_venue)
    tracer.counters["counts.faculty_cells"] += len(counts.per_faculty_venue)


def _count_parse_corpus(tracer, args, kwargs, corpus):
    tracer.counters["corpus.records"] += len(corpus.publications)


def _count_build_transitions(tracer, args, kwargs, structure):
    cells = len(structure.program_index) * len(structure.venue_index)
    tracer.counters["reputation.transition_cells"] += cells


def _count_stationary_gth(tracer, args, kwargs, gamma):
    tracer.counters["reputation.gth_states"] += len(gamma)


def _count_score_programs(tracer, args, kwargs, report):
    model = args[0] if args else kwargs["model"]
    tracer.counters["scoring.score_cells"] += len(report.rows) * len(
        model.structure.venue_index
    )


def _count_stability_sweep(tracer, args, kwargs, report):
    tracer.counters["analysis.prefixes"] += len(report.sizes)


# (module, function, span name, counter)
LAYER_FUNCTIONS = (
    ("rscore.analysis", "stability_sweep", "analysis.stability_sweep", _count_stability_sweep),
    ("rscore.analysis", "spearman", "analysis.spearman", None),
    ("rscore.corpus", "parse_corpus", "corpus.parse_corpus", _count_parse_corpus),
    ("rscore.corpus", "_check_structure", "corpus.check_structure", None),
    ("rscore.corpus", "reference_venue_set", "corpus.reference_venue_set", None),
    ("rscore.counts", "build_counts", "counts.build_counts", _count_build_counts),
    ("rscore.reputation", "build_reputation_model", "reputation.build_reputation_model", None),
    ("rscore.reputation", "build_transitions", "reputation.build_transitions", _count_build_transitions),
    ("rscore.reputation", "aggregate", "reputation.aggregate", None),
    ("rscore.reputation", "stationary_gth", "reputation.stationary_gth", _count_stationary_gth),
    ("rscore.scoring", "score_programs", "scoring.score_programs", _count_score_programs),
)


class Tracer:
    """Records one span per layer call while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter[str] = Counter()
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        """Seconds on the trace clock, which stops while counters are computed."""
        return time.perf_counter() - self._paused

    def _wrap(self, name, function, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
            if counter is not None:
                started = time.perf_counter()
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                self._paused += time.perf_counter() - started
            return result

        return traced

    def install(self) -> None:
        """Patch every loaded rscore module that holds a layer function."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "rscore"]
        for module_name, attribute, name, counter in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attribute, None)
            if original is None:
                self.errors.append(f"{module_name}.{attribute} not found")
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def report(self, command_s: float) -> dict[str, float]:
        """Self time and calls per span name, plus the command's own time.

        ``cli.self_s`` is ``command_s`` (measured on the trace clock) minus the
        root spans, i.e. what the CLI did outside every wrapped layer.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        root_s = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent < 0:
                root_s += duration
            else:
                self_s[self.spans[parent][0]] -= duration
        metrics: dict[str, float] = {"cli.self_s": command_s - root_s}
        for name, seconds in self_s.items():
            metrics[f"{name}.self_s"] = seconds
        for name, count in calls.items():
            metrics[f"{name}.calls"] = count
        metrics.update(self.counters)
        return metrics
