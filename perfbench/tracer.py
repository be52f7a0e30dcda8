"""Layer spans and work counters recorded from outside the program.

Each layer boundary is a public qfmimo function, wrapped where its caller
looks it up (for example ``qfmimo.qmimo.link_capacity`` rather than
``qfmimo.linkrate.link_capacity``), so a span measures exactly the calls the
pipeline makes.  The wrappers are installed for one traced CLI run and
removed afterwards; untraced runs execute the unmodified program.

Spans are kept in memory as (name, start, end, parent) tuples; a layer's self
time is its span durations minus the time covered by its child spans.  Work
counters are computed from the wrapped calls' arguments and results, never
from clocks, so they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import numpy

# Complex128 phase entries.
PHASE_ENTRY_BYTES = 16
# Real flops per complex multiply-add in the Gram product.
COMPLEX_MAC_FLOPS = 8

# A hook sees the bound arguments, the result and the span duration.
Hook = Callable[["Tracer", dict, object, float], None]


def _place_nodes(tr: "Tracer", arguments: dict, real, dur: float) -> None:
    tr.counts["netgeom.n"] += real.n
    tr.counts["netgeom.n1"] += real.n1
    n2_max = max(int(g.size) for g in real.group_members)
    tr.counts["netgeom.n2_max"] = max(tr.counts["netgeom.n2_max"], n2_max)


def _run_point(tr: "Tracer", arguments: dict, result, dur: float) -> None:
    m = result.params.m
    tr.point_seconds[m] = tr.point_seconds.get(m, 0.0) + dur


def _phase_matrix(tr: "Tracer", arguments: dict, theta, dur: float) -> None:
    entries = math.prod(int(x) for x in arguments["shape"])
    tr.counts["channel.phase_entries"] += entries
    tr.counts["channel.phase_bytes"] += PHASE_ENTRY_BYTES * entries


def _quantized_mimo_rate(tr: "Tracer", arguments: dict, result, dur: float) -> None:
    rows = int(numpy.isfinite(numpy.asarray(arguments["noises"], dtype=float)).sum())
    if rows:
        small, big = sorted((rows, int(arguments["m"])))
        tr.counts["qmimo.gram_flops"] += (
            COMPLEX_MAC_FLOPS * int(arguments["trials"]) * small * small * big
        )


def _slogdet(tr: "Tracer", arguments: dict, result, dur: float) -> None:
    shape = numpy.shape(arguments["a"])
    tr.counts["qmimo.logdet.matrices"] += math.prod(shape[:-2])
    tr.counts["qmimo.logdet.max_dim"] = max(tr.counts["qmimo.logdet.max_dim"], shape[-1])


# (module where the name is looked up, attribute, layer span name, hook).
BOUNDARIES: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("qfmimo.cli", "run_point", "harness.run_point", _run_point),
    ("qfmimo.harness", "run_point", "harness.run_point", _run_point),
    ("qfmimo.cli", "write_csv", "harness.write_csv", None),
    ("qfmimo.cli", "fit_scaling", "harness.fit_scaling", None),
    ("qfmimo.harness", "place_nodes", "netgeom.place_nodes", _place_nodes),
    ("qfmimo.harness", "sum_rate", "qmimo.sum_rate", None),
    ("qfmimo.harness", "cutset_upper_bound", "bounds.cutset_upper_bound", None),
    ("qfmimo.qmimo", "achievable_rate", "qmimo.achievable_rate", None),
    ("qfmimo.qmimo", "noise_profile", "qmimo.noise_profile", None),
    ("qfmimo.qmimo", "link_capacity", "linkrate.link_capacity", None),
    ("qfmimo.qmimo", "quantization_noise", "qmimo.quantization_noise", None),
    ("qfmimo.qmimo", "quantized_mimo_rate", "qmimo.quantized_mimo_rate", _quantized_mimo_rate),
    ("qfmimo.qmimo", "phase_matrix", "channel.phase_matrix", _phase_matrix),
)

# qmimo calls np.linalg.slogdet through its module-level ``np``; that lookup is
# redirected to a stand-in whose linalg.slogdet is wrapped.
LOGDET_SPAN = "qmimo.logdet"
CLI_SPAN = "cli.main"

SPAN_NAMES = tuple(dict.fromkeys([CLI_SPAN, *(b[2] for b in BOUNDARIES), LOGDET_SPAN]))


class _Namespace:
    """Attribute stand-in for a module: overrides first, the module after."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.point_seconds: dict[int, float] = {}

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result, end - start)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            qmimo = importlib.import_module("qfmimo.qmimo")
            saved.append((qmimo, "np", qmimo.np))
            linalg = _Namespace(
                numpy.linalg,
                slogdet=self.wrap(LOGDET_SPAN, numpy.linalg.slogdet, _slogdet),
            )
            qmimo.np = _Namespace(numpy, linalg=linalg)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) for every span name, zero calls included."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: (0, 0.0) for name in SPAN_NAMES}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, seconds = out[name]
            out[name] = (calls + 1, seconds + (end - start - child))
        return out
