"""Outside-in tracer for the mrc_dof_lab layers.

The tracer wraps, from outside the package, every public function of the
``linalg``, ``channel``, ``ssa_nc``, ``analysis``, ``bounds`` and ``cli``
modules, the channel validator ``ChannelSet.__post_init__`` and the four
LAPACK entry points the package calls (``np.linalg.svd/qr/inv/solve``).
A function is wrapped under every name its callers look it up by: a
function that ``analysis`` imported from ``channel`` is patched in both
namespaces, with one wrapper, so it records one span name whichever
module calls it.

Spans (name, start, end, parent, request) stay in memory in flat arrays
and are written out once, at the end of the run. The request identifier
is the traced pass. LAPACK operation counts are computed from argument
shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time
from array import array

import numpy as np

LAYER_MODULES = ("linalg", "channel", "ssa_nc", "analysis", "bounds", "cli")


def _svd_flops(a, full_matrices=True, compute_uv=True, *_args, **_kw) -> float:
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 14.0 * m * n * n + 8.0 * n**3


def _qr_flops(a, *_args, **_kw) -> float:
    m, n = a.shape[-2:]
    if m >= n:
        return 4.0 * n * n * (m - n / 3.0)
    return 2.0 * m * m * (n - m / 3.0) + 4.0 * m**3 / 3.0


def _inv_flops(a, *_args, **_kw) -> float:
    n = a.shape[-1]
    return 2.0 * n**3


def _solve_flops(a, b, *_args, **_kw) -> float:
    n = a.shape[-1]
    rhs = 1 if np.ndim(b) == 1 else np.shape(b)[-1]
    return 2.0 * n**3 / 3.0 + 2.0 * n * n * rhs


# Real-arithmetic estimates from Golub and Van Loan (Householder QR,
# Golub-Reinsch SVD, LU); a complex operand costs four times as much.
_FLOP_MODELS = {
    "svd": _svd_flops,
    "qr": _qr_flops,
    "inv": _inv_flops,
    "solve": _solve_flops,
}


class _WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.redraws = 0
        self.resamples = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "redrawing" in msg:
            self.redraws += 1
        elif "resampling" in msg:
            self.resamples += 1


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flops = array("d")
        self.current_request = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._warnings = _WarningCounter()
        self._logger_state = None

    def _wrap(self, name: str, fn, flop_model=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, flops, stack = self.start, self.end, self.flops, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(tracer.current_request)
            if flop_model is None:
                flops.append(0.0)
            else:
                complex_factor = 4.0 if np.iscomplexobj(args[0]) else 1.0
                flops.append(complex_factor * flop_model(*args, **kwargs))
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"mrc_dof_lab.{m}") for m in LAYER_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        channel_set = modules["channel"].ChannelSet
        self._patch(
            channel_set, "__post_init__", self._wrap("channel.validate", channel_set.__post_init__)
        )
        for kernel, flop_model in _FLOP_MODELS.items():
            fn = getattr(np.linalg, kernel)
            self._patch(np.linalg, kernel, self._wrap(f"np.linalg.{kernel}", fn, flop_model))
        log = logging.getLogger("mrc_dof_lab.ssa_nc")
        self._logger_state = (log.level, log.propagate)
        log.setLevel(logging.WARNING)
        log.propagate = False
        log.addHandler(self._warnings)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        log = logging.getLogger("mrc_dof_lab.ssa_nc")
        log.removeHandler(self._warnings)
        if self._logger_state is not None:
            log.setLevel(self._logger_state[0])
            log.propagate = self._logger_state[1]
            self._logger_state = None

    @property
    def redraws(self) -> int:
        return self._warnings.redraws

    @property
    def resamples(self) -> int:
        return self._warnings.resamples

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Tab-separated spans: request, id, parent, name, start_s, end_s."""
        names = self.names
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("request\tid\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.request[i]}\t{i}\t{self.parent[i]}\t{names[self.name_id[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


class SpanSummary:
    """Counts, busy time and self time per span name over a span range.

    Spans are stored in call order, so a parent always precedes its
    children and one forward scan sees every ancestor first.
    """

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        names = tracer.names
        start, end, parent, name_id = tracer.start, tracer.end, tracer.parent, tracer.name_id
        self.count: dict[str, int] = {}
        self.flops: dict[str, float] = {}
        self._durations: dict[str, list[float]] = {}
        self._self: dict[str, float] = {}
        # Total time per (name, set of ancestor names), for busy().
        self._by_context: dict[tuple[str, frozenset], float] = {}
        contexts: dict[int, frozenset] = {}
        interned: dict[tuple[frozenset, str], frozenset] = {}
        child_time: dict[int, float] = {}
        empty = frozenset()
        for i in range(lo, hi):
            dur = end[i] - start[i]
            name = names[name_id[i]]
            p = parent[i]
            if p >= lo:
                key = (contexts[p], names[name_id[p]])
                ctx = interned.get(key)
                if ctx is None:
                    ctx = interned[key] = key[0] | {key[1]}
                child_time[p] = child_time.get(p, 0.0) + dur
            else:
                ctx = empty
            contexts[i] = ctx
            self.count[name] = self.count.get(name, 0) + 1
            self.flops[name] = self.flops.get(name, 0.0) + tracer.flops[i]
            self._durations.setdefault(name, []).append(dur)
            self._by_context[(name, ctx)] = self._by_context.get((name, ctx), 0.0) + dur
        for i in range(lo, hi):
            name = names[name_id[i]]
            dur = end[i] - start[i]
            self._self[name] = self._self.get(name, 0.0) + dur - child_time.get(i, 0.0)

    def durations(self, name: str) -> list[float]:
        return self._durations.get(name, [])

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self._self.get(n, 0.0) for n in names)

    def names_with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self.count if n.startswith(prefix)]

    def busy(self, *names: str) -> float:
        """Wall time inside any of ``names``, counting nested calls once."""
        wanted = set(names)
        return sum(
            t
            for (name, ctx), t in self._by_context.items()
            if name in wanted and wanted.isdisjoint(ctx)
        )
