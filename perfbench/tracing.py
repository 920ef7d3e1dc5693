"""Span tracing of opcheck's public functions, installed from outside the package.

``from .linalg import eigh`` binds ``eigh`` in every importing module, so a
wrapper placed only on ``opcheck.linalg`` would miss most calls. ``Tracer``
therefore replaces each public function under every name that refers to it in
any loaded ``opcheck`` module, and restores the originals on ``uninstall``.

Each call becomes one span: name, start, end, parent span, op id, matrix
dimension, self time (duration minus the time of its child spans) and an
outcome flag. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# cli is argument parsing around campaign and stays untraced; errors holds no work
LAYERS = ("linalg", "decompose", "means", "posmap", "checks", "ensembles", "campaign", "io")


def _rank_deficient(result) -> Optional[str]:
    rank = getattr(result, "rank", None)
    values = getattr(result, "values", None)
    if rank is not None and values is not None and rank < len(values):
        return "rank_deficient"
    return None


def _singular_limit(result) -> Optional[str]:
    if isinstance(result, tuple) and len(result) == 2 and bool(result[1]):
        return "singular_limit"
    return None


# outcome flags read from return values; an exception always flags its class name
OUTCOME_FLAGS: Dict[str, Callable] = {
    "decompose.svd_square": _rank_deficient,
    "means.geometric_mean_ex": _singular_limit,
}


def _dim(args) -> int:
    """Leading dimension of the first matrix-like argument (a map counts by its input size)."""
    for a in args[:2]:
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) == 2:
            return int(shape[0])
        in_dim = getattr(a, "in_dim", None)
        if isinstance(in_dim, int):
            return in_dim
    return 0


def public_functions() -> Dict[str, Callable]:
    """``layer.name`` -> function, for every function a layer lists in ``__all__``."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"opcheck.{layer}")
        for fname in getattr(mod, "__all__", ()):
            fn = getattr(mod, fname, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{layer}.{fname}"] = fn
    return found


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "dim", "self_s", "flag")

    def __init__(self, name, start, end, parent, op, dim, self_s, flag):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.dim = dim
        self.self_s = self_s
        self.flag = flag

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records a span per call of every public opcheck function while installed.

    Set ``op`` to the current op id before each op; spans of one op share it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[list] = []  # [span index, seconds spent in children]
        self._patches: list = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "opcheck" or n.startswith("opcheck.")]
        for name, fn in public_functions().items():
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable) -> Callable:
        flagger = OUTCOME_FLAGS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            flag = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                flag = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = Span(
                    name, start, end, parent, self.op, _dim(args), end - start - frame[1], flag
                )
            if flagger is not None:
                spans[frame[0]].flag = flagger(result)
            return result

        return wrapper


class SpanStats:
    """Totals per function over spans, split into op spans and all spans."""

    def __init__(self) -> None:
        self.op_calls: Dict[str, int] = defaultdict(int)
        self.op_self_s: Dict[str, float] = defaultdict(float)
        self.op_flags: Dict[tuple, int] = defaultdict(int)
        self.all_calls: Dict[str, int] = defaultdict(int)
        self.all_self_s: Dict[str, float] = defaultdict(float)
        self.all_total_s: Dict[str, float] = defaultdict(float)
        self.eigh_by_dim: Dict[int, list] = defaultdict(lambda: [0, 0.0])

    def add(self, spans: List[Span]) -> None:
        for s in spans:
            dur = s.end - s.start
            self.all_calls[s.name] += 1
            self.all_self_s[s.name] += s.self_s
            self.all_total_s[s.name] += dur
            if s.name == "linalg.eigh":
                acc = self.eigh_by_dim[s.dim]
                acc[0] += 1
                acc[1] += dur
            if s.op is None or s.op < 0:
                continue
            self.op_calls[s.name] += 1
            self.op_self_s[s.name] += s.self_s
            if s.flag is not None:
                self.op_flags[(s.name, s.flag)] += 1

    def call_counts(self) -> Dict[str, int]:
        return dict(sorted(self.op_calls.items()))


def write_spans(spans: List[Span], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_json()) + "\n")
