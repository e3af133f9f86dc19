"""Spans around plaplab's layers, recorded from outside the package.

Each public function of ``core``, ``solver``, ``stability``, ``estimates``,
``oracle``, ``exponents`` and ``cli`` is replaced, in every plaplab module
that looks it up by name, with a wrapper that records a span: a name, start
and end times, the span that called it and the job it belongs to.  The hot
methods (quadrature, reaction terms, profile interpolation, the closed-form
solutions) are wrapped on their classes.  Nothing in the package changes;
``uninstall`` puts every original back.

A span's self time is its duration minus the durations of the spans it
called, so the self times of all spans add up to the time of the outermost
ones, the ``cli.main`` calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYER_MODULES = ("core", "solver", "stability", "estimates", "oracle", "exponents", "cli")

# (module, class) -> (layer, methods); the layer of other callables is their module
METHODS = {
    ("core", "QuadratureRule"): ("core.quadrature", ("integrate", "cell_integrals", "cumulative_from_zero", "cumulative_to_one")),
    ("core", "Exponential"): ("core.reaction", ("value", "derivative")),
    ("core", "Power"): ("core.reaction", ("value", "derivative")),
    ("core", "Tabulated"): ("core.reaction", ("value", "derivative")),
    ("core", "RadialProfile"): ("core.interp", ("u_at", "u_r_at", "u_rr_at")),
    ("oracle", "ExactSolution"): ("oracle", ("u_at", "u_r_at", "u_rr_at", "sample", "g_prime", "nonlinearity")),
}
FUNCTION_LAYERS = {
    ("core", "make_rule"): "core.make_rule",
    ("solver", "shoot"): "solver.shoot",
    ("stability", "assemble_q"): "stability.assemble",
    ("stability", "min_eigenvalue"): "stability.eig",
    ("stability", "hardy_inequality_check"): "stability.hardy",
}
LAYERS = sorted(set(LAYER_MODULES) | set(FUNCTION_LAYERS.values()) | {layer for layer, _ in METHODS.values()})


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, value) -> None:
        """Point every module-level name bound to ``original`` at ``value``."""
        for module in modules:
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Capture:
    """Keeps what the CLI's solver entry points return, so checks and counters
    read the public results (``LambdaRecord``s, ``BifurcationPoint``s) of the
    calls a job made.  One list append per call; installed in plain and traced
    passes alike."""

    def __init__(self):
        self.brackets: list = []
        self.curves: list = []
        self._patches = Patches()

    def install(self) -> None:
        cli = importlib.import_module("plaplab.cli")
        for attr, sink in (("lambda_star_estimate", self.brackets), ("bifurcation_curve", self.curves)):
            fn = getattr(cli, attr)

            def kept(*args, _fn=fn, _sink=sink, **kwargs):
                result = _fn(*args, **kwargs)
                _sink.append(result)
                return result

            self._patches.set(cli, attr, kept)

    def take(self) -> tuple[list, list]:
        """The results since the last call, oldest first."""
        out = (list(self.brackets), list(self.curves))
        self.brackets.clear()
        self.curves.clear()
        return out

    def uninstall(self) -> None:
        self._patches.undo()


def plaplab_modules():
    package = importlib.import_module("plaplab")
    return [package] + [importlib.import_module(f"plaplab.{name}") for name in LAYER_MODULES]


class Tracer:
    """In-memory spans plus per-layer calls, self time and failures."""

    def __init__(self):
        self.job = ""
        self.reset()
        self._patches = Patches()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.witnesses = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                tracer.spans.append((sid, name, start, end, parent, tracer.job))
            if layer == "stability.hardy":
                tracer.witnesses += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = plaplab_modules()
        for short in LAYER_MODULES:
            module = importlib.import_module(f"plaplab.{short}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                layer = FUNCTION_LAYERS.get((short, attr), short)
                self._patches.replace_everywhere(modules, fn, self.wrap(layer, f"{short}.{attr}", fn))
        for (short, cls_name), (layer, methods) in METHODS.items():
            cls = getattr(importlib.import_module(f"plaplab.{short}"), cls_name)
            for meth in methods:
                self._patches.set(cls, meth, self.wrap(layer, f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        self._patches.undo()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for sid, name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
