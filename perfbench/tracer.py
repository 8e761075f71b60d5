"""Span tracing of hvsim from outside the package.

`Tracer.install` replaces each traced function in every `hvsim.*` namespace
that binds it (so `experiments.measure` and `consistency.measure` are both
wrapped) and each traced method on its class. A wrapper appends one span,
(name, parent, start, end), to in-memory arrays; `uninstall` puts the
originals back. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) for functions, (module, class, attribute)
# for methods. The span name is the layer followed by the function.
FUNCTIONS = {
    "operators.spectral": ("hvsim.operators", "spectral"),
    "operators.haar_state": ("hvsim.operators", "haar_state"),
    "model.substream": ("hvsim.model", "substream"),
    "model.draw_hidden": ("hvsim.model", "draw_hidden"),
    "model.draw_hidden_batch": ("hvsim.model", "draw_hidden_batch"),
    "model.predict": ("hvsim.model", "predict"),
    "model.update": ("hvsim.model", "update"),
    "model.measure": ("hvsim.model", "measure"),
    "model.branch_indices": ("hvsim.model", "branch_indices"),
    "expressions.eval_real": ("hvsim.expressions", "eval_real"),
    "expressions.peres_mermin": ("hvsim.expressions", "peres_mermin"),
    "consistency.check_weak_fc": ("hvsim.consistency", "check_weak_fc"),
    "consistency.verify_proposition": ("hvsim.consistency", "verify_proposition"),
    "consistency.no_go_search": ("hvsim.consistency", "no_go_search"),
    "experiments.born_experiment": ("hvsim.experiments", "born_experiment"),
    "experiments.chsh_experiment": ("hvsim.experiments", "chsh_experiment"),
    "experiments.column_product_experiment": ("hvsim.experiments", "column_product_experiment"),
    "experiments.replay_table1": ("hvsim.experiments", "replay_table1"),
    "experiments.implications_demo": ("hvsim.experiments", "implications_demo"),
    "cli.build_parser": ("hvsim.cli", "build_parser"),
    "cli.main": ("hvsim.cli", "main"),
}
METHODS = {
    "operators.spectrum": ("hvsim.operators", "HermitianOperator", "spectrum"),
    "operators.weights": ("hvsim.operators", "SpectralDecomposition", "weights"),
    "operators.PureState": ("hvsim.operators", "PureState", "__init__"),
}
# Spans that also record an item count taken from the call's arguments:
# draw_hidden_batch(rng, count) draws `count` hidden scalars.
ITEMS = {
    "model.draw_hidden_batch": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["count"],
}
NAMES = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self._stack = [-1]
        self._restore = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        nid = NAMES.index(name)
        names, parents, starts, ends, items = (
            self.name, self.parent, self.start, self.end, self.items)
        stack = self._stack
        clock = time.perf_counter
        count_items = ITEMS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(count_items(args, kwargs) if count_items else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return span

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hvsim" or key.startswith("hvsim."))]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._restore.append((mod, binding, original))
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        restored = all(vars(owner).get(attr) is original
                       for owner, attr, original in self._restore)
        self._restore.clear()
        if not restored:
            raise RuntimeError("traced bindings were not restored")

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }

    def save(self, path, pass_starts) -> None:
        """Write every span, the span names and the index of the first span
        of each traced pass."""
        np.savez(path, names=np.array(NAMES), pass_starts=np.array(pass_starts),
                 **self.arrays())

    def per_pass(self, pass_starts) -> dict:
        """Per-pass totals by span name: calls, self seconds, inclusive
        seconds and items, each an array of shape (passes, len(NAMES))."""
        spans = self.arrays()
        n = len(spans["start"])
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(spans["parent"][has_parent],
                                 weights=duration[has_parent], minlength=n)
        self_time = duration - child_time
        bounds = list(pass_starts) + [n]
        k = len(NAMES)
        out = {key: np.zeros((len(pass_starts), k))
               for key in ("calls", "self_s", "incl_s", "items")}
        for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            ids = spans["name"][lo:hi]
            out["calls"][p] = np.bincount(ids, minlength=k)
            out["self_s"][p] = np.bincount(ids, weights=self_time[lo:hi], minlength=k)
            out["incl_s"][p] = np.bincount(ids, weights=duration[lo:hi], minlength=k)
            out["items"][p] = np.bincount(ids, weights=spans["items"][lo:hi], minlength=k)
        return out
