"""Layer spans, repeat detection, the _LS_CACHE hazard guard and the scalar
counting pass, all installed from outside the package.

The layers are the package modules.  ``SpanTracer.install`` wraps every public
function and public method of each layer module and rebinds each wrapper in
every ``grforge.*`` namespace that binds the original, because a name taken
with ``from .lattices import is_pure`` is bound at import time.  Spans are
aggregated in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("files", "algebra", "linalg", "lattices", "radicals", "modules",
          "graded", "forced", "certify", "tightness", "suites", "cyclo",
          "randomized")

# functions whose calls on an algebra already seen in the same job are
# counted as repeats; the value names the arguments, after the algebra, that
# distinguish one derived object from another
REPEAT_TRACKED = {
    "radicals.radical_field": (),
    "modules.standard_module": ("lam",),
    "modules.weight_simples": (),
}


def _grforge_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "grforge" or name.startswith("grforge.")]


def _rebind(replacements):
    """Replace every binding of each original function by its wrapper, in
    every loaded grforge module; returns an undo list."""
    undo = []
    by_id = {id(orig): (orig, new) for orig, new in replacements}
    for mod in _grforge_modules():
        for name, val in list(vars(mod).items()):
            hit = by_id.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, name, val))
                setattr(mod, name, hit[1])
    return undo


def _public_callables(mod):
    """(owner, attribute, raw object, qualified name) for the public functions
    of a module and the public methods of the classes it defines."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((mod, name, obj, name))
        elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
              and not issubclass(obj, BaseException)):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or \
                        inspect.isfunction(raw):
                    out.append((obj, attr, raw, f"{name}.{attr}"))
    return out


def _unwrap_raw(raw):
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__, type(raw)
    return raw, None


class Restore:
    """Undo list of (owner, attribute, original value)."""

    def __init__(self, undo):
        self.undo = undo

    def __call__(self):
        for owner, name, val in reversed(self.undo):
            setattr(owner, name, val)
        self.undo = []


class SpanTracer:
    """Per-layer self time and entries, per-function calls and repeats.

    A span opens when a call enters a layer from another layer (or from the
    benchmark itself); a layer's self time is its span time minus the time of
    the child spans it opened into other layers.
    """

    def __init__(self):
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.fn_calls = Counter()
        self.fn_self = defaultdict(float)
        self.repeats = Counter()
        self.job_spans = []
        # one [layer, time spent in child spans] per open span
        self._stack = [["bench", 0.0]]
        self._seen = defaultdict(weakref.WeakSet)

    def new_job(self):
        """Repeats are counted within one job."""
        self._seen = defaultdict(weakref.WeakSet)

    def _wrap(self, layer, qual, fn):
        stack = self._stack
        fn_calls = self.fn_calls
        layer_calls = self.layer_calls
        layer_self = self.layer_self
        fn_self = self.fn_self
        clock = time.perf_counter
        key = f"{layer}.{qual}"
        repeat_args = REPEAT_TRACKED.get(key)
        sig = inspect.signature(fn) if repeat_args is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[key] += 1
            if repeat_args is not None:
                self._note_repeat(key, sig, repeat_args, args, kwargs)
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            layer_calls[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                layer_self[layer] += own
                fn_self[key] += own
                stack[-1][1] += dt

        return wrapper

    def _note_repeat(self, key, sig, names, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        alg = next(iter(bound.arguments.values()))
        seen = self._seen[(key,) + tuple(bound.arguments[n] for n in names)]
        if alg in seen:
            self.repeats[key] += 1
        else:
            seen.add(alg)

    def install(self, layers=LAYERS):
        """Wrap the public callables of the named grforge modules; returns a
        Restore that puts the originals back."""
        undo = []
        module_funcs = []
        for layer in layers:
            mod = sys.modules[f"grforge.{layer}"]
            for owner, attr, raw, qual in _public_callables(mod):
                fn, kind = _unwrap_raw(raw)
                wrapped = self._wrap(layer, qual, fn)
                if owner is mod:
                    module_funcs.append((fn, wrapped))
                else:
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, kind(wrapped) if kind else wrapped)
        undo.extend(_rebind(module_funcs))
        return Restore(undo)

    def job(self, name, thunk):
        """Run one job as a top-level span and return its result."""
        self.new_job()
        t0 = time.perf_counter()
        try:
            return thunk()
        finally:
            self.job_spans.append((name, t0, time.perf_counter()))

    def summary(self):
        return {
            "layers": {k: {"calls": self.layer_calls[k],
                           "self_s": self.layer_self[k]}
                       for k in sorted(set(self.layer_calls) | set(self.layer_self))},
            "functions": {k: {"calls": self.fn_calls[k],
                              "self_s": self.fn_self.get(k, 0.0),
                              "repeats": self.repeats.get(k, 0)}
                          for k in sorted(self.fn_calls)},
            "jobs": [{"job": n, "start": a, "end": b}
                     for n, a, b in self.job_spans],
        }


class LsCacheGuard:
    """Detects the id() reuse hazard of ``tightness._LS_CACHE``.

    ``is_lambda_standard_cached`` keys its cache by ``id(alg)``.  A call that
    finds its key cached although this algebra object was never passed
    before gets the verdict of a dead algebra that had the same id; that
    counts in ``fired``.  The stale verdict is then compared with a fresh
    ``is_lambda_standard``; a difference counts in ``wrong`` and fails the
    job.  Objects are remembered in a WeakSet, so the guard keeps no algebra
    alive and cannot hide the hazard.
    """

    def __init__(self):
        self.fired = 0
        self.wrong = 0
        self._seen = weakref.WeakSet()

    def install(self):
        from grforge import modules, tightness

        orig = tightness.is_lambda_standard_cached

        @functools.wraps(orig)
        def guarded(alg):
            stale = id(alg) in tightness._LS_CACHE and alg not in self._seen
            self._seen.add(alg)
            got = orig(alg)
            if stale:
                self.fired += 1
                if got != modules.is_lambda_standard(alg):
                    self.wrong += 1
            return got

        return Restore(_rebind([(orig, guarded)]))


class ScalarCounter:
    """Counting pass: wraps Cyc/Fp multiplication and the Cyc zero test, and
    records how dense the matrices passed to ``linalg.mat_vec`` are.

    Run in its own pass, apart from the span pass, so that these per-scalar
    wrappers do not inflate layer self times.
    """

    def __init__(self):
        self.counts = Counter()
        self.mat_vec_entries = 0
        self.mat_vec_nonzero = 0

    def install(self):
        from grforge import linalg
        from grforge.scalars import Cyc, Fp

        undo = []
        counts = self.counts

        def counted(cls, attr, key):
            orig = cls.__dict__[attr]

            def wrapper(*args):
                counts[key] += 1
                return orig(*args)

            undo.append((cls, attr, orig))
            setattr(cls, attr, wrapper)
            return orig

        cyc_bool = counted(Cyc, "__bool__", "cyc_zero_test")
        counted(Cyc, "__mul__", "cyc_mul")
        counted(Cyc, "__rmul__", "cyc_mul")
        counted(Fp, "__mul__", "fp_mul")
        counted(Fp, "__rmul__", "fp_mul")

        def nonzero(x):
            # the uncounted zero test, so this scan adds nothing to the counts
            return cyc_bool(x) if type(x) is Cyc else bool(x)

        orig_mv = linalg.mat_vec

        @functools.wraps(orig_mv)
        def mat_vec(a, v, field):
            for row in a:
                self.mat_vec_entries += len(row)
                self.mat_vec_nonzero += sum(1 for x in row if nonzero(x))
            return orig_mv(a, v, field)

        undo.extend(_rebind([(orig_mv, mat_vec)]))
        return Restore(undo)

    @property
    def nonzero_frac(self):
        if not self.mat_vec_entries:
            return 0.0
        return self.mat_vec_nonzero / self.mat_vec_entries
