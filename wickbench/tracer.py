"""Per-layer tracing of qftalg from outside the library.

A :class:`Tracer` times and counts calls into the public functions and
methods of each module of ``src/qftalg`` by replacing them with wrappers.
``coqts``, ``renorm``, ``laws`` and others import functions by name, so a
wrapper replaces every reference to the original in every qftalg module
(and in module-level dicts such as ``laws._COPRODUCTS``).  Spans nest: a
layer's self time is each span's duration minus the time of the spans it
encloses, so recursive calls such as ``r_bicharacter`` are not counted
twice.  Each module's import is a span too, so a layer's self time is its
import plus its share of the traced calls.

Counters that need more than a call count read the library's memo dicts
(hit ratios, cache entries) or the returned values (graphs enumerated,
tensor terms, instances checked).
"""

from __future__ import annotations

import fractions
import importlib.machinery
import sys
import time

LAYERS = ("scalar", "hopf", "coqts", "graphs", "renorm", "laws", "expr", "cli")

# Methods wrapped per class.  Trivial dunders that dict lookups call
# (__hash__, __bool__, __lt__) are left alone: a wrapper would cost more
# than they do and tell nothing about where the work goes.
_METHODS = {
    "PropPoly": ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__pow__", "__eq__", "constant", "symbol",
                 "from_symbol_powers", "evaluate", "sorted_terms", "__str__", "to_json"),
    "Monomial": ("__init__", "from_occurrences", "of", "occurrences", "append", "__mul__",
                 "split_first", "split_last", "__str__", "to_json"),
    "Element": ("__init__", "from_monomial", "from_generator", "scalar", "one", "zero",
                "__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "counit", "__eq__",
                "sorted_terms", "__str__", "to_json"),
    "Tensor": ("__init__", "from_element", "element", "__add__", "__neg__", "__sub__",
               "scale", "__rmul__", "__eq__", "apply_to_slot", "counit_slot", "swap",
               "merge_slots", "pairwise_product", "sorted_terms", "__str__", "to_json"),
    "Vertex": ("__init__", "image", "apply", "from_json"),
    "DegreeSequence": ("from_monomial",),
}


class Tracer:
    """Spans and counters for one process; create one, call
    :meth:`install_import_hook` before importing qftalg, then :meth:`wrap`.

    ``spawned_at`` is the ``time.perf_counter()`` reading (a system-wide
    monotonic clock) taken by the parent just before it started this
    process; ``cli.startup_s`` runs from there until qftalg is imported
    and wrapped.
    """

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.import_s = {layer: 0.0 for layer in LAYERS}
        self.imported_at = None
        self._stack: list[list] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = dict.fromkeys((
            "scalar.fraction_calls",
            "scalar.poly_mul_calls",
            "hopf.monomials_built",
            "hopf.coproduct_calls",
            "hopf.coproduct_hits",
            "hopf.tensor_terms",
            "coqts.twisted_calls",
            "coqts.bicharacter_calls",
            "coqts.bicharacter_hits",
            "coqts.chronological_calls",
            "graphs.graphs_enumerated",
            "renorm.partition_terms",
            "renorm.products",
            "laws.instances_checked",
            "expr.parse_calls",
        ), 0)

    def reset(self) -> None:
        """Forget every call counted so far; import times are kept.  The
        dicts are cleared in place, since the wrappers hold them."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
        for key in self.counts:
            self.counts[key] = 0

    # -- spans -----------------------------------------------------------

    def _span(self, layer: str, fn, before=None, after=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def caller_layer(self) -> str | None:
        return self._stack[-2][0] if len(self._stack) >= 2 else None

    # -- imports ---------------------------------------------------------

    def install_import_hook(self) -> None:
        """Time the import of every qftalg module as a span of its layer."""
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                if name != "qftalg" and not name.startswith("qftalg."):
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path)
                if spec is None or spec.loader is None:
                    return spec
                layer = name.rpartition(".")[2]
                exec_module = spec.loader.exec_module

                def timed_exec(module):
                    frame = [layer, 0.0]
                    tracer._stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        exec_module(module)
                    finally:
                        elapsed = time.perf_counter() - t0
                        tracer._stack.pop()
                        if layer in tracer.import_s:
                            tracer.import_s[layer] += elapsed - frame[1]
                        if tracer._stack:
                            tracer._stack[-1][1] += elapsed

                spec.loader.exec_module = timed_exec
                return spec

        sys.meta_path.insert(0, Finder)

    # -- wrapping --------------------------------------------------------

    def wrap(self) -> None:
        """Replace the public functions and methods of every layer."""
        import qftalg.cli  # noqa: F401  (the package does not import cli)

        self.imported_at = time.perf_counter()
        modules = [m for name, m in sys.modules.items()
                   if name == "qftalg" or name.startswith("qftalg.")]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"qftalg.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replacements[obj] = self._span(layer, obj, *self._hooks(layer, name))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if callable(obj) and obj in replacements:
                    setattr(mod, name, replacements[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if callable(value) and value in replacements:
                            obj[key] = replacements[value]
        self._count_fractions()
        self._count_partition_terms()

    def _hooks(self, layer: str, name: str):
        """``(before, after)`` callbacks that update the counters of a call."""
        from qftalg import coqts, hopf

        counts = self.counts

        def count(key, amount=None):
            def after(result, _state):
                counts[key] += 1 if amount is None else amount(result)
            return None, after

        def memo(calls_key, hits_key, table):
            def before(_args):
                return len(table)

            def after(_result, size_before):
                counts[calls_key] += 1
                if len(table) == size_before:
                    counts[hits_key] += 1
            return before, after

        key = f"{layer}.{name}"
        if key == "hopf.monomial_coproduct":
            return memo("hopf.coproduct_calls", "hopf.coproduct_hits", hopf._DELTA_CACHE)
        if key == "hopf.monomial_coproduct_prime":
            return memo("hopf.coproduct_calls", "hopf.coproduct_hits", hopf._DELTA_PRIME_CACHE)
        if key == "coqts.r_bicharacter":
            return memo("coqts.bicharacter_calls", "coqts.bicharacter_hits", coqts._R_CACHE)
        if key == "coqts.twisted_product":
            return count("coqts.twisted_calls")
        if key == "coqts.chronological":
            return count("coqts.chronological_calls")
        if key == "graphs.enumerate_adjacency":
            return count("graphs.graphs_enumerated", len)
        if key == "expr.parse":
            return count("expr.parse_calls")
        if layer == "laws" and name.startswith("check_"):
            return count("laws.instances_checked", lambda report: report.checked)
        return None, None

    def _wrap_class(self, layer: str, cls) -> None:
        counts = self.counts
        tracer = self
        for name in _METHODS.get(cls.__name__, ()):
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._span(layer, raw.__func__)))
                continue
            before = after = None
            if cls.__name__ == "Monomial" and name == "__init__":
                def after(_result, _state):
                    counts["hopf.monomials_built"] += 1
            elif cls.__name__ == "PropPoly" and name in ("__mul__", "__rmul__"):
                def after(_result, _state):
                    counts["scalar.poly_mul_calls"] += 1
            elif cls.__name__ == "Tensor" and name == "apply_to_slot":
                def after(result, _state):
                    counts["hopf.tensor_terms"] += len(result.terms)
            elif cls.__name__ == "Element" and name == "__mul__":
                # products of two elements made by renorm, not scalings
                def before(args):
                    return isinstance(args[1], type(args[0]))

                def after(_result, is_product):
                    if is_product and tracer.caller_layer() == "renorm":
                        counts["renorm.products"] += 1
            setattr(cls, name, self._span(layer, raw, before, after))

    def _count_fractions(self) -> None:
        """Count every Fraction made; arithmetic results are made through
        ``Fraction.__new__`` too."""
        counts = self.counts
        new = fractions.Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            counts["scalar.fraction_calls"] += 1
            return new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)

    def _count_partition_terms(self) -> None:
        """Count the terms of every reduced-partition iterate renorm sums."""
        from qftalg import renorm

        counts = self.counts
        iterates = renorm._reduced_partition_terms

        def counted(u):
            for n, tensor in iterates(u):
                counts["renorm.partition_terms"] += len(tensor.terms)
                yield n, tensor

        renorm._reduced_partition_terms = counted

    # -- results ---------------------------------------------------------

    def cache_entries(self) -> int:
        """Total entries of the module-level memo dicts of qftalg."""
        total = 0
        for layer in LAYERS:
            for name, obj in vars(sys.modules[f"qftalg.{layer}"]).items():
                if isinstance(obj, dict) and "cache" in name.lower():
                    total += len(obj)
        return total

    def snapshot(self) -> dict:
        """Self times (import plus traced calls), counters and cache size."""
        out = {f"{layer}.self_s": self.import_s[layer] + self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        out["cache.entries"] = self.cache_entries()
        out["cli.startup_s"] = self.imported_at - self.spawned_at
        return out
