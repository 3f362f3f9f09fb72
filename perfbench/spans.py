"""Spans around the public calls of each exactframes module.

The tracer replaces public functions with wrappers from outside the
package: every module attribute that refers to a wrapped function is
rebound (this covers ``from x import f`` as well as ``x.f``), except in
the kernel implementation modules, so that only calls into the kernel
from other layers are recorded.  Each wrapped call appends one span
``(id, name, start, end, parent id, job index)`` to an in-memory list;
the runner writes the spans out at the end.  Span times are turned
into reference seconds (``refclock``) with the factor of their job, and
a layer's ``_s`` metric is its self time: its spans' durations minus
the traced calls made inside them.  Exact counts (term
products, bytes, partitions, eigvalsh calls) come from the arguments
and results; whatever costs more than a lookup (term products, matrix
sizes) is computed when the pass ends, so that it enters no span.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

import numpy

# modules whose own references are left alone: calls inside the kernel
# are not calls into the kernel
_KERNEL_IMPLS = ("exactframes._kernel.pycore", "exactframes._kernel.fastcore")
_CONSTRUCTORS = {"unitary": "unitary.construct_s",
                 "two_tight": "two_tight.construct_s",
                 "hyperplane": "hyperplane.build_s"}
# every check the CLI can reach (check_equal_norm_rows has no CLI path)
_CHECKS = ("check_unitary", "check_tight_frame", "check_orthogonal_columns",
           "check_hyperplane_basis", "check_unbiased_pair")


def _term_products_dot(args) -> int:
    u, v = args[0], args[1]
    return sum(len(a) * len(b) for a, b in zip(u, v) if a and b)


def _term_products_matmul(args) -> int:
    a, b = args[0], args[1]
    left = [sum(len(row[k]) for row in a) for k in range(len(b))]
    right = [sum(len(t) for t in row) for row in b]
    return sum(x * y for x, y in zip(left, right))


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.matrices: dict = {}
        self.products: list = []
        self.witnesses: list = []
        self.scale: dict = {}
        self.recorded: list = []
        self.job = -1
        self._stack: list = []
        self._ids = itertools.count(1)
        self._restore: list = []

    def _wrap(self, name: str, fn, after=None):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if after is not None:
                after(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _keep_args(self, measure):
        def after(args, _result, _elapsed):
            self.products.append((measure, args))
        return after

    def _partitions(self, _args, result, _elapsed) -> None:
        self.counts["paving.partitions"] += result.partitions_examined

    def _after_serialize(self, args, result, _elapsed) -> None:
        self.matrices[id(args[0])] = args[0]
        self.counts["io.serialize.bytes"] += len(result)

    def _after_deserialize(self, args, result, _elapsed) -> None:
        self.matrices[id(result)] = result
        self.counts["io.deserialize.bytes"] += len(args[0])

    def _witness_time(self, args, result, elapsed) -> None:
        if result.witness is not None:
            self.witnesses.append((self.job, elapsed))

    def _targets(self) -> list:
        """(module, attribute, span name, after-hook) for every wrapped
        call.  Modules are looked up at install time."""
        mods = {name: sys.modules["exactframes." + name] for name in (
            "cli", "io", "radicals", "_kernel", "matrices", "verify",
            "unitary", "two_tight", "hyperplane", "paving")}
        out = [
            (mods["cli"], "main", "cli.main", None),
            (mods["io"], "serialize", "io.serialize", self._after_serialize),
            (mods["io"], "deserialize", "io.deserialize",
             self._after_deserialize),
            (mods["radicals"], "parse_scalar", "radicals.parse_scalar", None),
            (mods["_kernel"], "dot_terms", "kernel.dot_terms",
             self._keep_args(_term_products_dot)),
            (mods["_kernel"], "matmul_terms", "kernel.matmul_terms",
             self._keep_args(_term_products_matmul)),
            (mods["_kernel"], "squarefree_split", "kernel.squarefree_split",
             None),
            (mods["matrices"].ExactMatrix, "matmul", "matrices.matmul", None),
            (mods["matrices"].ExactMatrix, "normalize_rows",
             "matrices.normalize_rows", None),
            (mods["paving"], "gram_projection", "paving.gram_projection",
             None),
            (mods["paving"], "paving_epsilon", "paving.paving_epsilon",
             self._partitions),
        ]
        for check in _CHECKS:
            out.append((mods["verify"], check, "verify." + check,
                        self._witness_time))
        for short in _CONSTRUCTORS:
            mod = mods[short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((mod, attr, f"{short}.{attr}", None))
        return out

    def install(self) -> None:
        replace = {}
        for owner, attr, name, after in self._targets():
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, after)
            replace[id(fn)] = (fn, wrapper)
            self._rebind(owner, attr, wrapper)
        # paving calls np.linalg.eigvalsh once per block: count, no span
        self._rebind(numpy.linalg, "eigvalsh", self._counter(
            "paving.eigvalsh.calls", numpy.linalg.eigvalsh))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("exactframes") or (
                    modname in _KERNEL_IMPLS):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1  # cleared in place, never rebound
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def finish_pass(self) -> dict:
        """Per-layer metrics of the pass just run; moves its spans to
        ``recorded`` and clears the counts for the next pass."""
        metrics = self._layer_metrics()
        self.recorded.extend(self.spans)
        for store in (self.spans, self.counts, self.matrices, self.products,
                      self.witnesses, self.scale):
            store.clear()
        return metrics

    def _layer_metrics(self) -> dict:
        scale = self.scale
        child = defaultdict(float)
        for _, _, start, end, parent, job in self.spans:
            child[parent] += (end - start) * scale[job]
        own = defaultdict(float)
        calls = Counter()
        for sid, name, start, end, _, job in self.spans:
            own[name] += (end - start) * scale[job] - child[sid]
            calls[name] += 1
        c = self.counts
        out = {
            "cli.self_s": own["cli.main"],
            "kernel.dot_terms.calls": calls["kernel.dot_terms"],
            "kernel.dot_terms_s": own["kernel.dot_terms"],
            "kernel.matmul_terms_s": own["kernel.matmul_terms"],
            "kernel.term_products": sum(measure(args) for measure, args
                                        in self.products),
            "kernel.squarefree_split.calls":
                calls["kernel.squarefree_split"],
        }
        for check in _CHECKS:
            out[f"verify.{check}_s"] = own["verify." + check]
            out[f"verify.{check}.calls"] = calls["verify." + check]
        out["verify.witness_s"] = sum(t * scale[job]
                                      for job, t in self.witnesses)
        for op in ("serialize", "deserialize"):
            out[f"io.{op}_s"] = own["io." + op]
            out[f"io.{op}.calls"] = calls["io." + op]
            out[f"io.{op}.bytes"] = c[f"io.{op}.bytes"]
        out["radicals.parse_scalar_s"] = own["radicals.parse_scalar"]
        out["radicals.parse_scalar.calls"] = calls["radicals.parse_scalar"]
        for short, metric in _CONSTRUCTORS.items():
            out[metric] = sum(t for name, t in own.items()
                              if name.startswith(short + "."))
        out["matrices.matmul_s"] = own["matrices.matmul"]
        out["matrices.normalize_rows_s"] = own["matrices.normalize_rows"]
        out["paving.gram_projection_s"] = own["paving.gram_projection"]
        out["paving.paving_epsilon_s"] = own["paving.paving_epsilon"]
        out["paving.partitions"] = c["paving.partitions"]
        out["paving.eigvalsh.calls"] = c["paving.eigvalsh.calls"]
        out["paving.us_per_partition"] = (
            1e6 * own["paving.paving_epsilon"] / c["paving.partitions"]
            if c["paving.partitions"] else 0.0)
        out.update(self._work_metrics())
        return out

    def _work_metrics(self) -> dict:
        """Exact size of every matrix that crossed the io layer."""
        entries = 0
        radicands = set()
        bits = 0
        for m in self.matrices.values():
            entries += m.rows * m.cols
            for i in range(m.rows):
                for j in range(m.cols):
                    for rad, q in m.entry(i, j).terms:
                        radicands.add(rad)
                        bits = max(bits, q.numerator.bit_length(),
                                   q.denominator.bit_length())
        return {"work.entries": entries, "work.radicands": len(radicands),
                "work.max_coeff_bits": bits}
