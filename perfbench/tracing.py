"""Spans and counters around gradedlie's layers, installed from outside.

`Tracer.install` wraps each traced public function at every module binding
that holds it (for example `apply` in derivations, algebroid,
weight_modules, superconnection, cohomology and the package itself, and the
constructors held in `cli._EXAMPLES`).  A wrapper records one span: name,
start, end and parent.  Spans stay in memory in flat arrays and are written
out by `dump`; run.py turns them into self times.  `Element` arithmetic is
counted without spans, since a span per call would swamp the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from fractions import Fraction


def _leaves(x):
    """(entries, nonzero entries) of a matrix stored as nested lists or dicts."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        entries = nonzero = 0
        for item in x:
            e, nz = _leaves(item)
            entries += e
            nonzero += nz
        return entries, nonzero
    return 1, int(x != 0)


def _block_terms(components) -> int:
    return sum(len(v.terms) for blk in components.blocks.values() for v in blk.values())


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.stack: list = []
        self.counts: dict = {}
        self.marks: list = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def mark(self) -> None:
        """Close a window: run.py splits spans and counts at each mark."""
        self.marks.append([time.perf_counter(), dict(self.counts)])

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records a span; after(args, result) runs
        on return, outside the span, to count what the call did.  A call
        that raises counts under "<layer>.raised"."""
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                self.count(layer + ".raised")
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _in_span(self, name: str) -> bool:
        return bool(self.stack) and self.names[self.name[self.stack[-1]]] == name

    def install(self) -> None:
        from gradedlie import (algebra, algebroid, cli, cohomology, constructions,
                               derivations, dsl, superconnection, weight_modules)
        count = self.count

        def after_apply(args, result):
            count("derivations.apply_calls")
            count("derivations.apply_terms_in", len(args[1].terms))
            count("derivations.apply_terms_out", len(result.terms))

        def after_basis(args, result):
            if not self._in_span("weight_modules.basis"):
                count("weight_modules.basis_keys", len(result))

        def after_complex(args, result):
            entries, nonzero = _leaves(getattr(result, "matrices", []))
            count("cohomology.matrix_entries", entries)
            count("cohomology.matrix_nnz", nonzero)

        def after_run(args, result):
            count(f"cli.exit_{result}")

        def after_blocks(args, result):
            count("superconnection.block_terms", _block_terms(result))

        def after_tokens(args, result):
            count("dsl.tokens", len(result))

        def after_structure(args, result):
            count("algebroid.structure_checks", sum(result.checked.values()))

        # (module, function, span, after); a function the program no longer
        # has is skipped, and its layer then reports 0
        targets = [
            (derivations, "apply", "derivations.apply", after_apply),
            (derivations, "is_homological", "derivations.homological", None),
            (algebroid, "check_structure_equations", "algebroid.structure", after_structure),
            (weight_modules, "w_basis", "weight_modules.basis", after_basis),
            (weight_modules, "sector_basis", "weight_modules.basis", after_basis),
            (superconnection, "extract_components", "superconnection.extract", after_blocks),
            (superconnection, "apply_gauge", "superconnection.gauge", after_blocks),
            (superconnection, "flatness_cascade", "superconnection.cascade", None),
            (cohomology, "build_complex", "cohomology.assemble", after_complex),
            (cohomology, "rank", "cohomology.rank", None),
            (dsl, "parse", "dsl.parse", None),
            (dsl, "to_algebroid_spec", "dsl.parse", None),
            (dsl, "print_document", "dsl.print", None),
            (dsl, "document_from_spec", "dsl.print", None),
            (cli, "run", "cli.self", after_run),
        ]
        targets += [(constructions, attr, "constructions.build", None)
                    for attr, fn in vars(constructions).items()
                    if callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == constructions.__name__]
        wrappers = {}
        for module, attr, name, after in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                wrappers[fn] = self.span(name, fn, after)
        for module, attr, key in ((dsl, "parse", "dsl.parse_calls"),
                                  (cli, "run", "cli.requests")):
            fn = getattr(module, attr, None)
            if fn in wrappers:
                wrappers[fn] = self.counter(key, wrappers[fn])
        if hasattr(dsl, "tokenize"):
            wrappers[dsl.tokenize] = _counting(dsl.tokenize, after_tokens)
        self._rebind(wrappers)

        cls = getattr(cohomology, "FiniteComplex", None)
        if hasattr(cls, "is_closed"):
            cls.is_closed = self.span("cohomology.closure", _counting_mults(cls.is_closed, count))
        element = algebra.Element
        element.__init__ = self.counter("algebra.element_inits", element.__init__)
        element.__mul__ = self.counter("algebra.mul_calls", element.__mul__)
        element.__add__ = self.counter("algebra.add_calls", element.__add__)

    @staticmethod
    def _rebind(wrappers) -> None:
        """Point every module-level binding of a wrapped function, and every
        module-level dict entry holding one, at its wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname != "gradedlie" and not modname.startswith("gradedlie."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and item in wrappers:
                            value[key] = wrappers[item]

    def dump(self, path: str) -> dict:
        """Write the spans to `path` and return the header run.py reads."""
        with open(path, "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)
        return {"names": self.names, "marks": self.marks, "spans": len(self.start),
                "file": path, "typecodes": ["d", "d", "l", "l"]}


def _counting(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result
    return wrapper


def _counting_mults(fn, count):
    """Count Fraction products made while fn runs (the dense closure check)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell = [0]
        mul, rmul = Fraction.__mul__, Fraction.__rmul__

        def counted_mul(a, b):
            cell[0] += 1
            return mul(a, b)

        def counted_rmul(a, b):
            cell[0] += 1
            return rmul(a, b)
        Fraction.__mul__, Fraction.__rmul__ = counted_mul, counted_rmul
        try:
            return fn(*args, **kwargs)
        finally:
            Fraction.__mul__, Fraction.__rmul__ = mul, rmul
            count("cohomology.closure_mults", cell[0])
    return wrapper


def read_spans(header: dict):
    """The four span arrays written by `dump`."""
    arrays = [array(code) for code in header["typecodes"]]
    n = header["spans"]
    with open(header["file"], "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return arrays
