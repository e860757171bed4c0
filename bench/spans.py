"""Per-layer spans around lawbench's public functions, from outside.

``install`` wraps the functions and methods named in ``LAYERS`` at run
time and re-binds every module attribute that held the original, so
calls between lawbench modules (``solver`` calling ``extend_lambda``,
``cli`` calling ``member``) go through the wrappers too.  Nothing in
lawbench is edited.

Each call opens a frame on one stack.  On exit its self time is its
duration minus the time its child frames took; since one thread runs
the calls, children never overlap, so this is the span's duration minus
the time its child spans cover.  Spans (name, start, end, parent, job)
are kept in memory and written out by ``write_spans``.  The per-node
layers (rule applications, output algebra, ``Poly`` arithmetic) are
accounted the same way but aggregated instead of recorded one by one.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute, span name); a dotted attribute is a method.
LAYERS = (
    ("cli", "run", "cli.run"),
    ("dsl", "load", "dsl.load"),
    ("dsl", "term_from_string", "dsl.term_from_string"),
    ("terms", "format_term", "terms.format_term"),
    ("terms", "enumerate_terms", "terms.enumerate_terms"),
    ("gsos", "extend_lambda", "gsos.extend_lambda"),
    ("gsos", "apply_rule", "gsos.apply_rule"),
    ("theories", "Theory.normalize", "theories.normalize"),
    ("theories", "Theory.equiv", "theories.equiv"),
    ("theories", "Theory.representative", "theories.representative"),
    ("behaviour", "OutputAlgebra.apply", "behaviour.apply"),
    ("polynomials", "Poly.__add__", "polynomials"),
    ("polynomials", "Poly.__radd__", "polynomials"),
    ("polynomials", "Poly.__mul__", "polynomials"),
    ("polynomials", "Poly.__rmul__", "polynomials"),
    ("polynomials", "Poly.substitute", "polynomials"),
    ("polynomials", "Poly.evaluate", "polynomials"),
    ("solver", "operational_model", "solver.operational_model"),
    ("solver", "stream_prefix", "solver.stream_prefix"),
    ("solver", "unfold", "solver.unfold"),
    ("solver", "induced_algebra_check", "solver.induced_algebra_check"),
    ("solver", "quotient_commute_check", "solver.quotient_commute_check"),
    ("cfg", "to_corec", "cfg.to_corec"),
    ("cfg", "member", "cfg.member"),
    ("cfg", "equiv_upto", "cfg.equiv_upto"),
    ("preservation", "check_preservation", "preservation.check_preservation"),
)
# Called once per term node or per arithmetic step: totals only.
AGGREGATED = {"gsos.apply_rule", "behaviour.apply", "polynomials"}
_KIND = {"commutative-semiring": "commutative",
         "idempotent-semiring": "idempotent", "generic": "generic"}


def _dag_nodes(term) -> int:
    """Distinct nodes of a term dag, by identity."""
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(getattr(t, "args", ()))
    return len(seen)


def _tree_nodes(term) -> int:
    count = 0
    stack = [term]
    while stack:
        t = stack.pop()
        count += 1
        stack.extend(getattr(t, "args", ()))
    return count


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One column per span field.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self._stack: list[list] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- frames ------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        span = parent
        if name not in AGGREGATED:
            ident = self._name_ids.get(name)
            if ident is None:
                ident = self._name_ids[name] = len(self.names)
                self.names.append(name)
            span = len(self.span_name)
            self.span_name.append(ident)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_job.append(self.job)
        # Frame: name, start, seconds spent in children, enclosing span.
        self._stack.append([name, _clock(), 0.0, span])
        if span != parent:
            self.span_start[span] = self._stack[-1][1]

    def exit(self) -> None:
        end = _clock()
        name, start, child, span = self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name not in AGGREGATED:
            self.span_end[span] = end

    def hide(self, seconds: float) -> None:
        """Bookkeeping time spent inside the current frame that belongs to
        no layer: charged to the frame as if a child took it."""
        if self._stack:
            self._stack[-1][2] += seconds

    def job_self_seconds(self) -> float:
        return sum(self.self_seconds.values())

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        """``name`` is the span name, or a function of the call's
        positional arguments that returns it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = _clock()
                before(tracer, args)
                tracer.hide(_clock() - t0)
            tracer.enter(name if not callable(name) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                t0 = _clock()
                after(tracer, args, result)
                tracer.hide(_clock() - t0)
            return result

        return wrapper

    def wrap_generator(self, name: str, counter: str, fn):
        """A generator's work happens in ``next``; time each resumption."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts[counter] += 1
                    yield item

            return resumed()

        return wrapper

    def write_spans(self, path: str) -> None:
        """Tab-separated, gzip-compressed; parent is a row index (-1 at
        the top), times are perf_counter seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")


def _count(key, amount=1):
    def after(tracer, args, result):
        tracer.counts[key] += amount(result) if callable(amount) else amount
    return after


def _normalize_after(tracer, args, result):
    kind = _KIND[args[0].kind]
    tracer.counts[f"theories.normalize.{kind}.calls"] += 1
    size = 0
    if hasattr(result, "poly"):
        size = len(result.poly.terms)
    elif hasattr(result, "words"):
        size = len(result.words)
    tracer.counts["theories.normalize.out_size"] += size


def _equiv_after(tracer, args, result):
    tracer.counts["theories.equiv.calls"] += 1
    if result.value == "unknown":
        tracer.counts["theories.equiv.unknown"] += 1


def _preservation_after(tracer, args, result):
    tracer.counts["preservation.cases"] += len(result.results)
    tracer.counts["preservation.unknown_cases"] += sum(
        r.verdict.value == "unknown" for r in result.results)


def _extend_before(tracer, args):
    tracer.counts["gsos.extend_lambda.dag_nodes"] += _dag_nodes(args[1])


HOOKS = {
    "gsos.extend_lambda": dict(before=_extend_before,
                               after=_count("gsos.extend_lambda.calls")),
    "gsos.apply_rule": dict(after=_count("gsos.apply_rule.calls")),
    "theories.normalize": dict(after=_normalize_after),
    "theories.equiv": dict(after=_equiv_after),
    "theories.representative": dict(
        after=_count("theories.representative.nodes", _tree_nodes)),
    "behaviour.apply": dict(after=_count("behaviour.apply.calls")),
    "polynomials": dict(after=_count("polynomials.ops")),
    "solver.operational_model": dict(after=_count("solver.operational_model.calls")),
    "solver.quotient_commute_check": dict(
        after=_count("solver.quotient_commute_check.pairs", lambda r: r.checked)),
    "cfg.to_corec": dict(after=_count("cfg.to_corec.calls")),
    "dsl.load": dict(after=_count("dsl.load.calls")),
    "preservation.check_preservation": dict(after=_preservation_after),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer and re-bind each name that held an original."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "lawbench" or name.startswith("lawbench.")]
    for module_name, attr, span in LAYERS:
        module = sys.modules[f"lawbench.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            name = span
            if span == "theories.normalize":
                def name(args):
                    return f"theories.normalize.{_KIND[args[0].kind]}"
            setattr(cls, meth, tracer.wrap(name, original, **HOOKS.get(span, {})))
            continue
        original = getattr(module, attr)
        if inspect.isgeneratorfunction(original):
            wrapper = tracer.wrap_generator(span, "terms.enumerate_terms.terms",
                                            original)
        else:
            wrapper = tracer.wrap(span, original, **HOOKS.get(span, {}))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
