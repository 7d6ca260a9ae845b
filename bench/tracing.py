"""Tracing from outside the library: class- and module-level wrappers around
each layer's public entry points, and a counting proxy for group operations.

Nothing here edits ``src/``.  :meth:`Tracer.install` replaces functions and
methods in the loaded ``pseudomv`` modules with timed wrappers and returns a
function that puts the originals back.

Spans have a name, a start, an end and a parent.  Coarse spans (one CLI
operation, a command, a suite such as ``verify``) are kept whole in memory
and written once by :meth:`Tracer.dump`.  Fine spans (group operations, Γ
primitives, derived operations, table primitives, root evaluations) run in
the millions, so each is folded on exit into per-name totals of calls,
inclusive time and self time; the stack still gives each its parent, so
self time is exact.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> owners, "module:function" or "module:Class.method"; strings keep
# this table importable before the library is.
COARSE = {
    "cli.command": ["cli:cmd_analyze", "cli:cmd_search", "cli:cmd_counterexamples",
                    "cli:cmd_ladder", "cli:cmd_quotient"],
    "cli.load": ["cli:load_algebra"],
    "cli.render": ["cli:canonical_json", "cli:render_axioms", "cli:render_root_report",
                   "cli:render_decomposition", "cli:render_numeric_witness", "cli:render_check"],
    "core.check_axioms": ["core:PseudoMV.check_axioms"],
    "core.symmetry": ["core:PseudoMV.symmetry_check"],
    "roots.detect": ["roots:detect_square_root"],
    "roots.verify": ["roots:verify"],
    "roots.decompose": ["roots:decompose"],
    "roots.properties": ["roots:square_root_properties"],
    "roots.ladder": ["roots:dyadic_ladder"],
    "finite.check_axioms": ["finite:FinitePMV.check_axioms"],
    "finite.build": ["finite:build_catalogue"],
    "finite.brute_force": ["finite:brute_force_weak_sqrt"],
    "finite.search": ["finite:search_square_rootable"],
    "ideals.enumerate": ["ideals:enumerate_ideals"],
    "ideals.classify": ["ideals:classify_ideal"],
    "ideals.quotient": ["ideals:quotient"],
    "ideals.representable": ["ideals:is_representable"],
    "ideals.atomless": ["ideals:strongly_atomless_scan"],
    "counterexamples.verdicts": ["counterexamples:scaling_action_verdicts",
                                 "counterexamples:exp_action_verdicts"],
}

#: Derived operations; wrapped on PseudoMV and on every subclass that
#: overrides one (a native ≤ on Γ is still the ≤ layer).
DERIVED = ("odot", "arrow", "snake", "meet", "join", "leq")
FINE = {
    "gamma.prim": [f"lgroups:GammaPMV.{m}" for m in ("oplus", "neg", "tilde", "eq")],
    "finite.table": [f"finite:FinitePMV.{m}" for m in ("oplus", "neg", "tilde", "eq", "_idx")],
    "roots.eval": ["roots:SquareRootMap.__call__"],
}

#: Group operations the proxy counts; ``sub`` is add + neg, and ``eq``,
#: ``leq`` and ``lt`` are one ``cmp``.
GROUP_OPS = ("add", "neg", "cmp", "meet", "join", "halve")


class Tracer:
    """Span stack, per-name totals, coarse span buffer and op counters."""

    def __init__(self):
        self.stack = []          # frames: [name, start, child_time, span_id]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)    # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.spans = []          # (span_id, op_id, name, start, end, parent_id)
        self.op_id = 0
        self.group_ops = defaultdict(int)
        self.gamma_cost = defaultdict(lambda: [0, 0])   # leq/odot on Γ: [calls, ops]
        self.root_seen = set()
        self.root_distinct = 0

    # -- spans -------------------------------------------------------------

    def begin_op(self):
        self.op_id += 1
        self.root_seen = set()

    def _enter(self, name, label):
        span_id = None
        if label is not None:   # holds the label until _exit stores the span
            span_id = len(self.spans)
            self.spans.append(label)
        self.depth[name] += 1
        frame = [name, 0.0, 0.0, span_id]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        name, start, child, span_id = frame
        self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, self.op_id, self.spans[span_id], start, end, parent)

    def span(self, name, fn, coarse=False):
        """``fn`` wrapped in a span of layer ``name``; coarse spans are kept
        whole under the function's own name."""
        enter, exit_ = self._enter, self._exit
        label = fn.__qualname__ if coarse else None

        def wrapper(*args, **kwargs):
            frame = enter(name, label)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name, fn, *args):
        """Run ``fn(*args)`` inside a coarse span."""
        frame = self._enter(name, name)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the library's layers; return a function that undoes it."""
        import pseudomv.cli  # noqa: F401  (loads every module)
        from pseudomv import core, lgroups

        undo = []
        modules = [m for n, m in sys.modules.items() if n == "pseudomv" or n.startswith("pseudomv.")]

        def patch_method(cls, meth, layer, coarse):
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._method_wrapper(layer, meth, orig, coarse))
            undo.append(lambda: setattr(cls, meth, orig))

        def patch(owner, layer, coarse):
            mod_name, attr = owner.split(":")
            mod = sys.modules[f"pseudomv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                patch_method(getattr(mod, cls_name), meth, layer, coarse)
                return
            orig = getattr(mod, attr)
            wrapped = self.span(layer, orig, coarse)
            for m in modules:   # names imported with ``from .x import f`` too
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        undo.append(lambda m=m, key=key: setattr(m, key, orig))

        for layer, owners in COARSE.items():
            for owner in owners:
                patch(owner, layer, True)
        for layer, owners in FINE.items():
            for owner in owners:
                patch(owner, layer, False)
        classes = [core.PseudoMV]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in dict.fromkeys(classes):
            for meth in DERIVED:
                if meth in cls.__dict__:
                    patch_method(cls, meth, "core.derived", False)

        # the counting proxy goes in after each Γ algebra is built
        init = lgroups.GammaPMV.__init__
        tracer = self

        def gamma_init(algebra, *args, **kwargs):
            init(algebra, *args, **kwargs)
            algebra.group = CountingGroup(algebra.group, tracer)

        lgroups.GammaPMV.__init__ = gamma_init
        undo.append(lambda: setattr(lgroups.GammaPMV, "__init__", init))

        def uninstall():
            for fn in reversed(undo):
                fn()

        return uninstall

    def _method_wrapper(self, layer, meth, orig, coarse):
        wrapped = self.span(layer, orig, coarse)
        if layer == "core.derived" and meth in ("leq", "odot"):
            return self._gamma_cost_wrapper(meth, wrapped)
        if layer == "roots.eval":
            return self._root_eval_wrapper(wrapped)
        return wrapped

    def _gamma_cost_wrapper(self, meth, wrapped):
        from pseudomv.lgroups import GammaPMV

        ops, cost = self.group_ops, self.gamma_cost[meth]
        active = [False]    # count the outermost call only

        def wrapper(algebra, *args):
            if active[0] or not isinstance(algebra, GammaPMV):
                return wrapped(algebra, *args)
            active[0] = True
            before = ops["total"]
            try:
                return wrapped(algebra, *args)
            finally:
                active[0] = False
                cost[0] += 1
                cost[1] += ops["total"] - before

        return wrapper

    def _root_eval_wrapper(self, wrapped):
        tracer = self

        def wrapper(root, x):
            key = (root, x)   # holding the map keeps its identity unique for the op
            try:
                new = key not in tracer.root_seen
                if new:
                    tracer.root_seen.add(key)
            except TypeError:    # unhashable point: count as distinct
                new = True
            tracer.root_distinct += new
            return wrapped(root, x)

        return wrapper

    # -- results -----------------------------------------------------------

    def dump(self, path, extra):
        data = {
            "spans": [dict(zip(("id", "op", "name", "start", "end", "parent"), s))
                      for s in self.spans if isinstance(s, tuple)],
            "layers": {name: {"calls": self.calls[name], "inclusive_s": self.incl[name],
                              "self_s": self.self_time[name]} for name in sorted(self.calls)},
            "group_ops": dict(self.group_ops),
            **extra,
        }
        path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")


class CountingGroup:
    """Stands in for ``GammaPMV.group``: counts and times each top-level
    group operation, forwarding to the real group.  Calls the real group
    makes to its own factors stay uncounted."""

    def __init__(self, group, tracer):
        self._group = group
        ops = tracer.group_ops
        for op in GROUP_OPS:
            setattr(self, op, self._counted(op, tracer.span("lgroups.op", getattr(group, op)), ops))
        self.sample_interval = tracer.span("lgroups.sample", group.sample_interval)

    @staticmethod
    def _counted(op, fn, ops):
        def call(*args):
            ops[op] += 1
            ops["total"] += 1
            return fn(*args)
        return call

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return self.cmp(a, b) == 0

    def leq(self, a, b):
        c = self.cmp(a, b)
        return c is not None and c <= 0

    def lt(self, a, b):
        c = self.cmp(a, b)
        return c is not None and c < 0

    def __getattr__(self, name):
        return getattr(self._group, name)
