"""Outside-in layer tracing for the pvakit benchmark.

A Tracer wraps public functions and methods of the ``pvakit`` modules
without changing them: a module-level function is re-bound in every
``pvakit.*`` namespace that imported it by name, a method is replaced on
its class.  Every wrapped call pushes a frame on an in-memory stack, so the
tracer knows each call's parent and can compute self time (a call's
duration minus the time of the wrapped calls it made).

Coarse calls are kept as spans (name, start, end, parent span, op id) and
can be written out at the end.  The arithmetic of ``fields`` and the
multiplication and addition of ``algebra`` run hundreds of thousands of
times per hierarchy, so those are aggregated (calls, time, self time) but
not kept as spans.  ``restore()`` puts every original object back.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, owner, attribute, hot): owner is a module name below ``pvakit``
# for functions, or "module:Class" for methods.
TARGETS = [
    ("parsing", "parsing", "parse_expression", False),
    ("parsing", "parsing", "parse_operator", False),
    ("parsing", "parsing", "parse_operator_entry", False),
    ("hierarchies", "hierarchies", "generate", False),
    ("hierarchies", "hierarchies", "golden_verify", False),
    ("lenard", "lenard", "lenard_extend", False),
    ("lenard", "lenard", "verify_sequence", False),
    ("lenard", "lenard", "make_plan", False),
    ("varcalc", "varcalc", "variational_derivative", False),
    ("varcalc", "varcalc", "integrate_total", False),
    ("varcalc", "varcalc", "exactify", False),
    ("varcalc", "varcalc", "is_closed", False),
    ("varcalc", "varcalc", "frechet", False),
    ("varcalc", "varcalc", "antiderivative", False),
    ("varcalc", "varcalc", "euler_operator", False),
    ("varcalc", "varcalc:LocalFunctional", "compare", False),
    ("varcalc", "varcalc:LocalFunctional", "is_zero", False),
    ("brackets", "brackets", "lambda_bracket", False),
    ("brackets", "brackets", "jacobi_triple_residual", False),
    ("brackets", "brackets", "symplectic_triple_residual", False),
    ("brackets", "brackets", "check_pva", False),
    ("brackets", "brackets", "check_compatible", False),
    ("brackets", "brackets", "check_symplectic", False),
    ("brackets", "brackets", "functional_bracket", False),
    ("brackets", "brackets", "two_form_from_potential", False),
    ("brackets", "brackets", "skew_image", False),
    ("operators", "operators:MatrixDiffOp", "apply", False),
    ("operators", "operators:MatrixDiffOp", "adjoint", False),
    ("operators", "operators:MatrixDiffOp", "compose", False),
    ("operators", "operators:LambdaPoly", "shift_apply", False),
    ("operators", "operators:LambdaPoly", "subst_neg_shift", False),
    ("operators", "operators:LambdaPoly", "op_apply", False),
    ("operators", "operators:BiLambdaPoly", "shift_both_neg", False),
    ("operators", "operators:BiLambdaPoly", "op_apply_both", False),
    ("algebra", "algebra:Expression", "total_derivative", False),
    ("algebra", "algebra:Expression", "partial", True),
    ("algebra", "algebra:Expression", "__mul__", True),
    ("algebra", "algebra:Expression", "__add__", True),
    ("fields", "fields:Coefficient", "__add__", True),
    ("fields", "fields:Coefficient", "__mul__", True),
    ("fields", "fields:Coefficient", "__truediv__", True),
    ("fields", "fields:Coefficient", "scale", True),
]

# spans kept in memory at most; calls beyond it are still aggregated
KEEP_SPANS = 200_000


def _target_name(owner, attr):
    """Name of a target: Class.method for a method, else the function name."""
    cls_name = owner.partition(":")[2]
    return "%s.%s" % (cls_name, attr) if cls_name else attr


class Tracer:
    """Wraps pvakit entry points; aggregates calls and times per name."""

    def __init__(self):
        self._stack = []  # frames: [child_time, name, layer, span index]
        self._patches = []  # (owner object, attribute, original)
        self.stats = {}  # name -> [calls, inclusive s, self s, outer-layer s]
        self.edges = {}  # (parent name, name) -> [calls, inclusive s]
        self.spans = []  # [name, start, end, parent span index, op id]
        self.recording = False
        self.op_id = None

    # -- installing ---------------------------------------------------------

    def install(self, cli_main):
        """Wrap every target; return the wrapped CLI entry point."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "pvakit" or name.startswith("pvakit.")
        }
        for layer, owner, attr, hot in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            home = modules["pvakit." + mod_name]
            name = _target_name(owner, attr)
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self.wrap(name, layer, original, hot))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, layer, original, hot)
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapped)
        return self.wrap("main", "cli", cli_main, False)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.stats.clear()
        self.edges.clear()

    # -- the wrapper ----------------------------------------------------------

    def wrap(self, name, layer, fn, hot):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = parent[3] if parent is not None else None
            if not hot and tracer.recording and len(spans) < KEEP_SPANS:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent[3] if parent else None,
                              tracer.op_id])
            frame = [0.0, name, layer, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0, 0.0]
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if parent is None or parent[2] != layer:
                    st[3] += d
                if parent is not None:
                    parent[0] += d
                    if not hot:
                        key = (parent[1], name)
                        ed = edges.get(key)
                        if ed is None:
                            ed = edges[key] = [0, 0.0]
                        ed[0] += 1
                        ed[1] += d
                if span is not None and (parent is None or span != parent[3]):
                    spans[span][1] = t0
                    spans[span][2] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- reading --------------------------------------------------------------

    def _get(self, name, field):
        st = self.stats.get(name)
        return st[field] if st else 0

    def calls(self, *names):
        return sum(self._get(n, 0) for n in names)

    def inclusive(self, *names):
        return sum(self._get(n, 1) for n in names)

    def edge(self, parents, names):
        return sum(
            ed[1] for (p, n), ed in self.edges.items()
            if p in parents and n in names
        )

    def edge_calls(self, parents, names):
        return sum(
            ed[0] for (p, n), ed in self.edges.items()
            if p in parents and n in names
        )

    def layer_self(self, layer):
        names = self._layer_names(layer)
        return sum(self._get(n, 2) for n in names)

    def layer_busy(self, layer):
        names = self._layer_names(layer)
        return sum(self._get(n, 3) for n in names)

    def _layer_names(self, layer):
        if layer == "cli":
            return ["main"]
        return [_target_name(o, a) for lay, o, a, _ in TARGETS if lay == layer]

    def layer_metrics(self):
        """Per-layer metrics of everything traced since the last reset."""
        lenard_parent = {"lenard_extend"}
        verify_parent = {"verify_sequence"}
        return {
            "cli.calls": self.calls("main"),
            "cli.self_s": self.layer_self("cli"),
            "parsing.calls": self.calls(*self._layer_names("parsing")),
            "parsing.busy_s": self.layer_busy("parsing"),
            "hierarchies.generate_calls": self.calls("generate"),
            "hierarchies.generate_s": self.inclusive("generate"),
            "hierarchies.golden_self_s": self._get("golden_verify", 2),
            "lenard.extend_s": self.inclusive("lenard_extend"),
            "lenard.attach_s": self.edge(lenard_parent, {"exactify", "is_closed"}),
            "lenard.verify_s": self.inclusive("verify_sequence"),
            "lenard.pairings": self.edge_calls(verify_parent, {"LocalFunctional.is_zero"}),
            "varcalc.vder_calls": self.calls("variational_derivative"),
            "varcalc.vder_s": self.inclusive("variational_derivative"),
            "varcalc.integrate_calls": self.calls("integrate_total"),
            "varcalc.integrate_s": self.inclusive("integrate_total"),
            "varcalc.compare_calls": self.calls("LocalFunctional.compare"),
            "varcalc.compare_s": self.inclusive("LocalFunctional.compare"),
            "varcalc.exactify_s": self.inclusive("exactify"),
            "varcalc.closed_s": self.inclusive("is_closed"),
            "varcalc.self_s": self.layer_self("varcalc"),
            "brackets.lambda_calls": self.calls("lambda_bracket"),
            "brackets.lambda_s": self.inclusive("lambda_bracket"),
            "brackets.triples": self.calls(
                "jacobi_triple_residual", "symplectic_triple_residual"),
            "brackets.triple_s": self.inclusive(
                "jacobi_triple_residual", "symplectic_triple_residual"),
            "brackets.self_s": self.layer_self("brackets"),
            "operators.apply_s": self.inclusive("MatrixDiffOp.apply"),
            "operators.adjoint_s": self.inclusive("MatrixDiffOp.adjoint"),
            "operators.compose_s": self.inclusive("MatrixDiffOp.compose"),
            "operators.shift_calls": self.calls(
                "LambdaPoly.shift_apply", "LambdaPoly.subst_neg_shift",
                "BiLambdaPoly.shift_both_neg"),
            "operators.self_s": self.layer_self("operators"),
            "algebra.total_derivative_calls": self.calls("Expression.total_derivative"),
            "algebra.total_derivative_s": self.inclusive("Expression.total_derivative"),
            "algebra.mul_calls": self.calls("Expression.__mul__"),
            "algebra.self_s": self.layer_self("algebra"),
            "fields.add_calls": self.calls("Coefficient.__add__"),
            "fields.mul_calls": self.calls("Coefficient.__mul__"),
            "fields.self_s": self.layer_self("fields"),
        }

    def write_spans(self, path):
        """Write the kept spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op,
                }) + "\n")
