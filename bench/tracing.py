"""In-memory tracing of krl's public functions, from outside the package.

:meth:`Tracer.install` wraps the public functions and selected methods
of every krl module and patches each wrapper into every namespace that
holds the function, so calls one module makes into another (such as
``implicative`` calling ``subset_meets``, or ``cli`` calling
``functor_A_obj``) are seen too.  Each wrapper keeps a stack of frames
to split elapsed time into per-layer self time, counts calls, and keeps
a span (name, start, end, parent span, op id) for every call that is
not on a hot path.  A layer is the krl module a function belongs to.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import krl
import krl.aks
import krl.enumerators
import krl.specfile

MODULES = ("order", "implicative", "aks", "bridge", "morphism", "interior",
           "enumerators", "specfile", "report", "cli")

# called per element, pair or subset: counted and timed, but no span
HOT = {
    "order.upward_closure", "aks.perp_left", "aks.perp_right", "aks.imp_sets",
    "aks.app_sets", "aks.bar_closure", "aks.hat_closure", "aks.spec_preorder",
    "aks.app_closure", "specfile.tokenize", "morphism.search_budget",
    "enumerators.monotone_maps", "enumerators.monotone_selfmaps",
    "ExplicitLattice.meet", "ExplicitLattice.join", "ExplicitLattice.meet2",
    "ExplicitLattice.join2", "ImplicativeStructure.imp",
    "ImplicativeStructure.application", "ImplicativeStructure.application_by_definition",
}
SKIP = {"order.bits"}

GROUPS = {
    "order.subset_meets": "order.subset_meets",
    "implicative.validate_structure": "implicative.validate",
    "implicative.validate_algebra": "implicative.validate",
    "implicative.check_adjunction": "implicative.validate",
    "implicative.combinator_i": "implicative.combinators",
    "implicative.combinator_k": "implicative.combinators",
    "implicative.combinator_s": "implicative.combinators",
    "implicative.combinator_cc": "implicative.combinators",
    "implicative.combinator_nu": "implicative.combinators",
    "implicative.separator_closure": "implicative.combinators",
    "bridge.functor_A_obj": "bridge.functor",
    "bridge.functor_K_obj": "bridge.functor",
    "bridge.functor_A_mor": "bridge.functor",
    "bridge.functor_K_mor": "bridge.functor",
    "bridge.transport_density_A": "bridge.functor",
    "bridge.transport_density_K": "bridge.functor",
    "bridge.composite_AK_check": "bridge.composite",
    "bridge.composite_KA_check": "bridge.composite",
    "bridge.check_adjunction_instance": "bridge.adjunction",
    "AdjunctionData.counit_at": "bridge.adjunction",
    "AdjunctionData.unit_at": "bridge.adjunction",
    "morphism.check_applicative": "morphism.applicative",
    "morphism.check_applicative_ia": "morphism.applicative",
    "morphism.check_applicative_aks": "morphism.applicative",
    "morphism.verify_certificate": "morphism.verify",
    "morphism.verify_certificate_ia": "morphism.verify",
    "morphism.verify_certificate_aks": "morphism.verify",
    "interior.validate_interior": "interior.validate",
    "interior.al_approx": "interior.approx",
    "interior.change_implication": "interior.change",
    "interior.density_certificates": "interior.change",
    "enumerators.enumerate_lattices": "enumerators",
    "enumerators.enumerate_implications": "enumerators",
    "enumerators.enumerate_interiors": "enumerators",
    "specfile.parse_spec": "specfile.parse",
    "Workspace.resolve": "specfile.resolve",
    "specfile.emit_spec": "specfile.emit",
    "specfile.document_for": "specfile.emit",
    "Report.render": "report.render",
    "Report.to_json": "report.render",
}

METHODS = (
    (krl.ExplicitLattice, ("meet", "join", "meet2", "join2")),
    (krl.ImplicativeStructure, ("imp", "application", "application_by_definition",
                                "imp_table")),
    (krl.Report, ("render", "to_json")),
    (krl.Workspace, ("add_text", "resolve")),
    (krl.ClosedPart, ("validate",)),
    (krl.AdjunctionData, ("counit_at", "unit_at")),
)

SEARCHES = {"morphism.check_comp_dense", "morphism.check_comp_dense_ia",
            "morphism.check_comp_dense_aks"}


class Tracer:
    def __init__(self):
        self.paused = True
        self.op_id = None
        self.spans: list[list] = []
        self.reset()

    def reset(self):
        """Start the counters of a new pass; spans are kept."""
        self.stack: list[list] = []
        self.self_s = Counter()
        self.group_s = Counter()
        self.active = Counter()
        self.counts = Counter()
        self.distinct_keys: set = set()
        self.alive: dict[int, object] = {}
        self.operators: dict[int, object] = {}

    # ------------------------------------------------------------ wrapping

    def _enter(self, name, group):
        stack = self.stack
        parent = stack[-1][2] if stack else -1
        frame = [time.perf_counter(), 0.0, parent, group]
        if name not in HOT:
            frame[2] = len(self.spans)
            self.spans.append([name, frame[0], None, parent, self.op_id])
        if group:
            self.active[group] += 1
        stack.append(frame)
        return frame

    def _exit(self, frame, name, layer):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        d = end - frame[0]
        self.self_s[layer] += d - frame[1]
        if stack:
            stack[-1][1] += d
        group = frame[3]
        if group:
            self.active[group] -= 1
            if not self.active[group]:
                self.group_s[group] += d
        if name not in HOT:
            self.spans[frame[2]][2] = end
        self.counts[name] += 1

    def _wrap(self, fn, layer, name):
        tracer = self
        group = GROUPS.get(name)
        hook = self.hooks.get(name)
        if name in SEARCHES:
            return self._wrap_search(fn, layer, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name, group)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            frame = tracer._enter(name, group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_search(self, fn, layer, name):
        """check_comp_dense without a hint searches; with one it verifies."""
        tracer = self

        def wrapper(f, hint=None, budget=None):
            if tracer.paused:
                return fn(f, hint, budget)
            group = "morphism.search" if hint is None else None
            outer = group is not None and not tracer.active[group]
            frame = tracer._enter(name, group)
            try:
                found = fn(f, hint, budget)
            finally:
                tracer._exit(frame, name, layer)
            if outer:
                tracer.counts["morphism.search.calls"] += 1
                tracer.counts["morphism.search.found"] += found is not None
            return found
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, layer, name, group):
        tracer = self
        candidates = self.candidates.get(name)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if candidates is not None:
                tracer.counts["enumerators.candidates"] += candidates(*args)
            return traced(fn(*args, **kwargs))

        def traced(gen):
            while True:
                frame = tracer._enter(name, group)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, name, layer)
                if candidates is not None:
                    tracer.counts["enumerators.yielded"] += 1
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        tracer = self
        perp_left = krl.aks.perp_left

        def imp_sets(args):
            aks, p, q = args
            tracer.alive[id(aks)] = aks
            tracer.distinct_keys.add((id(aks), perp_left(aks, p), q))

        def alexandroff(args):
            tracer.operators[id(args[0])] = args[0]

        def parse(args):
            tracer.counts["specfile.bytes_in"] += len(args[0].encode())

        return {"aks.imp_sets": imp_sets, "interior.is_alexandroff": alexandroff,
                "specfile.parse_spec": parse}

    @staticmethod
    def _candidates():
        monotone = krl.enumerators.monotone_selfmaps
        return {
            "enumerators.enumerate_lattices": lambda n: 2 ** (n * (n - 1) // 2),
            "enumerators.enumerate_implications":
                lambda L: sum(1 for _ in monotone(L)) ** L.size,
            "enumerators.enumerate_interiors": lambda L: 2 ** L.size,
        }

    def install(self):
        """Wrap everything once, before any op runs."""
        self.hooks = self._hooks()
        self.candidates = self._candidates()
        modules = [m for key, m in sys.modules.items()
                   if key == "krl" or key.startswith("krl.")]
        for short in MODULES:
            mod = sys.modules[f"krl.{short}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, short, name)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
        for cls, names in METHODS:
            layer = cls.__module__.split(".")[-1]
            for attr in names:
                raw = next(c.__dict__[attr] for c in cls.__mro__ if attr in c.__dict__)
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(fn, layer, f"{cls.__name__}.{attr}")
                setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod)
                        else wrapper)
        self._count_computed_implications()
        self._count_emitted_bytes()
        return self

    def _count_computed_implications(self):
        """Cache misses of ``imp``: calls that reach the implication itself."""
        tracer = self
        cls = krl.ImplicativeStructure
        init = cls.__init__

        def counted_init(st, *args, **kwargs):
            init(st, *args, **kwargs)
            inner = st._imp

            def computed(a, b):
                if not tracer.paused:
                    tracer.counts["implicative.imp.computed"] += 1
                return inner(a, b)
            st._imp = computed
        cls.__init__ = counted_init

    def _count_emitted_bytes(self):
        tracer = self
        emit = krl.specfile.emit_spec

        def counted(doc):
            text = emit(doc)
            if not tracer.paused:
                tracer.counts["specfile.bytes_out"] += len(text.encode())
            return text
        for mod in [m for k, m in sys.modules.items() if k == "krl" or k.startswith("krl.")]:
            for key, value in list(vars(mod).items()):
                if value is emit:
                    setattr(mod, key, counted)

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Per-layer figures of the pass since the last :meth:`reset`."""
        c, g, ms = self.counts, self.group_s, 1000.0
        imp_sets = c["aks.imp_sets"]
        searches = c["morphism.search.calls"]
        operators = len(self.operators)
        return {
            "order.subset_meets.calls": c["order.subset_meets"],
            "order.subset_meets.ms": g["order.subset_meets"] * ms,
            "order.meet.calls": sum(c[f"ExplicitLattice.{m}"]
                                    for m in ("meet", "join", "meet2", "join2")),
            "order.self_ms": self.self_s["order"] * ms,
            "implicative.imp.calls": c["ImplicativeStructure.imp"],
            "implicative.imp.computed": c["implicative.imp.computed"],
            "implicative.app.by_definition":
                c["ImplicativeStructure.application_by_definition"],
            "implicative.validate.ms": g["implicative.validate"] * ms,
            "implicative.combinators.ms": g["implicative.combinators"] * ms,
            "aks.imp_sets.calls": imp_sets,
            "aks.app_sets.calls": c["aks.app_sets"],
            "aks.perp_left.calls": c["aks.perp_left"],
            "aks.self_ms": self.self_s["aks"] * ms,
            "aks.imp_sets.distinct_ratio":
                len(self.distinct_keys) / imp_sets if imp_sets else 0.0,
            "bridge.functor.ms": g["bridge.functor"] * ms,
            "bridge.composite.ms": g["bridge.composite"] * ms,
            "bridge.adjunction.ms": g["bridge.adjunction"] * ms,
            "morphism.applicative.ms": g["morphism.applicative"] * ms,
            "morphism.search.ms": g["morphism.search"] * ms,
            "morphism.verify.ms": g["morphism.verify"] * ms,
            "morphism.search.found_ratio":
                c["morphism.search.found"] / searches if searches else 0.0,
            "interior.validate.ms": g["interior.validate"] * ms,
            "interior.approx.ms": g["interior.approx"] * ms,
            "interior.change.ms": g["interior.change"] * ms,
            "interior.is_alexandroff.calls":
                c["interior.is_alexandroff"] / operators if operators else 0.0,
            "enumerators.ms": g["enumerators"] * ms,
            "enumerators.yield_ratio":
                c["enumerators.yielded"] / c["enumerators.candidates"]
                if c["enumerators.candidates"] else 0.0,
            "specfile.parse.ms": g["specfile.parse"] * ms,
            "specfile.resolve.ms": g["specfile.resolve"] * ms,
            "specfile.emit.ms": g["specfile.emit"] * ms,
            "specfile.bytes_in": c["specfile.bytes_in"],
            "specfile.bytes_out": c["specfile.bytes_out"],
            "report.render.ms": g["report.render"] * ms,
            "cli.self_ms": self.self_s["cli"] * ms,
        }
