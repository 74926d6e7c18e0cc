"""Morphism checkers and certificate search for both categories.

A morphism is a carrier map; being applicative or computationally dense
is certified by finite witnesses: a uniform applicativity realizer, a
monotone section-like table on the target separator, and a uniform
density realizer.  Applicativity has one checker, whose clauses differ
by kind.  Where the adjunction between application and implication
allows, the realizers are read off a bound instead of trying candidates:
a structure map into a powerset algebra A(Y) takes the least separator
element below the meet of every f(s) -> f(a) -> f(sa), computed once
per map, which also decides whether a given r is uniform (into other
algebras each candidate is tried), and a carrier map intersects one
perp_left per perp class of its targets, not one per pair of source
subsets.  Density has one verifier and one search for both kinds:
each reads the kind-specific data from ``_density`` (the separators,
the lattices of the table, what a realizer must be and how witnesses
are named), so a certificate is checked search-free by the same seven
clauses for structure maps and for carrier maps.  The separators, in
ascending order, are plain data built once per map
(``MorphismSpec.separators``); no cached value holds a closure over its
map.  The monotone-table search runs greedily along a linear extension
with backtracking, so a missing certificate is a definitive negative
while an exhausted budget is reported as its own outcome.
"""

from __future__ import annotations

import os
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import partial

from . import aks as aksmod
from .aks import AbstractKrivineStructure
from .errors import ComposabilityError, KrlError, SearchBudgetExceeded, VerificationFailed
from .lazy import lazy
from .order import PowersetLattice, bits, unpreserved_meet
from .report import Report

DEFAULT_SEARCH_BUDGET = 500_000


def search_budget() -> int:
    value = os.environ.get("KRL_SEARCH_BUDGET")
    if not value:
        return DEFAULT_SEARCH_BUDGET
    try:
        return int(value)
    except ValueError:
        raise KrlError(f"KRL_SEARCH_BUDGET must be an integer, got '{value}'") from None


@dataclass(frozen=True)
class MorphismSpec:
    kind: str                      # "ia" or "aks"
    source: object
    target: object
    carrier: tuple[int, ...]
    name: str = "f"

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(self.carrier))
        # the r that the applicativity verdict has shown uniform, kept by
        # verdict; none until then (see verify_certificate)
        object.__setattr__(self, "uniform_realizers", frozenset())

    @lazy
    def verdict(self) -> Report:
        """The report of :func:`check_applicative`, computed once per map,
        which also keeps the realizers it shows uniform.  Read it, do not
        change it: the checkers hand out copies."""
        rep, realizers = (_applicative_ia if self.kind == "ia" else _applicative_aks)(self)
        object.__setattr__(self, "uniform_realizers", realizers)
        return rep

    @lazy
    def uniform_bound(self) -> int | None:
        """On a structure map into a powerset algebra A(Y), the meet M of
        every f(s) -> f(a) -> f(sa), s in the source separator; None on any
        other map.  Application on A(Y) is left adjoint to implication
        (``PowersetStructure.adjoint``), so r f(s) f(a) <= f(sa) exactly
        when r <= f(s) -> f(a) -> f(sa): r is uniform exactly when r <= M.
        Each term reads a only through the application column x -> x a of
        the source and the row of f(a) in the target, so a runs over one
        representative per pair of classes.

        An implication reads its first argument only through its row, so
        through its class, whose representative stands for it.  The guard's
        passing verdict holds ``imp.meet-commutation``: each row u -> .
        commutes with every meet, on A(Y) a union.  So the terms with f(a)
        in one class x and f(s) in one class u meet to u -> (x -> W), W the
        union of their f(sa), and the terms with f(s) in u to u -> Z, Z the
        union of those x -> W: one implication per pair of classes (u, x)
        and one per u, however many s and a share them."""
        A, B, c = self.source, self.target, self.carrier
        if not (self.kind == "ia" and isinstance(B.lattice, PowersetLattice)
                and B.structure.verdict.ok and B.structure.adjoint):
            return None
        classes = B.structure.classes
        reps = {}
        for a in A.lattice.elements():
            reps.setdefault((A.structure.classes[a], classes[c[a]]), a)
        # the class of f(s), to the class of f(a), to the union of the f(sa)
        inner = defaultdict(partial(defaultdict, int))
        for s in A.separator:
            group = inner[classes[c[s]]]
            for a in reps.values():
                group[classes[c[a]]] |= c[A.application(s, a)]
        meet = B.lattice.meet
        return meet([B.imp(u, meet([B.imp(x, y) for x, y in group.items()]))
                     for u, group in inner.items()])

    @lazy
    def separators(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The target and source separators on which a density table lives
        (``table_lattices``), in ascending order: elements for a structure
        map, masks for a carrier map."""
        if self.kind == "ia":
            return tuple(sorted(self.target.separator)), tuple(sorted(self.source.separator))
        return self.target.separator_masks, self.source.separator_masks

    def __call__(self, x: int) -> int:
        return self.carrier[x]

    def image_mask(self, mask: int) -> int:
        return self.images[mask]

    @lazy
    def images(self) -> tuple[int, ...]:
        """The image of every source mask of a carrier map, each one union
        away from the mask without its lowest point."""
        out = [0]
        for p in range(1, 1 << len(self.carrier)):
            low = p & -p
            out.append(out[p ^ low] | 1 << self.carrier[low.bit_length() - 1])
        return tuple(out)


@dataclass(frozen=True)
class DensityCertificate:
    """Self-contained proof data for a computationally dense morphism.

    ``t`` is the uniform density realizer, ``h`` the monotone table on
    the target separator (stored as sorted pairs), and ``r`` the
    applicativity realizer.  For structure maps all three live in the
    target carrier; for carrier maps between Krivine structures ``t``
    and ``r`` are quasi-proof elements and ``h`` maps separator subsets
    to separator subsets.
    """

    t: int
    h: tuple[tuple[int, int], ...]
    r: int | None = None

    @property
    def h_map(self) -> dict[int, int]:
        return dict(self.h)

    @staticmethod
    def make(t, h_mapping, r=None) -> "DensityCertificate":
        return DensityCertificate(t, tuple(sorted(h_mapping.items())), r)


def identity_morphism(obj, kind: str, name: str = "id") -> MorphismSpec:
    size = obj.lattice.size if kind == "ia" else obj.pi_size
    return MorphismSpec(kind, obj, obj, tuple(range(size)), name)


# ---------------------------------------------------------------- IA side


def _order_failures(source, target) -> tuple:
    """The failed ``order.*`` clauses of the source and target lattices,
    each lattice listed once.  A structure map between orders that fail
    their check is reported by these alone, as
    :func:`~krl.implicative.validate_algebra` does, since no meet exists
    there."""
    failures = source.order_failures
    if target.order_failures and target != source:
        failures += target.order_failures
    return failures


def _applicative_ia(f: MorphismSpec) -> tuple[Report, frozenset]:
    """The body of :func:`check_applicative` on a structure map, and the
    realizers it shows uniform."""
    A, B = f.source, f.target
    rep = Report(f"applicative({f.name})", list(_order_failures(A.lattice, B.lattice)))
    if rep.checks:
        return rep, frozenset()

    witness = next((A.lattice.name(s) for s in sorted(A.separator)
                    if f(s) not in B.separator), None)
    rep.check("morphism.separator-preservation", witness is None, witness)

    witness = unpreserved_meet(A.lattice, B.lattice, f.carrier)
    rep.check("morphism.meet-preservation", witness is None, witness)

    if not rep.ok:
        return rep, frozenset()
    realizer = _applicative_realizer(f)
    rep.check("morphism.uniform-realizer", realizer is not None,
              None if realizer is not None else "no r in the target separator works")
    rep.data["realizer"] = realizer
    return rep, frozenset(() if realizer is None else (realizer,))


def _applicative_realizer(f: MorphismSpec) -> int | None:
    """Least r in the target separator with r f(s) f(a) <= f(sa).  Into a
    powerset algebra that is the least r below f's uniform bound
    (``MorphismSpec.uniform_bound``); into other algebras each candidate r
    is tried against every (s, a)."""
    A, B = f.source, f.target
    lb = B.lattice
    bound = f.uniform_bound
    if bound is not None:
        return next((r for r in sorted(B.separator) if lb.leq(r, bound)), None)
    c = f.carrier
    pairs = [(c[s], c[a], c[A.application(s, a)])
             for s in sorted(A.separator) for a in A.lattice.elements()]
    for r in sorted(B.separator):
        if all(lb.leq(B.apply_chain(r, fs, fa), fsa) for fs, fa, fsa in pairs):
            return r
    return None


# --------------------------------------------------------------- AKS side


def _family_keys(f: MorphismSpec) -> dict[tuple[int, int], int]:
    """The least P' of each key (perp_left(P'), perp_left(f P')), by key,
    in the order of those P'."""
    lefts_b, images = f.target.perp_lefts, f.images
    keys: dict[tuple[int, int], int] = {}
    for p2, left in enumerate(f.source.perp_lefts):
        keys.setdefault((left, lefts_b[images[p2]]), p2)
    return keys


def _uniform_family(f: MorphismSpec):
    """Yield (P', P, realizers) for the pairs of source subsets whose
    implication P' -> P lies in the source separator, in scan order;
    ``realizers`` are the target terms orthogonal to
    f(P' -> P) -> f(P') -> f(P).

    Both implications read P' only through its perp class
    (perp_left(P'), perp_left(f P')), so only the least P' of each class
    is scanned (``_family_keys``).  The realizers and the first pair a
    given term fails are those of the full scan: a P' that fails at P
    shares its realizers with the least member of its class, which comes
    earlier."""
    A: AbstractKrivineStructure = f.source
    B: AbstractKrivineStructure = f.target
    sep_a = set(A.separator_masks)
    for p2 in _family_keys(f).values():
        fp2 = f.image_mask(p2)
        for p in range(1 << A.pi_size):
            src_imp = aksmod.imp_sets(A, p2, p)
            if src_imp not in sep_a:
                continue
            tgt = aksmod.imp_sets(
                B, f.image_mask(src_imp), aksmod.imp_sets(B, fp2, f.image_mask(p)))
            yield p2, p, B.perp_lefts[tgt]


def _uniform_fold(f: MorphismSpec) -> tuple[int, bool]:
    """The quasi-proofs of the target that realize every member of
    ``_uniform_family``, and whether the family has a member.

    For each key of the family (``_family_keys``), a pass over the subsets
    P builds P' -> P and f(P') -> f(P) by one union each from P without
    its lowest point, as ``imp_sets`` is a union over the points of its
    second subset and f(P) the union of the images of P's points.  The
    realizers of (P', P) are perp_left of f(P' -> P) -> f(P') -> f(P),
    where the outer implication reads its first subset only through its
    perp class c.  Grouping the pairs by c and joining their inner subsets
    into Z_c, the union property and perp_left(U | V) = perp_left(U) &
    perp_left(V) make the intersection over the family the intersection
    over c of perp_left(c -> Z_c): one implication per class, not per
    pair."""
    A: AbstractKrivineStructure = f.source
    B: AbstractKrivineStructure = f.target
    sep_a = set(A.separator_masks)
    images, carrier = f.images, f.carrier
    size = 1 << A.pi_size
    inner_by_src: dict[int, int] = {}  # P' -> P, to the union of its f(P') -> f(P)
    for class_a, class_b in _family_keys(f):
        src_points, inner_points = aksmod.class_table(A, class_a), aksmod.class_table(B, class_b)
        src, inner = [0] * size, [0] * size
        for p in range(1, size):
            low = p & -p
            i, rest = low.bit_length() - 1, p ^ low
            e = src[p] = src[rest] | src_points[i]
            inner[p] = inner[rest] | inner_points[carrier[i]]
            inner_by_src[e] = inner_by_src.get(e, 0) | inner[p]
    lefts_b = B.perp_lefts
    inner_by_class: dict[int, int] = {}
    for e, z in inner_by_src.items():
        if e in sep_a:
            c = lefts_b[images[e]]
            inner_by_class[c] = inner_by_class.get(c, 0) | z
    acc = B.qp
    for c, z in inner_by_class.items():
        acc &= lefts_b[aksmod.union_over(aksmod.class_table(B, c), z)]
    # P = {} gives P' -> P = {}, in the separator when QP is nonempty, and
    # realized by every term
    return acc, 0 in sep_a or bool(inner_by_class)


def _applicative_aks(f: MorphismSpec) -> tuple[Report, frozenset]:
    """The body of :func:`check_applicative` on a carrier map, and the
    realizers it shows uniform, folded per perp class (``_uniform_fold``)."""
    A: AbstractKrivineStructure = f.source
    B: AbstractKrivineStructure = f.target
    rep = Report(f"applicative({f.name})")

    sep_b = set(B.separator_masks)
    witness = next((A.name_mask(p) for p in A.separator_masks
                    if f.image_mask(p) not in sep_b), None)
    rep.check("morphism.quasi-proof-preservation", witness is None, witness)

    acc, indexed = _uniform_fold(f)
    rep.check("morphism.uniform-realizer", bool(acc),
              None if acc else "empty intersection")
    if not indexed:
        # no implication lands in the separator: the intersection is the
        # whole target carrier and the clause reduces to QP' nonempty
        rep.flag("empty-index-family", True)
    rep.data["realizer"] = min(bits(acc)) if acc else None
    return rep, frozenset(bits(acc))


# ------------------------------------------------------------- shared api


def verify_certificate(f: MorphismSpec, cert: DensityCertificate) -> Report:
    """Search-free validation; certificates are self-contained proofs.
    The clauses are the same for both kinds, and what they test and how
    they name a witness comes from ``_density``.

    ``cert.r-uniform`` is read off f's applicativity verdict when that has
    been computed and shows r uniform: on a structure map r is the least
    realizer it found, which passed the same test on every (s, a); on a
    carrier map r lies in the intersection it folded over the whole
    family, so r realizes every member.  Otherwise, on a structure map into
    a powerset algebra, r is uniform exactly when it lies below f's bound
    (``MorphismSpec.uniform_bound``); elsewhere the scan decides.  The scan
    runs to name the first failure.  Orders that fail their check get
    only their failed ``order.*`` clauses, as in :func:`check_applicative`."""
    d = _density(f)
    lt, ls = d.target, d.source
    rep = Report(f"certificate({f.name})", list(_order_failures(ls, lt)))
    if rep.checks:
        return rep
    h = cert.h_map

    ok = cert.t in d.realizers
    rep.check(f"cert.t-{d.word}", ok, None if ok else d.name(cert.t))
    ok = cert.r in d.realizers
    rep.check(f"cert.r-{d.word}", ok,
              None if ok else "missing" if cert.r is None else d.name(cert.r))
    if cert.r is not None:
        witness = (None if cert.r in f.uniform_realizers
                   else next(d.uniform_failures(cert.r), None))
        rep.check("cert.r-uniform", witness is None, witness)

    missing = [b for b in d.sep_b if b not in h]
    rep.check("cert.h-total", not missing, d.name_list(missing) if missing else None)
    sep_a = set(d.sep_a)
    stray = sorted(b for b in h if h[b] not in sep_a)
    rep.check("cert.h-into-source-separator", not stray,
              d.name_list(stray) if stray else None)
    witness = next((f"({lt.name(b1)} <= {lt.name(b2)})" for b1 in h for b2 in h
                    if lt.leq(b1, b2) and not ls.leq(h[b1], h[b2])), None)
    rep.check("cert.h-monotone", witness is None, witness)
    if not missing:
        witness = next((lt.name(b) for b in d.sep_b if not d.dense(cert.t, h[b], b)), None)
        rep.check("cert.density", witness is None, witness)
    return rep


def check_applicative(f: MorphismSpec) -> Report:
    """Whether f is applicative.  A structure map must preserve the
    separator and meets exactly, and some r in the target separator must
    satisfy r f(s) f(a) <= f(sa).  A carrier map must keep quasi-proof
    subsets, and some target term must be orthogonal to
    f(P' -> P) -> f(P') -> f(P) whenever P' -> P is in the source
    separator.  The least such realizer, None if there is none, is stored
    under ``data['realizer']``, on a structure map only once both
    preservation clauses pass.  The report is computed once per map
    (``MorphismSpec.verdict``); each call returns a copy."""
    return f.verdict.copy()


def check_comp_dense(f: MorphismSpec, hint: DensityCertificate | None = None,
                     budget: int | None = None) -> DensityCertificate | None:
    """A density certificate, or None when f is not applicative or has
    none.  A hint is verified search-free instead (``bench/tracing.py``
    passes the slot positionally)."""
    if hint is not None:
        return hint if verify_certificate(f, hint).ok else None
    # read first: a bad budget is an error also on a map that is not applicative
    budget = budget if budget is not None else search_budget()
    rep = f.verdict
    return search_certificate(f, rep.data["realizer"], budget) if rep.ok else None


def search_certificate(f: MorphismSpec, r: int | None, budget: int | None = None
                       ) -> DensityCertificate | None:
    """Try every candidate density realizer against a monotone table
    search, for an applicative f with realizer r; None is definitive."""
    budget = budget if budget is not None else search_budget()
    d = _density(f)
    leq_b, leq_a = d.target.leq, d.source.leq
    sep_b = _sorted_by_height(d.sep_b, leq_b)
    sep_a = _sorted_by_height(d.sep_a, leq_a)
    for t in sorted(d.realizers):
        table = _monotone_table_search(sep_b, sep_a, leq_b, leq_a,
                                       partial(d.dense, t), budget)
        if table is not None:
            return DensityCertificate.make(t, table, r)
    return None


def table_lattices(f: MorphismSpec):
    """The lattices of f's target and source on which a density table
    lives: the algebras' own for structure maps, and the powerset of each
    carrier under reverse inclusion for carrier maps, whose separators are
    sets of subsets."""
    if f.kind == "ia":
        return f.target.lattice, f.source.lattice
    return f.target.powerset, f.source.powerset


# the lattices of the table (``table_lattices``), the target and source
# separators in ascending order, the set the realizers t and r must lie
# in, the test dense(t, s, b) that t realizes f(s) -> b, the clause word
# for a realizer in that set, the namers of a realizer and of a list of
# target separator elements, and uniform_failures(r), the witnesses of
# r failing uniformity in scan order
_Density = namedtuple("_Density", "target source sep_b sep_a realizers dense "
                                  "word name name_list uniform_failures")


def _density(f: MorphismSpec) -> _Density:
    """The kind-specific data of computational density.  For structure
    maps the separators are sets of elements under the lattice order, t
    and r are separator elements, and t realizes when t f(s) <= b; for
    carrier maps they are separator masks under reverse inclusion, t and
    r are quasi-proofs, and t realizes when t is orthogonal to
    f(S) -> B."""
    A, B = f.source, f.target
    lt, ls = table_lattices(f)
    sep_b, sep_a = f.separators
    if f.kind == "ia":
        def dense(t, s, b):
            return lt.leq(B.application(t, f(s)), b)

        def uniform_failures(r):
            # r below the bound is uniform; the scan runs only to name a failure
            bound = f.uniform_bound
            if bound is not None and lt.leq(r, bound):
                return iter(())
            return (f"(s={ls.name(s)}, a={ls.name(a)})"
                    for s in sorted(A.separator) for a in ls.elements()
                    if not lt.leq(B.apply_chain(r, f(s), f(a)), f(A.application(s, a))))
        return _Density(lt, ls, sep_b, sep_a, B.separator,
                        dense, "in-separator", lt.name, lt.name_set, uniform_failures)

    def dense(t, s, b):
        return B.perp_lefts[aksmod.imp_sets(B, f.image_mask(s), b)] >> t & 1

    def uniform_failures(r):
        return (f"(P'={ls.name(p2)}, P={ls.name(p)})"
                for p2, p, realizers in _uniform_family(f) if not realizers >> r & 1)
    return _Density(lt, ls, sep_b, sep_a,
                    frozenset(bits(B.qp)), dense, "is-quasi-proof", B.name,
                    lambda masks: lt.name(masks[0]), uniform_failures)


def _monotone_table_search(sep_b, sep_a, leq_b, leq_a, admissible, budget):
    """Greedy monotone selection along a linear extension with backtracking.

    ``sep_b`` must be topologically sorted (minimal first).  Candidates
    are tried least-first; the node budget caps assignment attempts.
    """
    order = list(sep_b)
    assignment: dict[int, int] = {}
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(order):
            return True
        b = order[i]
        below = [assignment[b2] for b2 in order[:i] if leq_b(b2, b)]
        for s in sep_a:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            if not admissible(s, b):
                continue
            if any(not leq_a(lo, s) for lo in below):
                continue
            assignment[b] = s
            if extend(i + 1):
                return True
            del assignment[b]
        return False

    try:
        found = extend(0)
    finally:
        # extend refers to itself; without this the cycle would keep f and
        # its structures, with their verdicts, alive until a collection
        del extend
    return dict(assignment) if found else None


def _sorted_by_height(elems, leq):
    def height(x):
        return sum(1 for y in elems if leq(y, x) and y != x)
    return sorted(elems, key=lambda x: (height(x), x))


def compose(f: MorphismSpec, g: MorphismSpec,
            cf: DensityCertificate | None = None,
            cg: DensityCertificate | None = None):
    """Compose carrier maps (f first, then g) and, when both certificates
    are present, their witnesses: the section tables compose while the
    uniform realizers are re-searched exhaustively and the result is
    re-verified."""
    if f.kind != g.kind:
        raise ComposabilityError(f"cannot compose a {f.kind} morphism with a {g.kind} one")
    tgt_size = f.target.lattice.size if f.kind == "ia" else f.target.pi_size
    if tgt_size != len(g.carrier):
        raise ComposabilityError(
            f"target of {f.name} does not match source of {g.name}")
    carrier = tuple(g(f(x)) for x in range(len(f.carrier)))
    gf = MorphismSpec(f.kind, f.source, g.target, carrier, f"{g.name}.{f.name}")
    if cf is None or cg is None:
        return gf, None
    hf, hg = cf.h_map, cg.h_map
    uncovered = next((hg[c] for c in hg if hg[c] not in hf), None)
    if uncovered is not None:
        raise ComposabilityError(
            f"the table of {g.name} reaches {table_lattices(f)[0].name(uncovered)}, "
            f"which the table of {f.name} does not cover")
    h = {c: hf[hg[c]] for c in hg}
    cert = _complete_composed_certificate(gf, h)
    if cert is None:
        raise VerificationFailed(
            f"composed section table for {gf.name} admits no uniform realizer")
    return gf, cert


def _complete_composed_certificate(gf: MorphismSpec, h: dict) -> DensityCertificate | None:
    rep = check_applicative(gf)
    if not rep.ok:
        return None
    d = _density(gf)
    t = next((t for t in sorted(d.realizers) if all(d.dense(t, h[b], b) for b in h)), None)
    return None if t is None else DensityCertificate.make(t, h, rep.data["realizer"])


def two_cell_leq(f: MorphismSpec, g: MorphismSpec) -> bool:
    """The 2-cell order: pointwise lattice order for structure maps,
    pointwise specialization preorder for carrier maps."""
    if f.kind != g.kind or len(f.carrier) != len(g.carrier):
        raise ComposabilityError("2-cells need parallel morphisms")
    if f.kind == "ia":
        lb = f.target.lattice
        return all(lb.leq(f(x), g(x)) for x in range(len(f.carrier)))
    return all(aksmod.spec_preorder(f.target, f(x), g(x))
               for x in range(len(f.carrier)))
