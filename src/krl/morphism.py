"""Morphism checkers and certificate search for both categories.

A morphism is a carrier map; being applicative or computationally dense
is certified by finite witnesses: a uniform applicativity realizer, a
monotone section-like table on the target separator, and a uniform
density realizer.  Checkers either verify supplied witnesses
search-free or look for them exhaustively, with the monotone-table
search done greedily along a linear extension with backtracking, so a
missing certificate is a definitive negative while an exhausted budget
is reported as its own outcome.
"""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

from . import aks as aksmod
from .aks import AbstractKrivineStructure
from .errors import ComposabilityError, KrlError, SearchBudgetExceeded, VerificationFailed
from .order import bits, unpreserved_meet
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


@dataclass
class MorphismSpec:
    kind: str                      # "ia" or "aks"
    source: object
    target: object
    carrier: tuple[int, ...]
    name: str = "f"

    def __post_init__(self):
        self.carrier = tuple(self.carrier)

    def __call__(self, x: int) -> int:
        return self.carrier[x]

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.carrier[i]
        return out


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


def check_applicative_ia(f: MorphismSpec) -> Report:
    """Separator preservation, exact meet preservation, and an exhaustive
    search for the uniform applicativity realizer.  The found realizer is
    stored under ``data['realizer']``."""
    A, B = f.source, f.target
    rep = Report(f"applicative({f.name})")

    witness = next((A.lattice.name(s) for s in sorted(A.separator)
                    if f(s) not in B.separator), None)
    rep.check("morphism.separator-preservation", witness is None, witness)

    witness = unpreserved_meet(A.lattice, B.lattice, f.carrier)
    rep.check("morphism.meet-preservation", witness is None, witness)

    realizer = None
    if rep.ok:
        realizer = _applicative_realizer(f)
        rep.check("morphism.uniform-realizer", realizer is not None,
                  None if realizer is not None else "no r in the target separator works")
        rep.data["realizer"] = realizer
    return rep


def _applicative_realizer(f: MorphismSpec) -> int | None:
    """Least r in the target separator with r f(s) f(a) <= f(sa)."""
    A, B = f.source, f.target
    lb = B.lattice
    c = f.carrier
    pairs = [(c[s], c[a], c[A.application(s, a)])
             for s in sorted(A.separator) for a in A.lattice.elements()]
    for r in sorted(B.separator):
        if all(lb.leq(B.apply_chain(r, fs, fa), fsa) for fs, fa, fsa in pairs):
            return r
    return None


def _implication_realizer(f: MorphismSpec) -> int | None:
    """Least r with r <= f(a -> a') -> f(a) -> f(a') whenever a -> a' is
    in the source separator."""
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    bounds = []
    for a in la.elements():
        for a2 in la.elements():
            if A.imp(a, a2) in A.separator:
                bounds.append(B.imp(f(A.imp(a, a2)), B.imp(f(a), f(a2))))
    for r in sorted(B.separator):
        if all(lb.leq(r, x) for x in bounds):
            return r
    return None


def check_condition2_equiv(f: MorphismSpec) -> Report:
    """Decide the implication form and the application form of the
    uniformity condition independently and assert they agree."""
    rep = Report(f"condition2({f.name})")
    r_imp = _implication_realizer(f)
    r_app = _applicative_realizer(f)
    rep.check("condition2.implication-form", r_imp is not None,
              None if r_imp is not None else "no uniform realizer")
    rep.check("condition2.application-form", r_app is not None,
              None if r_app is not None else "no uniform realizer")
    rep.check("condition2.equivalence", (r_imp is None) == (r_app is None),
              f"implication-form={r_imp}, application-form={r_app}")
    rep.data["realizer_implication"] = r_imp
    rep.data["realizer_application"] = r_app
    return rep


def verify_certificate_ia(f: MorphismSpec, cert: DensityCertificate) -> Report:
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    rep = Report(f"certificate({f.name})")
    h = cert.h_map

    ok = cert.t in B.separator
    rep.check("cert.t-in-separator", ok, None if ok else lb.name(cert.t))
    ok = cert.r is not None and cert.r in B.separator
    rep.check("cert.r-in-separator", ok,
              None if ok else "missing" if cert.r is None else lb.name(cert.r))
    if cert.r is not None:
        witness = next((f"(s={la.name(s)}, a={la.name(a)})"
                        for s in sorted(A.separator) for a in la.elements()
                        if not lb.leq(B.apply_chain(cert.r, f(s), f(a)),
                                      f(A.application(s, a)))), None)
        rep.check("cert.r-uniform", witness is None, witness)

    missing = sorted(b for b in B.separator if b not in h)
    rep.check("cert.h-total", not missing,
              lb.name_set(missing) if missing else None)
    stray = sorted(b for b in h if h[b] not in A.separator)
    rep.check("cert.h-into-source-separator", not stray,
              lb.name_set(stray) if stray else None)
    witness = next((f"({lb.name(b1)} <= {lb.name(b2)})" for b1 in h for b2 in h
                    if lb.leq(b1, b2) and not la.leq(h[b1], h[b2])), None)
    rep.check("cert.h-monotone", witness is None, witness)
    if not missing:
        d = _density(f)
        witness = next((lb.name(b) for b in d.sep_b if not d.dense(cert.t, h[b], b)), None)
        rep.check("cert.density", witness is None, witness)
    return rep


# --------------------------------------------------------------- AKS side


def _uniform_family(f: MorphismSpec):
    """Yield (P', P, realizers) for the pairs of source subsets whose
    implication P' -> P lies in the source separator, in scan order;
    ``realizers`` are the target terms orthogonal to
    f(P' -> P) -> f(P') -> f(P).

    Both implications read P' only through its perp class
    (perp_left(P'), perp_left(f P')), so only the least P' of each class
    is scanned.  The realizers and the first pair a given term fails are
    those of the full scan: a P' that fails at P shares its realizers with
    the least member of its class, which comes earlier."""
    A: AbstractKrivineStructure = f.source
    B: AbstractKrivineStructure = f.target
    sep_a = set(A.separator_masks)
    seen = set()
    for p2 in range(1 << A.pi_size):
        fp2 = f.image_mask(p2)
        key = (aksmod.perp_left(A, p2), aksmod.perp_left(B, fp2))
        if key in seen:
            continue
        seen.add(key)
        for p in range(1 << A.pi_size):
            src_imp = aksmod.imp_sets(A, p2, p)
            if src_imp not in sep_a:
                continue
            tgt = aksmod.imp_sets(
                B, f.image_mask(src_imp), aksmod.imp_sets(B, fp2, f.image_mask(p)))
            yield p2, p, aksmod.perp_left(B, tgt)


def check_applicative_aks(f: MorphismSpec) -> Report:
    """The two applicative clauses for carrier maps, scanned over every
    subset (pair of subsets) of the source carrier.  The clause-b witness
    is stored under ``data['realizer']``."""
    A: AbstractKrivineStructure = f.source
    B: AbstractKrivineStructure = f.target
    rep = Report(f"applicative({f.name})")

    sep_b = set(B.separator_masks)
    witness = next((A.name_mask(p) for p in A.separator_masks
                    if f.image_mask(p) not in sep_b), None)
    rep.check("morphism.quasi-proof-preservation", witness is None, witness)

    acc = B.qp
    indexed = False
    for _, _, realizers in _uniform_family(f):
        indexed = True
        acc &= realizers
        if not acc:
            break
    rep.check("morphism.uniform-realizer", bool(acc),
              None if acc else "empty intersection")
    if not indexed:
        # no implication lands in the separator: the intersection is the
        # whole target carrier and the clause reduces to QP' nonempty
        rep.flag("empty-index-family", True)
    rep.data["realizer"] = min(bits(acc)) if acc else None
    return rep


def verify_certificate_aks(f: MorphismSpec, cert: DensityCertificate) -> Report:
    A, B = f.source, f.target
    rep = Report(f"certificate({f.name})")
    h = cert.h_map
    sep_a = set(A.separator_masks)

    ok = bool(B.qp >> cert.t & 1)
    rep.check("cert.t-is-quasi-proof", ok, None if ok else B.name(cert.t))
    ok = cert.r is not None and bool(B.qp >> cert.r & 1)
    rep.check("cert.r-is-quasi-proof", ok,
              None if ok else "missing" if cert.r is None else B.name(cert.r))
    if cert.r is not None:
        witness = next((f"(P'={A.name_mask(p2)}, P={A.name_mask(p)})"
                        for p2, p, realizers in _uniform_family(f)
                        if not realizers >> cert.r & 1), None)
        rep.check("cert.r-uniform", witness is None, witness)

    missing = [b for b in B.separator_masks if b not in h]
    rep.check("cert.h-total", not missing,
              B.name_mask(missing[0]) if missing else None)
    stray = sorted(b for b in h if h[b] not in sep_a)
    rep.check("cert.h-into-source-separator", not stray,
              B.name_mask(stray[0]) if stray else None)
    witness = next((f"({B.name_mask(b1)} <= {B.name_mask(b2)})" for b1 in h for b2 in h
                    if _contains(b1, b2) and not _contains(h[b1], h[b2])), None)
    rep.check("cert.h-monotone", witness is None, witness)
    if not missing:
        d = _density(f)
        witness = next((B.name_mask(b) for b in d.sep_b if not d.dense(cert.t, h[b], b)),
                       None)
        rep.check("cert.density", witness is None, witness)
    return rep


# ------------------------------------------------------------- shared api


def verify_certificate(f: MorphismSpec, cert: DensityCertificate) -> Report:
    """Search-free validation; certificates are self-contained proofs."""
    if f.kind == "ia":
        return verify_certificate_ia(f, cert)
    return verify_certificate_aks(f, cert)


def check_applicative(f: MorphismSpec) -> Report:
    return check_applicative_ia(f) if f.kind == "ia" else check_applicative_aks(f)


def check_comp_dense(f: MorphismSpec, hint: DensityCertificate | None = None,
                     budget: int | None = None) -> DensityCertificate | None:
    """A density certificate, or None when f is not applicative or has
    none.  A hint is verified search-free instead (``bench/tracing.py``
    passes the slot positionally)."""
    if hint is not None:
        return hint if verify_certificate(f, hint).ok else None
    budget = budget if budget is not None else search_budget()
    rep = check_applicative(f)
    return search_certificate(f, rep.data["realizer"], budget) if rep.ok else None


def search_certificate(f: MorphismSpec, r: int | None, budget: int | None = None
                       ) -> DensityCertificate | None:
    """Try every candidate density realizer against a monotone table
    search, for an applicative f with realizer r; None is definitive."""
    budget = budget if budget is not None else search_budget()
    d = _density(f)
    sep_b = _sorted_by_height(d.sep_b, d.leq_b)
    sep_a = _sorted_by_height(d.sep_a, d.leq_a)
    for t in d.candidates:
        table = _monotone_table_search(sep_b, sep_a, d.leq_b, d.leq_a,
                                       partial(d.dense, t), budget)
        if table is not None:
            return DensityCertificate.make(t, table, r)
    return None


# the target and source separators (ascending) with their orders, the
# candidate density realizers in trial order, and the test dense(t, s, b)
# that t realizes f(s) -> b
_Density = namedtuple("_Density", "sep_b sep_a leq_b leq_a candidates dense")


def _density(f: MorphismSpec) -> _Density:
    """The kind-specific data of computational density.  For structure
    maps the separators are sets of elements under the lattice order and
    t realizes when t f(s) <= b; for carrier maps they are separator
    masks under reverse inclusion and t realizes when t is orthogonal to
    f(S) -> B."""
    A, B = f.source, f.target
    if f.kind == "ia":
        lb = B.lattice
        sep_b = sorted(B.separator)
        return _Density(sep_b, sorted(A.separator), lb.leq, A.lattice.leq, sep_b,
                        lambda t, s, b: lb.leq(B.application(t, f(s)), b))

    def dense(t, s, b):
        return aksmod.perp_left(B, aksmod.imp_sets(B, f.image_mask(s), b)) >> t & 1
    return _Density(list(B.separator_masks), list(A.separator_masks), _contains,
                    _contains, list(bits(B.qp)), dense)


def _contains(x: int, y: int) -> bool:
    """Reverse inclusion of masks, the order of separator subsets."""
    return y & x == y


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

    if extend(0):
        return dict(assignment)
    return None


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
    t = next((t for t in d.candidates if all(d.dense(t, h[b], b) for b in h)), None)
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
