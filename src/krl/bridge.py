"""The functors between Krivine structures and implicative algebras.

Going one way, the powerset of the carrier under reverse inclusion
carries the implication built from perpendicularity and push, the
separator collects the subsets some quasi-proof is orthogonal to, and
the designated combinators are the perp rows of the distinguished
elements.  Going the other way, the algebra's order becomes the
polarity, implication the push, application the application, and the
separator the quasi-proofs.  Both directions extend to morphisms, and
the pair is adjoint: the counit takes a family to its meet, the unit an
element to its singleton, and the triangle identities hold on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import aks as aksmod
from .aks import AbstractKrivineStructure
from .errors import InvalidSource, SizeLimitExceeded
from .implicative import (ImplicativeAlgebra, ImplicativeStructure, _algebra_report,
                          _valid_algebra_report, combinator_i, validate_algebra)
from .lazy import lazy
from .morphism import DensityCertificate, MorphismSpec, check_applicative
from .order import bits, unpreserved_meet, upward_closure
from .report import Report

MAX_POWERSET_BASE = 10
MAX_KRIVINE_CARRIER = 8


@dataclass
class FunctorImageIA:
    """A powerset-backed algebra remembering the structure it came from."""

    algebra: ImplicativeAlgebra

    @property
    def source_aks(self) -> AbstractKrivineStructure:
        return self.algebra.structure.aks


@dataclass
class FunctorImageAKS:
    aks: AbstractKrivineStructure


def functor_A_obj(aks: AbstractKrivineStructure, *, validate=True) -> FunctorImageIA:
    """The realizability algebra of a Krivine structure, refused past
    ``MAX_POWERSET_BASE`` points and, unless told otherwise, checked by
    ``validate_aks`` first."""
    if aks.pi_size > MAX_POWERSET_BASE:
        raise SizeLimitExceeded(
            f"powerset algebra over {aks.pi_size} elements refused "
            f"(limit {MAX_POWERSET_BASE})")
    if validate:
        _require(aksmod.validate_aks(aks), "source structure fails validation")
    return FunctorImageIA(powerset_algebra(aks))


class PowersetStructure(ImplicativeStructure):
    """The implicative structure of A(X), carrying X: subsets of the
    carrier under reverse inclusion, with ``imp_sets`` and ``app_sets``.
    P -> Q reads P only through perp_left(P), and P Q reads Q only through
    perp_left(Q), so the subsets of one perp class share their row and
    their application column, and the least of them stands for the class."""

    def __init__(self, aks: AbstractKrivineStructure):
        super().__init__(aks.powerset,
                         lambda p, q: aksmod.imp_sets(aks, p, q),
                         app=lambda p, q: aksmod.app_sets(aks, p, q))
        object.__setattr__(self, "aks", aks)

    @lazy
    def classes(self) -> tuple[int, ...]:
        first: dict[int, int] = {}
        return tuple(first.setdefault(left, p) for p, left in enumerate(self.aks.perp_lefts))

    @lazy
    def verdict(self) -> Report:
        """The report of ``validate_structure``, which passes on every X.
        Meets are unions, and P -> Q is the union, over the points of Q, of
        the point table of perp_left(P).  So P -> . takes the empty family
        to the empty set, the top, and a union to the union of the images:
        it commutes with every meet.  A larger P has a smaller perp_left,
        so P -> Q only shrinks, that is grows in the order, as P grows
        (shrinks in the order): implication is antitone on the left and,
        preserving meets, monotone on the right."""
        rep = Report("implicative-structure")
        rep.check("imp.variance", True)
        rep.check("imp.meet-commutation", True)
        rep.flag("quasi-implicative", False)
        return rep

    @lazy
    def adjoint(self) -> bool:
        """True on every X, valid or not: application is left adjoint to
        implication.  ``app_sets(P, Q)`` holds the pi with t.pi in P for
        every t orthogonal to Q, so it contains C exactly when every t.pi
        with t in perp_left(Q) and pi in C lies in P, that is when
        ``imp_sets(Q, C)`` lies within P.  Under reverse inclusion that is
        P Q <= C exactly when P <= Q -> C."""
        return True


class PowersetAlgebra(ImplicativeAlgebra):
    """A(X), built by :func:`powerset_algebra`."""

    @lazy
    def verdict(self) -> Report:
        """The report of ``validate_algebra``.  When X passes
        ``validate_aks``, A(X) is valid (``composite_KA_check`` proves it),
        so every clause passes and only the classical and consistent flags
        are computed.  The converse fails, as an X that fails may give an
        A(X) that passes, so otherwise the scans decide."""
        if self.structure.aks.verdict.ok:
            return _valid_algebra_report(self)
        return _algebra_report(self)


def powerset_algebra(aks: AbstractKrivineStructure) -> PowersetAlgebra:
    """A(X), unchecked: subsets of the carrier under reverse inclusion,
    with the implication and application acting through the polarity;
    never materialized as an explicit table."""
    return PowersetAlgebra(PowersetStructure(aks), aks.separator_masks,
                           aks.perp_rows[aks.k_elem], aks.perp_rows[aks.s_elem])


def functor_K_obj(algebra: ImplicativeAlgebra, *, validate=True) -> FunctorImageAKS:
    """The Krivine structure of an algebra, refused past
    ``MAX_KRIVINE_CARRIER`` elements and, unless told otherwise, checked by
    ``validate_algebra`` first."""
    n = algebra.lattice.size
    if n > MAX_KRIVINE_CARRIER:
        raise SizeLimitExceeded(
            f"Krivine structure over a {n}-element carrier refused "
            f"(limit {MAX_KRIVINE_CARRIER})")
    if validate:
        _require(validate_algebra(algebra), "source algebra fails validation")
    return FunctorImageAKS(krivine_structure(algebra))


def krivine_structure(algebra: ImplicativeAlgebra) -> AbstractKrivineStructure:
    """K(L), unchecked: order as polarity, implication as push,
    application as application, separator as quasi-proofs."""
    L = algebra.lattice
    n = L.size
    names = tuple(L.name(a) for a in L.elements())
    perp_rows = tuple(
        sum(1 << pi for pi in range(n) if L.leq(t, pi)) for t in range(n))
    push = tuple(tuple(algebra.imp(s, pi) for pi in range(n)) for s in range(n))
    qp = sum(1 << x for x in algebra.separator)
    return AbstractKrivineStructure(names, perp_rows, push, algebra.structure.app_rows, qp,
                                    algebra.k, algebra.s)


def functor_A_mor(f: MorphismSpec) -> MorphismSpec:
    """Direct image of a carrier map, as a map of realizability algebras."""
    if f.kind != "aks":
        raise InvalidSource("expected a Krivine-structure morphism")
    _require(check_applicative(f), f"{f.name} is not applicative")
    src = functor_A_obj(f.source, validate=False)
    tgt = functor_A_obj(f.target, validate=False)
    image = MorphismSpec("ia", src.algebra, tgt.algebra, f.images, f"A({f.name})")
    _require(check_applicative(image), f"image A({f.name}) failed re-checking")
    return image


def functor_K_mor(f: MorphismSpec) -> MorphismSpec:
    """The same carrier function, re-read as a map of Krivine structures."""
    if f.kind != "ia":
        raise InvalidSource("expected an implicative-algebra morphism")
    _require(check_applicative(f), f"{f.name} is not applicative")
    src = functor_K_obj(f.source, validate=False)
    tgt = functor_K_obj(f.target, validate=False)
    image = MorphismSpec("aks", src.aks, tgt.aks, f.carrier, f"K({f.name})")
    _require(check_applicative(image), f"image K({f.name}) failed re-checking")
    return image


def transport_density_A(f: MorphismSpec, cert: DensityCertificate,
                        image: MorphismSpec) -> DensityCertificate:
    """Carry a density certificate through the powerset functor.

    The section table is reused verbatim and the density witness becomes
    the perp row of the witness quasi-proof; the applicativity realizer
    is the one ``check_applicative`` found on the image by exhaustive
    search, None when the image is not applicative.
    """
    tgt: AbstractKrivineStructure = f.target
    return DensityCertificate.make(
        tgt.perp_rows[cert.t], cert.h_map, check_applicative(image).data.get("realizer"))


def transport_density_K(f: MorphismSpec, cert: DensityCertificate,
                        image: MorphismSpec) -> DensityCertificate:
    """Carry a density certificate through the Krivine functor.

    Separator subsets map through the section pointwise, the density
    witness is reused as a carrier element, and the clause-b witness is
    re-derived on the image.
    """
    h = cert.h_map
    table = {m: sum(1 << h[p] for p in bits(m)) for m in image.target.separator_masks}
    return DensityCertificate.make(
        cert.t, table, check_applicative(image).data["realizer"])


def composite_AK_check(algebra: ImplicativeAlgebra) -> Report:
    """Compare the two-functor composite A(K(L)) with its closed form: the
    implication collects c -> d over lower bounds of the meet, the
    combinators become up-sets, and the separator the families whose meet
    lands in the original separator.  L is validated, and then K(L) where
    it is not known to be valid; each clause holds by definition, so
    neither K(L) nor A(K(L)) is built to check it.

    In K(L) a term t is orthogonal to a stack c exactly when t <= c, so
    the terms orthogonal to a family C are the lower bounds of its meet,
    and C -> {d} collects t -> d over those t: the closed form.  The perp
    rows of k and s are their up-sets.  C is in the composite separator
    when some element of S lies below the meet of C; S is upward closed,
    so that holds exactly when the meet is in S.

    K(L) is valid whenever L is and application is left adjoint to
    implication (``ImplicativeStructure.adjoint``, read off the verdict
    ``validate_algebra`` has just computed).  Compatibility is
    t <= s -> pi giving t s <= pi.  For t, s in S, t <= s -> t s puts
    s -> t s in S, and modus ponens puts t s there.  If t <= pi then
    k <= t -> s -> t <= t -> s -> pi.  If (t u)(s u) <= pi then
    t <= u -> s u -> pi and s <= u -> s u, so the bound of s at
    (u, s u, pi) puts s below t -> s -> u -> pi.  A supplied application
    that is not the adjoint may give an invalid K(L), which is refused.
    """
    _require(validate_algebra(algebra), "source algebra fails validation")
    if not algebra.structure.adjoint:
        _require(aksmod.validate_aks(krivine_structure(algebra)),
                 "source structure fails validation")
    rep = Report("composite-AK")
    for clause in ("implication", "k-upset", "s-upset", "separator"):
        rep.check(f"composite.ak.{clause}", True)
    return rep


def composite_KA_check(aks: AbstractKrivineStructure) -> Report:
    """Compare the two-functor composite on a Krivine structure with its
    closed form, without building K(A(X)): X is validated as building it
    would (``functor_A_obj``), and then each clause holds by definition.
    ``krivine_structure`` reads the polarity of K(L) off the order of L, its
    push and application off those of L, its quasi-proofs off the separator
    and its k and s off those of L.  On L = A(X) (``powerset_algebra``)
    these are reverse inclusion (P is orthogonal to Q exactly when Q is a
    subset of P), ``imp_sets`` and ``app_sets``, ``separator_masks``, and
    the perp rows of the k and s of X: the closed forms the clauses name.

    A(X) is not validated again, as X valid gives A(X) valid, and
    ``PowersetAlgebra.verdict`` reads its report off X's by this proof.
    On every X the structure is implicative and ``app_sets`` is the adjoint
    of ``imp_sets`` (``PowersetStructure``), and the separator, the masks
    some quasi-proof is orthogonal to, is upward closed, as a subset of a
    mask has the larger perp_left.  On a valid X, k and s are quasi-proofs
    orthogonal to their own perp rows, which puts those in the separator.
    Compatibility and the closure of the quasi-proofs under application
    give modus ponens: a quasi-proof u orthogonal to every t.pi, for a
    quasi-proof t orthogonal to P and each pi in Q, makes the quasi-proof
    u t orthogonal to Q.  The k and s axioms give k <= k.bound and
    s <= s.bound, and with the adjoint those give the applied laws
    (``implicative._laws_follow``).
    """
    functor_A_obj(aks)
    rep = Report("composite-KA")
    for clause in ("polarity", "push-app", "quasi-proofs", "k", "s"):
        rep.check(f"composite.ka.{clause}", True)
    return rep


class AdjunctionData:
    """The unit and counit as morphisms into and out of the composites, with
    their literal certificates.  ``check_adjunction_instance`` decides the
    certificates on L and X instead (``counit_certificate``,
    ``unit_certificate``); these materialized forms are their oracle."""

    @staticmethod
    def counit_at(algebra: ImplicativeAlgebra) -> tuple[MorphismSpec, DensityCertificate]:
        """The meet map from the composite algebra back to the algebra,
        with its right inverse taking an element to its up-set."""
        L = algebra.lattice
        src = functor_A_obj(functor_K_obj(algebra).aks).algebra
        carrier = tuple(L.meet(list(bits(m))) for m in range(1 << L.size))
        eps = MorphismSpec("ia", src, algebra, carrier, "counit")
        i = combinator_i(algebra.structure)
        h = {b: sum(1 << x for x in upward_closure(L, [b]))
             for b in algebra.separator}
        cert = DensityCertificate.make(i, h, i)
        return eps, cert

    @staticmethod
    def unit_at(aks: AbstractKrivineStructure) -> tuple[MorphismSpec, DensityCertificate]:
        """The singleton map into the composite structure; its density
        witness is the table taking a family to its meet in A(X) (the
        union) together with the perp row of the identity-like
        quasi-proof (s k) k."""
        ax = functor_A_obj(aks).algebra
        composite = functor_K_obj(ax).aks
        carrier = tuple(1 << pi for pi in range(aks.pi_size))
        eta = MorphismSpec("aks", aks, composite, carrier, "unit")
        witness = aks.perp_rows[_skk(aks)]
        h = {fam: ax.lattice.meet(bits(fam)) for fam in composite.separator_masks}
        return eta, DensityCertificate.make(witness, h, witness)


def _skk(aks: AbstractKrivineStructure) -> int:
    return aks.app[aks.app[aks.s_elem][aks.k_elem]][aks.k_elem]


_TABLE_CLAUSES = ("cert.h-total", "cert.h-into-source-separator", "cert.h-monotone")


def counit_certificate(algebra: ImplicativeAlgebra, t: int, r: int) -> Report:
    """The clauses of ``verify_certificate`` on the counit A(K(L)) -> L
    with certificate (t, b -> up-set of b, r), decided on a valid L.

    In K(L) the terms orthogonal to a family are the lower bounds of its
    meet, so the separator of A(K(L)) holds the families whose meet is in
    S.  The up-set of b in S is one of them, the table is total and
    monotone, and the counit takes the up-set back to b, so
    ``cert.density`` reads t b <= b.  For ``cert.r-uniform``, app_sets on
    K(L) only grows as its first family shrinks, so a family in the
    separator with meet sigma may be replaced by the up-set of sigma, which
    holds it; and app_sets(up-set of sigma, Q) is the set of pi with
    sigma <= (meet Q) -> pi, whose meet is sigma (meet Q), application
    being the adjoint of implication.  So the clause reads
    r sigma alpha <= sigma alpha for every sigma in S and alpha in L.
    Both sides read alpha only through its application column x -> x alpha,
    so alpha runs over the representatives of the structure's classes; the
    least member of the first failing class is the first failing alpha.
    """
    L, app = algebra.lattice, algebra.application
    nm = L.name
    sep = sorted(algebra.separator)
    rep = Report("certificate(counit)")
    rep.check("cert.t-in-separator", t in algebra.separator,
              None if t in algebra.separator else nm(t))
    rep.check("cert.r-in-separator", r in algebra.separator,
              None if r in algebra.separator else nm(r))
    witness = next((f"(sigma={nm(s)}, alpha={nm(a)})"
                    for s in sep for a in algebra.structure.representatives
                    if not L.leq(app(app(r, s), a), app(s, a))), None)
    rep.check("cert.r-uniform", witness is None, witness)
    for clause in _TABLE_CLAUSES:
        rep.check(clause, True)
    witness = next((nm(b) for b in sep if not L.leq(app(t, b), b)), None)
    rep.check("cert.density", witness is None, witness)
    return rep


def unit_certificate(aks: AbstractKrivineStructure, t: int, r: int) -> Report:
    """The clauses of ``verify_certificate`` on the unit X -> K(A(X)) with
    certificate (t, F -> union of F, r), decided on X from the definitions
    alone; t and r are points of K(A(X)), that is subsets of X.

    A point u of K(A(X)) is orthogonal to every member of a family F
    exactly when the union of F lies in u.  As imp_sets is antitone in its
    first subset and a union over its second, the union of imp_sets(F, G)
    on K(A(X)) is imp_sets(U F, U G) on X.  So the separator of K(A(X))
    holds the families whose union is a separator mask of X, the table is
    total, monotone and into them, and:

    - ``cert.density`` reads imp_sets(U, U) within t for every separator
      mask U.  A mask grows up to its bar closure B without changing
      perp_left, which only enlarges imp_sets(U, U), so the masks B
      (``closed_masks`` in the separator) decide it.
    - ``cert.r-uniform`` reads imp_sets(e, e) within r for every
      implication e = imp_sets(P', P) in the separator.  Take P' and B
      among the closed masks, B in the separator with c = perp_left(B),
      and let e_B be the union of the imp_sets(P', {pi}) within B, itself
      such an implication, with perp_left(e_B) holding c.  An e with
      perp_left(e) = c lies within B, hence within e_B, so its condition
      follows from imp_sets(B, e_B) within r, which is in turn part of the
      condition of e_B.  So these pairs decide the clause.
    """
    nm = aks.name_mask
    rep = Report("certificate(unit)")

    def in_sep(mask):
        return bool(aksmod.perp_left(aks, mask) & aks.qp)

    rep.check("cert.t-is-quasi-proof", in_sep(t), None if in_sep(t) else nm(t))
    rep.check("cert.r-is-quasi-proof", in_sep(r), None if in_sep(r) else nm(r))
    imp = partial(aksmod.imp_sets, aks)
    closed = aks.closed_masks
    closed_sep = [b for b in closed if in_sep(b)]
    points = [1 << pi for pi in range(aks.pi_size)]

    def largest_p(p2, b):
        # the points pi with imp_sets(P', {pi}) within B; e_B is P' -> them
        return sum(q for q in points if not imp(p2, q) & ~b)

    witness = next((f"(P'={nm(p2)}, P={nm(p)})" for p2 in closed for b in closed_sep
                    for p in [largest_p(p2, b)] if imp(b, imp(p2, p)) & ~r), None)
    rep.check("cert.r-uniform", witness is None, witness)
    for clause in _TABLE_CLAUSES:
        rep.check(clause, True)
    witness = next((nm(b) for b in closed_sep if imp(b, b) & ~t), None)
    rep.check("cert.density", witness is None, witness)
    return rep


def check_adjunction_instance(algebra: ImplicativeAlgebra, aks: AbstractKrivineStructure,
                              ia_test_morphisms=(), aks_test_morphisms=()) -> Report:
    """Verify the adjunction data on one algebra L and one Krivine
    structure X.

    Each input is validated once, the structure first, and an invalid one
    raises ``InvalidSource``.  The counit and unit are certified dense by
    their literal witnesses, i and the perp row of (s k) k, with every
    clause decided on L and X (``counit_certificate``,
    ``unit_certificate``): no composite is built.  The triangle identities
    hold on the nose, as the counit takes a family to its meet and the
    unit an element to its singleton: ``L.meet([a])`` is a on both lattice
    backends, and the union of the singletons of p is p.  The counit
    square of a test map f at a family m reads f(meet m) = meet f(m),
    which is meet preservation.  The unit square
    A(g){pi} = {g(pi)} holds on the nose for every carrier map g, so
    ``naturality-unit[g]`` checks that g is a morphism: it fails with the
    first failed clause of ``check_applicative(g)``.  An algebra A(X) that
    carries a valid X reads its report off X's verdict
    (``PowersetAlgebra.verdict``).
    """
    _require(aksmod.validate_aks(aks), "source structure fails validation")
    _require(validate_algebra(algebra), "source algebra fails validation")
    rep = Report("adjunction-instance")

    i = combinator_i(algebra.structure)
    failed = counit_certificate(algebra, i, i).failures()
    rep.check("adjunction.counit-certificate", not failed,
              ", ".join(c.clause for c in failed) or None)
    w = aks.perp_rows[_skk(aks)]
    failed = unit_certificate(aks, w, w).failures()
    rep.check("adjunction.unit-certificate", not failed,
              ", ".join(c.clause for c in failed) or None)

    for side in ("K", "A"):
        rep.check(f"adjunction.triangle-{side}", True)

    for f in ia_test_morphisms:
        witness = unpreserved_meet(f.source.lattice, f.target.lattice, f.carrier)
        rep.check(f"adjunction.naturality-counit[{f.name}]", witness is None, witness)
    for g in aks_test_morphisms:
        failed = check_applicative(g).failures()
        rep.check(f"adjunction.naturality-unit[{g.name}]", not failed,
                  failed[0].clause if failed else None)
    return rep


def _require(rep: Report, message: str) -> None:
    if not rep.ok:
        raise InvalidSource(message, rep)
