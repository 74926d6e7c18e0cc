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

from . import aks as aksmod
from .aks import AbstractKrivineStructure
from .errors import InvalidSource, SizeLimitExceeded
from .implicative import ImplicativeAlgebra, ImplicativeStructure, combinator_i
from .morphism import (DensityCertificate, MorphismSpec, unpreserved_meet,
                       verify_certificate)
from .order import PowersetLattice, bits, upward_closure
from .report import Report

MAX_POWERSET_BASE = 10
MAX_KRIVINE_CARRIER = 8


@dataclass
class FunctorImageIA:
    """A powerset-backed algebra remembering the structure it came from."""

    algebra: ImplicativeAlgebra
    source_aks: AbstractKrivineStructure


@dataclass
class FunctorImageAKS:
    aks: AbstractKrivineStructure


def algebra_of(obj) -> ImplicativeAlgebra:
    return obj.algebra if isinstance(obj, FunctorImageIA) else obj


def aks_of(obj) -> AbstractKrivineStructure:
    return obj.aks if isinstance(obj, FunctorImageAKS) else obj


def functor_A_obj(aks: AbstractKrivineStructure, *, validate=True) -> FunctorImageIA:
    """The realizability algebra of a Krivine structure.

    Subsets of the carrier under reverse inclusion, with the implication
    and application acting through the polarity; never materialized as
    an explicit table.
    """
    if aks.pi_size > MAX_POWERSET_BASE:
        raise SizeLimitExceeded(
            f"powerset algebra over {aks.pi_size} elements refused "
            f"(limit {MAX_POWERSET_BASE})")
    if validate:
        rep = aksmod.validate_aks(aks)
        if not rep.ok:
            raise InvalidSource("source structure fails validation", rep)
    lattice = PowersetLattice(aks.names)
    structure = ImplicativeStructure(
        lattice,
        lambda p, q: aksmod.imp_sets(aks, p, q),
        app=lambda p, q: aksmod.app_sets(aks, p, q))
    separator = frozenset(aks.separator_masks)
    k = aks.perp_rows[aks.k_elem]
    s = aks.perp_rows[aks.s_elem]
    return FunctorImageIA(ImplicativeAlgebra(structure, separator, k, s), aks)


def functor_K_obj(algebra, *, validate=True) -> FunctorImageAKS:
    """The Krivine structure of an algebra: order as polarity, implication
    as push, application as application, separator as quasi-proofs."""
    algebra = algebra_of(algebra)
    from .implicative import validate_algebra

    n = algebra.lattice.size
    if n > MAX_KRIVINE_CARRIER:
        raise SizeLimitExceeded(
            f"Krivine structure over a {n}-element carrier refused "
            f"(limit {MAX_KRIVINE_CARRIER})")
    if validate:
        rep = validate_algebra(algebra)
        if not rep.ok:
            raise InvalidSource("source algebra fails validation", rep)
    L = algebra.lattice
    names = tuple(L.name(a) for a in L.elements())
    perp_rows = tuple(
        sum(1 << pi for pi in range(n) if L.leq(t, pi)) for t in range(n))
    push = tuple(tuple(algebra.imp(s, pi) for pi in range(n)) for s in range(n))
    app = tuple(tuple(algebra.application(s, t) for t in range(n)) for s in range(n))
    qp = sum(1 << x for x in algebra.separator)
    return FunctorImageAKS(
        AbstractKrivineStructure(names, perp_rows, push, app, qp,
                                 algebra.k, algebra.s))


def functor_A_mor(f: MorphismSpec, *, validate=True) -> MorphismSpec:
    """Direct image of a carrier map, as a map of realizability algebras."""
    from .morphism import check_applicative_aks, check_applicative_ia

    if f.kind != "aks":
        raise InvalidSource("expected a Krivine-structure morphism")
    if validate:
        rep = check_applicative_aks(f)
        if not rep.ok:
            raise InvalidSource(f"{f.name} is not applicative", rep)
    src = functor_A_obj(f.source, validate=False)
    tgt = functor_A_obj(f.target, validate=False)
    carrier = tuple(f.image_mask(m) for m in range(1 << f.source.pi_size))
    image = MorphismSpec("ia", src.algebra, tgt.algebra, carrier, f"A({f.name})")
    if validate:
        rep = check_applicative_ia(image)
        if not rep.ok:
            raise InvalidSource(f"image A({f.name}) failed re-checking", rep)
    return image


def functor_K_mor(f: MorphismSpec, *, validate=True) -> MorphismSpec:
    """The same carrier function, re-read as a map of Krivine structures."""
    from .morphism import check_applicative_aks, check_applicative_ia

    if f.kind != "ia":
        raise InvalidSource("expected an implicative-algebra morphism")
    if validate:
        rep = check_applicative_ia(f)
        if not rep.ok:
            raise InvalidSource(f"{f.name} is not applicative", rep)
    src = functor_K_obj(f.source, validate=False)
    tgt = functor_K_obj(f.target, validate=False)
    image = MorphismSpec("aks", src.aks, tgt.aks, f.carrier, f"K({f.name})")
    if validate:
        rep = check_applicative_aks(image)
        if not rep.ok:
            raise InvalidSource(f"image K({f.name}) failed re-checking", rep)
    return image


def transport_density_A(f: MorphismSpec, cert: DensityCertificate,
                        image: MorphismSpec) -> DensityCertificate:
    """Carry a density certificate through the powerset functor.

    The section table is reused verbatim and the density witness becomes
    the perp row of the witness quasi-proof; the applicativity realizer
    is re-derived on the image by exhaustive search.
    """
    from .morphism import _applicative_realizer

    tgt: AbstractKrivineStructure = f.target
    return DensityCertificate.make(
        tgt.perp_rows[cert.t], cert.h_map, _applicative_realizer(image))


def transport_density_K(f: MorphismSpec, cert: DensityCertificate,
                        image: MorphismSpec) -> DensityCertificate:
    """Carry a density certificate through the Krivine functor.

    Separator subsets map through the section pointwise, the density
    witness is reused as a carrier element, and the clause-b witness is
    re-derived on the image.
    """
    from .morphism import check_applicative_aks

    h = cert.h_map
    table = {m: sum(1 << h[p] for p in bits(m)) for m in image.target.separator_masks}
    return DensityCertificate.make(
        cert.t, table, check_applicative_aks(image).data["realizer"])


def composite_AK_check(algebra) -> Report:
    """Compare the two-functor composite on an algebra with its closed
    form: the implication collects c -> d over lower bounds of the meet,
    the combinators become up-sets, and the separator the families whose
    meet lands in the original separator."""
    algebra = algebra_of(algebra)
    L = algebra.lattice
    n = L.size
    composite = functor_A_obj(functor_K_obj(algebra).aks).algebra
    rep = Report("composite-AK")

    # both sides are unions over D of their values at {d}, so the lowest
    # failing singleton is also the first failing D in mask order
    def closed_imp(c_mask, d):
        inf_c = L.meet(list(bits(c_mask)))
        out = 0
        for c in L.elements():
            if L.leq(c, inf_c):
                out |= 1 << algebra.imp(c, d)
        return out

    witness = next((f"(C={L.name_set(bits(c_mask))}, D={L.name_set([d])})"
                    for c_mask in range(1 << n) for d in L.elements()
                    if composite.imp(c_mask, 1 << d) != closed_imp(c_mask, d)), None)
    rep.check("composite.ak.implication", witness is None, witness)

    k_up = sum(1 << x for x in upward_closure(L, [algebra.k]))
    s_up = sum(1 << x for x in upward_closure(L, [algebra.s]))
    rep.check("composite.ak.k-upset", composite.k == k_up,
              None if composite.k == k_up else composite.lattice.name(composite.k))
    rep.check("composite.ak.s-upset", composite.s == s_up,
              None if composite.s == s_up else composite.lattice.name(composite.s))

    closed_sep = frozenset(
        m for m in range(1 << n) if L.meet(list(bits(m))) in algebra.separator)
    rep.check("composite.ak.separator", composite.separator == closed_sep,
              None if composite.separator == closed_sep else
              f"differs at {sorted(composite.separator ^ closed_sep)[:4]}")
    return rep


def composite_KA_check(aks: AbstractKrivineStructure) -> Report:
    """Compare the two-functor composite on a Krivine structure with its
    closed form: reverse inclusion as polarity, the subset implication as
    push, its adjoint as application, and the perp rows of the original
    distinguished elements."""
    composite = functor_K_obj(functor_A_obj(aks).algebra).aks
    rep = Report("composite-KA")
    size = 1 << aks.pi_size
    nm = aks.name_mask

    witness = next((nm(p) for p in range(size)
                    if composite.perp_rows[p] != sum(1 << q for q in range(size) if q & p == q)),
                   None)
    rep.check("composite.ka.polarity", witness is None, witness)

    witness = next((f"(P={nm(p)}, Q={nm(q)})" for p in range(size) for q in range(size)
                    if composite.push[p][q] != aksmod.imp_sets(aks, p, q)
                    or composite.app[p][q] != aksmod.app_sets(aks, p, q)), None)
    rep.check("composite.ka.push-app", witness is None, witness)

    qp_expected = sum(1 << p for p in aks.separator_masks)
    rep.check("composite.ka.quasi-proofs", composite.qp == qp_expected)
    rep.check("composite.ka.k", composite.k_elem == aks.perp_rows[aks.k_elem])
    rep.check("composite.ka.s", composite.s_elem == aks.perp_rows[aks.s_elem])
    return rep


class AdjunctionData:
    """The unit and counit components, with their literal witnesses."""

    @staticmethod
    def counit_at(algebra) -> tuple[MorphismSpec, DensityCertificate]:
        """The meet map from the composite algebra back to the algebra,
        with its right inverse taking an element to its up-set."""
        algebra = algebra_of(algebra)
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
        skk = aks.app[aks.app[aks.s_elem][aks.k_elem]][aks.k_elem]
        witness = aks.perp_rows[skk]
        h = {fam: ax.lattice.meet(bits(fam)) for fam in composite.separator_masks}
        return eta, DensityCertificate.make(witness, h, witness)


def check_adjunction_instance(algebra, aks, ia_test_morphisms=(),
                              aks_test_morphisms=()) -> Report:
    """Verify the adjunction data on one algebra and one Krivine structure.

    The counit and unit are checked computationally dense by their literal
    witnesses, on the composites they map from and to.  The triangle
    identities and the naturality squares of the test morphisms read the
    counit (meet of a family) and the unit (singleton) off their rules.
    """
    algebra = algebra_of(algebra)
    aks = aks_of(aks)
    rep = Report("adjunction-instance")

    eps, eps_cert = AdjunctionData.counit_at(algebra)
    rep.check("adjunction.counit-certificate", verify_certificate(eps, eps_cert).ok)

    eta, eta_cert = AdjunctionData.unit_at(aks)
    rep.check("adjunction.unit-certificate", verify_certificate(eta, eta_cert).ok)

    # triangle on the algebra side: singleton then meet is the identity
    L = algebra.lattice
    witness = next((L.name(a) for a in L.elements() if eps(1 << a) != a), None)
    rep.check("adjunction.triangle-K", witness is None, witness)

    # triangle on the Krivine side: the counit of A(X) takes the family of
    # singletons of p to their meet in A(X), which must be p again
    ax = PowersetLattice(aks.names)
    witness = next((aks.name_mask(p) for p in range(1 << aks.pi_size)
                    if ax.meet([1 << pi for pi in bits(p)]) != p), None)
    rep.check("adjunction.triangle-A", witness is None, witness)

    # the counit square at a family m reads f(meet m) = meet f(m), which is
    # meet preservation; the unit square at a point reads A(g){pi} = {g(pi)}
    for f in ia_test_morphisms:
        witness = unpreserved_meet(f)
        rep.check(f"adjunction.naturality-counit[{f.name}]", witness is None, witness)
    for g in aks_test_morphisms:
        witness = next((g.source.name(pi) for pi in range(g.source.pi_size)
                        if g.image_mask(1 << pi) != 1 << g(pi)), None)
        rep.check(f"adjunction.naturality-unit[{g.name}]", witness is None, witness)
    return rep
