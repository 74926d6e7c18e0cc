"""The two functors, their composites, and the adjunction data."""

import dataclasses
import random
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from krl import aks as aks_module
from krl import bridge, implicative
from krl.aks import AbstractKrivineStructure, full_polarity_aks, mine_aks, validate_aks
from krl.bridge import (AdjunctionData, check_adjunction_instance,
                        composite_AK_check, composite_KA_check, counit_certificate,
                        functor_A_mor, functor_A_obj, functor_K_mor, functor_K_obj,
                        transport_density_A, transport_density_K, unit_certificate)
from krl.enumerators import enumerate_implications
from krl.errors import InvalidSource, SizeLimitExceeded
from krl.fixtures import (AKS3_PERP, aks1, aks2, aks3, diamond, heyting3, l2, mined_corpus,
                          singleton_algebra)
from krl.implicative import (ImplicativeAlgebra, ImplicativeStructure, combinator_i,
                             validate_algebra)
from krl.morphism import (DensityCertificate, MorphismSpec, check_applicative,
                          check_comp_dense, identity_morphism, verify_certificate)
from krl.order import ExplicitLattice, PowersetLattice, bits, upward_closure
from krl.report import Report


def test_functor_A_on_tiny_full_polarity():
    image = functor_A_obj(full_polarity_aks(1))
    algebra = image.algebra
    assert algebra.lattice.size == 2
    assert algebra.separator == {0, 1}
    assert algebra.k == 1 and algebra.s == 1  # the whole carrier


def test_functor_A_image_keeps_one_copy_of_its_source():
    aks = aks3()
    image = functor_A_obj(aks)
    assert image.source_aks is aks is image.algebra.structure.aks
    assert [f.name for f in dataclasses.fields(image)] == ["algebra"]


def test_functor_A_separator_contains_top():
    for aks in mined_corpus():
        algebra = functor_A_obj(aks).algebra
        assert algebra.lattice.top in algebra.separator


def test_functor_A_output_validates():
    # the theorem composite_KA_check decides A(X) by, which validate_algebra
    # now reads off X's verdict, against the scans, also on every tenth
    # structure of three points the miner finds
    mined = mine_aks(3, AKS3_PERP, max_results=10 ** 9)
    assert len(mined) == 8338
    for aks in mined_corpus() + mined[::10]:
        algebra = functor_A_obj(aks).algebra
        assert validate_algebra(algebra).ok and implicative._algebra_report(algebra).ok


def test_functor_A_rejects_invalid_source():
    broken = AbstractKrivineStructure(
        ("a", "b"), (0b01, 0b00), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
        qp=0b11, k_elem=0, s_elem=0)
    with pytest.raises(InvalidSource):
        functor_A_obj(broken)


def test_functor_A_size_guard():
    with pytest.raises(SizeLimitExceeded):
        functor_A_obj(full_polarity_aks(11))


def test_functor_K_on_l2_matches_transcription():
    aks = functor_K_obj(l2()).aks
    assert aks.perp_rows == (0b11, 0b10)
    assert aks.qp == 0b10 and aks.k_elem == 1 and aks.s_elem == 1
    assert validate_aks(aks).ok


def test_functor_K_on_singleton():
    aks = functor_K_obj(singleton_algebra()).aks
    assert aks.pi_size == 1 and validate_aks(aks).ok


def test_functor_K_on_heyting3():
    aks = functor_K_obj(heyting3()).aks
    assert aks.qp == 0b100
    assert validate_aks(aks).ok


def test_functor_K_size_guard():
    big = functor_A_obj(full_polarity_aks(4)).algebra
    with pytest.raises(SizeLimitExceeded):
        functor_K_obj(big)


def test_functor_K_rejects_invalid_source():
    from krl.implicative import ImplicativeAlgebra
    # {bot} is not upward closed, so the algebra fails validation
    broken = ImplicativeAlgebra(l2().structure, {0}, k=0, s=0)
    with pytest.raises(InvalidSource):
        functor_K_obj(broken)


def heyting_chain(n):
    L = ExplicitLattice.chain(n)
    top = n - 1
    structure = ImplicativeStructure(L, lambda a, b: top if a <= b else b)
    return ImplicativeAlgebra(structure, {top}, k=top, s=top)


def brute_force_AK_witness(algebra, composite):
    """The first (C, D) over all 4^n pairs of families where the
    composite implication differs from its closed form."""
    L = algebra.lattice

    def closed_imp(c_mask, d_mask):
        inf_c = L.meet(list(bits(c_mask)))
        out = 0
        for c in L.elements():
            if L.leq(c, inf_c):
                for d in bits(d_mask):
                    out |= 1 << algebra.imp(c, d)
        return out

    return next((f"(C={L.name_set(bits(c_mask))}, D={L.name_set(bits(d_mask))})"
                 for c_mask in range(1 << L.size) for d_mask in range(1 << L.size)
                 if composite.imp(c_mask, d_mask) != closed_imp(c_mask, d_mask)), None)


@pytest.mark.parametrize("algebra", [l2(), heyting3(), singleton_algebra(), diamond()]
                         + [heyting_chain(n) for n in range(1, 7)])
def test_composite_AK_matches_closed_form(algebra):
    assert composite_AK_check(algebra).ok
    composite = functor_A_obj(functor_K_obj(algebra).aks).algebra
    assert brute_force_AK_witness(algebra, composite) is None


def composite_AK_by_construction(algebra):
    """``composite_AK_check`` built the way it was before it was decided per
    key: A(K(L)) through both functors, with every family scanned."""
    L = algebra.lattice
    n = L.size
    composite = bridge.functor_A_obj(bridge.functor_K_obj(algebra).aks).algebra
    rep = Report("composite-AK")

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


# every algebra of at most 8 elements that the suite builds
SMALL_ALGEBRAS = ([l2(), heyting3(), singleton_algebra(), diamond()]
                  + [heyting_chain(n) for n in range(1, 9)]
                  + [functor_A_obj(x).algebra
                     for x in mined_corpus() + [full_polarity_aks(m) for m in (1, 2, 3)]])


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS)
def test_composite_AK_matches_the_construction(algebra):
    assert composite_AK_check(algebra) == composite_AK_by_construction(algebra)


def test_composite_AK_builds_no_composite_past_the_size_limit(count_calls):
    # values, not time: on an algebra whose application is the adjoint,
    # neither K(L), its validation, the composite nor a scan over the 2^24
    # families can come back unseen
    counts = count_calls(bridge.krivine_structure, aks_module._aks_report,
                         aks_module.imp_sets, aks_module.perp_left,
                         bridge.functor_A_obj, bridge.functor_K_obj)
    assert composite_AK_check(heyting_chain(24)).ok
    assert not counts


def supplied_application_algebras():
    """Every variance-respecting table on the 2-chain with every
    application table given as its closed form, adjoint or not, with every
    principal separator and every k and s in it."""
    L = ExplicitLattice.chain(2)
    for table, flat in product(enumerate_implications(L), product(range(2), repeat=4)):
        app = ((flat[0], flat[1]), (flat[2], flat[3]))
        st = ImplicativeStructure(L, table, app=lambda a, b, app=app: app[a][b])
        for x in L.elements():
            sep = sorted(upward_closure(L, [x]))
            for k, s in product(sep, repeat=2):
                yield ImplicativeAlgebra(st, sep, k, s)


def sweep_algebras():
    """The principal algebras on every lattice of at most 3 elements, and
    the 2-chain algebras with a supplied application."""
    from test_implicative import principal_algebras  # which imports this module
    return list(principal_algebras()) + list(supplied_application_algebras())


def composite_AK_outcome(check, algebra):
    try:
        return check(algebra)
    except InvalidSource as exc:
        return str(exc), exc.report


def test_composite_AK_by_definition_matches_the_construction():
    algebras = sweep_algebras()
    outcomes = [composite_AK_outcome(composite_AK_check, a) for a in algebras]
    assert outcomes == [composite_AK_outcome(composite_AK_by_construction, a)
                        for a in algebras]
    refused = {o[0] for o in outcomes if isinstance(o, tuple)}
    assert len(algebras) == 2961 and refused == {
        "source algebra fails validation", "source structure fails validation"}


def test_K_of_a_valid_adjoint_algebra_validates():
    # the theorem composite_AK_check decides K(L) by: 218 principal
    # algebras and 10 with a supplied application that is the adjoint
    adjoint = [a for a in sweep_algebras() if validate_algebra(a).ok and a.structure.adjoint]
    assert len(adjoint) == 228
    assert all(validate_aks(bridge.krivine_structure(a)).ok for a in adjoint)


def test_composite_AK_needs_the_adjoint_condition():
    # with a supplied application that is not the adjoint, a valid L may
    # give an invalid K(L); decided as if adjoint, those would pass
    valid = [a for a in supplied_application_algebras() if validate_algebra(a).ok]
    invalid_k = [a for a in valid if not validate_aks(bridge.krivine_structure(a)).ok]
    assert (len(valid), len(invalid_k)) == (28, 13)
    assert not any(a.structure.adjoint for a in invalid_k)
    for algebra in invalid_k:
        with pytest.raises(InvalidSource, match="source structure fails validation"):
            composite_AK_check(algebra)
    for algebra in invalid_k:
        algebra.structure.__dict__["adjoint"] = True  # the condition dropped
        assert composite_AK_check(algebra).ok


@pytest.mark.parametrize("algebra", [
    ImplicativeAlgebra(l2().structure, {0}, k=0, s=0),
    ImplicativeAlgebra(heyting3().structure, {2}, k=0, s=2),
    ImplicativeAlgebra(ImplicativeStructure(
        ExplicitLattice(("a", "b"), (0b01, 0b10)), ((0, 0), (0, 0))), {0}, k=0, s=0),
], ids=["not-upward-closed", "k-outside", "not-a-lattice"])
def test_composite_AK_rejects_an_invalid_source(algebra):
    with pytest.raises(InvalidSource) as new:
        composite_AK_check(algebra)
    with pytest.raises(InvalidSource) as old:
        composite_AK_by_construction(algebra)
    assert str(new.value) == str(old.value) == "source algebra fails validation"
    assert new.value.report == old.value.report == validate_algebra(algebra)


def corrupt(aks, rng):
    """K(L) with one push entry, one polarity bit, one quasi-proof bit or
    the k or s point changed."""
    n = aks.pi_size
    t, pi = rng.randrange(n), rng.randrange(n)
    kind = rng.randrange(4)
    if kind == 0:
        push = [list(row) for row in aks.push]
        push[t][pi] = rng.randrange(n)
        return dataclasses.replace(aks, push=tuple(map(tuple, push)))
    if kind == 1:
        rows = list(aks.perp_rows)
        rows[t] ^= 1 << pi
        return dataclasses.replace(aks, perp_rows=tuple(rows))
    if kind == 2:
        return dataclasses.replace(aks, qp=aks.qp ^ 1 << t)
    return dataclasses.replace(aks, **{rng.choice(["k_elem", "s_elem"]): t})


def test_composite_AK_witness_on_corrupted_composites(monkeypatch):
    # K(L) corrupted where the construction reads it, and its validation
    # skipped: the construction names the witnesses of the 4^n scan, while
    # the check, which decides K(L) valid on these adjoint algebras, never
    # builds it and passes
    monkeypatch.setattr(aks_module, "validate_aks", lambda _aks: Report("aks"))
    krivine_structure = bridge.krivine_structure
    passing = composite_AK_check(l2())
    rng = random.Random(0)
    failed = 0
    failed_clauses = set()
    for _ in range(200):
        algebra = rng.choice([l2(), heyting3(), diamond(), heyting_chain(4)])
        aks = corrupt(krivine_structure(algebra), rng)
        built = []
        monkeypatch.setattr(bridge, "krivine_structure",
                            lambda _algebra, aks=aks: built.append(aks) or aks)
        assert composite_AK_check(algebra) == passing and not built
        rep = composite_AK_by_construction(algebra)
        composite = bridge.functor_A_obj(aks, validate=False).algebra
        witness = rep.checks[0].witness
        assert witness == brute_force_AK_witness(algebra, composite)
        failed += witness is not None
        failed_clauses |= {c.clause for c in rep.failures()}
    assert 0 < failed < 200
    assert failed_clauses == {"composite.ak.implication", "composite.ak.k-upset",
                              "composite.ak.s-upset", "composite.ak.separator"}


@pytest.mark.parametrize("aks", [full_polarity_aks(1), full_polarity_aks(2), aks2()])
def test_composite_KA_matches_closed_form(aks):
    assert composite_KA_check(aks).ok


def composite_KA_by_construction(aks):
    """``composite_KA_check`` as it was before it was decided by its
    definitions: K(A(X)) built through both functors, and each of its 4^m
    pairs compared with the closed form."""
    composite = bridge.functor_K_obj(bridge.functor_A_obj(aks).algebra).aks
    rep = Report("composite-KA")
    size = 1 << aks.pi_size
    nm = aks.name_mask

    witness = next((nm(p) for p in range(size)
                    if composite.perp_rows[p] != sum(1 << q for q in range(size) if q & p == q)),
                   None)
    rep.check("composite.ka.polarity", witness is None, witness)

    witness = next((f"(P={nm(p)}, Q={nm(q)})" for p in range(size) for q in range(size)
                    if composite.push[p][q] != aks_module.imp_sets(aks, p, q)
                    or composite.app[p][q] != aks_module.app_sets(aks, p, q)), None)
    rep.check("composite.ka.push-app", witness is None, witness)

    qp_expected = sum(1 << p for p in aks.separator_masks)
    rep.check("composite.ka.quasi-proofs", composite.qp == qp_expected)
    rep.check("composite.ka.k", composite.k_elem == aks.perp_rows[aks.k_elem])
    rep.check("composite.ka.s", composite.s_elem == aks.perp_rows[aks.s_elem])
    return rep


@pytest.mark.parametrize("aks", mined_corpus() + [full_polarity_aks(m) for m in range(1, 6)]
                         + [functor_K_obj(heyting_chain(n)).aks for n in range(1, 5)])
def test_composite_KA_matches_the_construction(aks, monkeypatch):
    # A(X) has 2^m elements; the oracle builds K(A(X)) on all of them
    monkeypatch.setattr(bridge, "MAX_KRIVINE_CARRIER", 1 << 5)
    assert composite_KA_check(aks) == composite_KA_by_construction(aks)


def test_composite_KA_rejects_an_invalid_source():
    broken = AbstractKrivineStructure(
        ("a", "b"), (0b01, 0b00), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
        qp=0b11, k_elem=0, s_elem=0)
    with pytest.raises(InvalidSource) as new:
        composite_KA_check(broken)
    with pytest.raises(InvalidSource) as old:
        composite_KA_by_construction(broken)
    assert str(new.value) == str(old.value) == "source structure fails validation"
    assert new.value.report == old.value.report == validate_aks(broken)


def test_composite_KA_builds_no_composite(count_calls):
    passing = composite_KA_by_construction(full_polarity_aks(2))
    counts = count_calls(bridge.krivine_structure, bridge.functor_K_obj,
                         implicative._algebra_report)
    for m in range(4, 11):
        assert composite_KA_check(full_polarity_aks(m)) == passing
    assert not counts
    with pytest.raises(SizeLimitExceeded):
        composite_KA_check(full_polarity_aks(11))


def test_identity_morphism_images():
    ident = identity_morphism(aks3(), "aks")
    image = functor_A_mor(ident)
    assert image.kind == "ia"
    assert image.carrier == tuple(range(8))
    ident_ia = identity_morphism(l2(), "ia")
    image_k = functor_K_mor(ident_ia)
    assert image_k.kind == "aks" and image_k.carrier == (0, 1)


def test_functor_A_mor_is_direct_image():
    src, tgt = aks2(), aks3()
    table = next(t for t in product(range(3), repeat=2)
                 if check_applicative(MorphismSpec("aks", src, tgt, t)).ok)
    f = MorphismSpec("aks", src, tgt, table)
    image = functor_A_mor(f)
    for mask in range(4):
        assert image(mask) == f.image_mask(mask)


def test_functoriality_on_carriers():
    # A(g after f) = A(g) after A(f) and K likewise, carrier by carrier
    src, tgt = aks2(), aks3()
    maps = [MorphismSpec("aks", src, tgt, t)
            for t in product(range(3), repeat=2)
            if check_applicative(MorphismSpec("aks", src, tgt, t)).ok]
    g = identity_morphism(tgt, "aks")
    for f in maps:
        composite = MorphismSpec("aks", src, tgt,
                                 tuple(g(f(x)) for x in range(2)))
        lhs = functor_A_mor(composite)
        a_f, a_g = functor_A_mor(f), functor_A_mor(g)
        rhs = tuple(a_g(a_f(m)) for m in range(4))
        assert lhs.carrier == rhs

    h3, two = heyting3(), l2()
    collapse = MorphismSpec("ia", h3, two, (0, 1, 1), "collapse")
    embed = MorphismSpec("ia", two, h3, (0, 2), "embed")
    composite = MorphismSpec("ia", h3, h3,
                             tuple(embed(collapse(x)) for x in range(3)))
    lhs = functor_K_mor(composite)
    k_f, k_g = functor_K_mor(collapse), functor_K_mor(embed)
    assert lhs.carrier == tuple(k_g(k_f(x)) for x in range(3))


def test_density_transport_through_K():
    h3, two = heyting3(), l2()
    collapse = MorphismSpec("ia", h3, two, (0, 1, 1), "collapse")
    cert = check_comp_dense(collapse)
    assert cert is not None
    image = functor_K_mor(collapse)
    transported = transport_density_K(collapse, cert, image)
    assert verify_certificate(image, transported).ok


def test_density_transport_through_A():
    src, tgt = aks2(), aks3()
    for table in product(range(3), repeat=2):
        f = MorphismSpec("aks", src, tgt, table)
        if not check_applicative(f).ok:
            continue
        cert = check_comp_dense(f)
        if cert is None:
            continue
        image = functor_A_mor(f)
        transported = transport_density_A(f, cert, image)
        assert verify_certificate(image, transported).ok
        break
    else:
        pytest.fail("no dense carrier map between the mined fixtures")


def test_counit_certificate_on_fixtures():
    for algebra in (l2(), heyting3(), singleton_algebra()):
        eps, cert = AdjunctionData.counit_at(algebra)
        assert verify_certificate(eps, cert).ok
        # the closed-form right inverse: up-sets
        h = cert.h_map
        L = algebra.lattice
        for b in algebra.separator:
            assert h[b] == sum(1 << x for x in L.elements() if L.leq(b, x))


def test_counit_commutes_with_meets():
    algebra = heyting3()
    eps, _ = AdjunctionData.counit_at(algebra)
    L = algebra.lattice
    n = L.size
    for fam1 in range(1 << n):
        for fam2 in range(1 << n):
            union = fam1 | fam2
            parts = [eps(fam1), eps(fam2)]
            assert eps(union) == L.meet(parts)


def test_unit_certificate_on_fixtures():
    for aks in mined_corpus():
        eta, cert = AdjunctionData.unit_at(aks)
        assert verify_certificate(eta, cert).ok


def test_unit_witness_is_perp_row_of_skk():
    aks = aks3()
    _, cert = AdjunctionData.unit_at(aks)
    skk = aks.app[aks.app[aks.s_elem][aks.k_elem]][aks.k_elem]
    assert cert.t == aks.perp_rows[skk]


@pytest.mark.parametrize("algebra,aks", [
    (l2(), aks3()), (heyting3(), aks2()), (singleton_algebra(), full_polarity_aks(1)),
])
def test_adjunction_instance(algebra, aks):
    rep = check_adjunction_instance(algebra, aks)
    assert rep.ok, rep.render()


def test_adjunction_triangles_build_no_powerset_lattice(monkeypatch):
    # counted on the class, so a lattice built by any module is seen
    built = []
    init = PowersetLattice.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PowersetLattice, "__init__", counted)
    rep = check_adjunction_instance(l2(), aks3())
    assert [c.clause for c in rep.checks if c.clause.startswith("adjunction.triangle")] == [
        "adjunction.triangle-K", "adjunction.triangle-A"]
    assert rep.ok and not built


def test_adjunction_naturality_for_test_morphisms(count_calls):
    h3, two = heyting3(), l2()
    collapse = MorphismSpec("ia", h3, two, (0, 1, 1), "collapse")
    embed = MorphismSpec("ia", two, h3, (0, 2), "embed")
    g = next(MorphismSpec("aks", aks2(), aks3(), t, "g")
             for t in product(range(3), repeat=2)
             if check_applicative(MorphismSpec("aks", aks2(), aks3(), t)).ok)
    # no composite or functor image is built, and each input is validated once
    counts = count_calls(bridge.functor_A_obj, bridge.functor_K_obj,
                         validate_aks, validate_algebra)
    rep = check_adjunction_instance(
        h3, aks2(),
        ia_test_morphisms=[collapse, embed, identity_morphism(h3, "ia")],
        aks_test_morphisms=[g, identity_morphism(aks3(), "aks")])
    assert counts == {"validate_aks": 1, "validate_algebra": 1}
    assert [(c.clause, c.passed, c.witness) for c in rep.checks] == [
        (f"adjunction.{clause}", True, None) for clause in (
            "counit-certificate", "unit-certificate", "triangle-K", "triangle-A",
            "naturality-counit[collapse]", "naturality-counit[embed]",
            "naturality-counit[id]", "naturality-unit[g]", "naturality-unit[id]")]


def test_naturality_squares_on_identities_past_the_composite_limits():
    # A(K(chain 9)) and K(A(full 4)) are refused by the size limits; the
    # squares do not build them
    rep = check_adjunction_instance(
        l2(), aks2(), ia_test_morphisms=[identity_morphism(heyting_chain(9), "ia")],
        aks_test_morphisms=[identity_morphism(full_polarity_aks(4), "aks")])
    assert rep.ok, rep.render()
    assert [c.clause for c in rep.checks][-2:] == [
        "adjunction.naturality-counit[id]", "adjunction.naturality-unit[id]"]


def counit_square_scan(f, eps_src, eps_tgt):
    """The first family m of source elements, in ascending mask order,
    where the counit square f(eps(m)) = eps(f[m]) fails, or None: the 2^n
    scan that decided ``adjunction.naturality-counit``, on the counits of
    the composites A(K(-))."""
    n = f.source.lattice.size
    return next((f.source.lattice.name_set(bits(m)) for m in range(1 << n)
                 if f(eps_src(m)) != eps_tgt(f.image_mask(m))), None)


@pytest.mark.parametrize("algebras,total", [
    ([heyting_chain(n) for n in (1, 2, 3)], 56),
    ([singleton_algebra(), l2(), heyting3(), diamond()], 494),
], ids=["chains-up-to-3", "fixtures"])
def test_naturality_counit_matches_the_family_scan(algebras, total):
    # every carrier map between the algebras: the same decision and, as
    # the meet of two elements is never numbered after them, the same
    # first failing family
    counits = {id(A): AdjunctionData.counit_at(A)[0] for A in algebras}
    tables = [(A, B, carrier) for A, B in product(algebras, repeat=2)
              for carrier in product(B.lattice.elements(), repeat=A.lattice.size)]
    maps = [MorphismSpec("ia", A, B, carrier, f"m{i}")
            for i, (A, B, carrier) in enumerate(tables)]
    rep = check_adjunction_instance(singleton_algebra(), full_polarity_aks(1),
                                    ia_test_morphisms=maps)
    squares = {c.clause: c for c in rep.checks}
    failed = 0
    for f in maps:
        clause = squares[f"adjunction.naturality-counit[{f.name}]"]
        witness = counit_square_scan(f, counits[id(f.source)], counits[id(f.target)])
        assert (clause.passed, clause.witness) == (witness is None, witness)
        failed += witness is not None
    assert len(maps) == total and 0 < failed < total


def test_naturality_unit_fails_exactly_on_maps_that_are_not_morphisms():
    # the unit square holds on the nose; the clause checks that g is a morphism
    maps = [MorphismSpec("aks", aks2(), aks3(), t, f"g{''.join(map(str, t))}")
            for t in product(range(3), repeat=2)]
    rep = check_adjunction_instance(l2(), aks2(), aks_test_morphisms=maps)
    squares = [c for c in rep.checks if c.clause.startswith("adjunction.naturality-unit")]
    expected = [(f"adjunction.naturality-unit[{g.name}]", not failed,
                 failed[0].clause if failed else None)
                for g in maps for failed in [check_applicative(g).failures()]]
    assert [(c.clause, c.passed, c.witness) for c in squares] == expected
    assert sum(not c.passed for c in squares) == 3


def clauses(rep):
    return [(c.clause, c.passed) for c in rep.checks]


# The oracle of the certificate closed forms: the materialized counit and
# unit with the rule's table and any (t, r), checked by verify_certificate.
COUNIT_INPUTS = ([l2(), heyting3(), singleton_algebra(), diamond()]
                 + [heyting_chain(n) for n in (1, 2, 3)]
                 + [functor_A_obj(x).algebra for x in (aks1(), aks2(), full_polarity_aks(2))])
UNIT_INPUTS = (mined_corpus() + [full_polarity_aks(2)]
               + [functor_K_obj(heyting_chain(n)).aks for n in (1, 2, 3)])


def test_counit_closed_form_matches_the_certificate_check():
    failed = set()
    for algebra in COUNIT_INPUTS:
        eps, cert = AdjunctionData.counit_at(algebra)
        for t, r in product(algebra.lattice.elements(), repeat=2):
            rep = verify_certificate(eps, DensityCertificate(t, cert.h, r))
            assert clauses(counit_certificate(algebra, t, r)) == clauses(rep)
            failed |= {c.clause for c in rep.failures()}
    assert failed == {"cert.t-in-separator", "cert.r-in-separator", "cert.r-uniform",
                      "cert.density"}


def test_counit_uniform_witness_matches_the_scan_over_every_alpha():
    # alpha runs over the representatives only; the scan over every alpha
    # names the same first (sigma, alpha)
    # a valid algebra on the 4-chain whose clause first fails at alpha = e1
    shifted = ImplicativeAlgebra(ImplicativeStructure(
        ExplicitLattice.chain(4), ((2, 3, 3, 3),) + ((1, 2, 3, 3),) * 3), range(4), 3, 3)
    assert validate_algebra(shifted).ok
    failed = 0
    for algebra in COUNIT_INPUTS + [functor_A_obj(aks3()).algebra, shifted]:
        L, app = algebra.lattice, algebra.application
        for r in L.elements():
            rep = counit_certificate(algebra, r, r)
            witness = next(
                (f"(sigma={L.name(s)}, alpha={L.name(a)})"
                 for s in sorted(algebra.separator) for a in L.elements()
                 if not L.leq(app(app(r, s), a), app(s, a))), None)
            assert rep.checks[2].clause == "cert.r-uniform"
            assert rep.checks[2].witness == witness
            failed += witness is not None
    assert failed


def test_counit_certificate_on_a_full_8_computes_few_applications():
    # alpha runs over one representative per class, so the 256 * 256
    # applications of the scan over every alpha cannot come back unseen
    algebra = functor_A_obj(full_polarity_aks(8)).algebra
    st, computed = algebra.structure, []
    app = st._app
    st._app = lambda a, b: computed.append((a, b)) or app(a, b)
    i = combinator_i(st)
    assert counit_certificate(algebra, i, i).ok
    assert 0 < len(computed) <= 2 * 256


def unit_matches_the_certificate_check(aks):
    """Compare the closed form with the oracle on every (t, r); the failed
    clauses of the oracle."""
    eta, cert = AdjunctionData.unit_at(aks)
    failed = set()
    for t, r in product(range(1 << aks.pi_size), repeat=2):
        rep = verify_certificate(eta, DensityCertificate(t, cert.h, r))
        assert clauses(unit_certificate(aks, t, r)) == clauses(rep)
        failed |= {c.clause for c in rep.failures()}
    return failed


def test_unit_closed_form_matches_the_certificate_check():
    failed = set().union(*map(unit_matches_the_certificate_check, UNIT_INPUTS))
    assert failed == {"cert.t-is-quasi-proof", "cert.r-is-quasi-proof", "cert.r-uniform",
                      "cert.density"}


def test_unit_closed_form_needs_only_the_definitions(monkeypatch):
    # random structures, valid or not, with the composites built unchecked
    for name in ("functor_A_obj", "functor_K_obj"):
        monkeypatch.setattr(bridge, name, partial(getattr(bridge, name), validate=False))
    rng = random.Random(1)
    failed = set()
    for m in (2,) * 20 + (3,) * 4:
        push, app = (tuple(tuple(rng.randrange(m) for _ in range(m)) for _ in range(m))
                     for _ in range(2))
        aks = AbstractKrivineStructure(
            tuple("abc"[:m]), tuple(rng.randrange(1 << m) for _ in range(m)),
            push, app, qp=rng.randrange(1, 1 << m), k_elem=0, s_elem=0)
        failed |= unit_matches_the_certificate_check(aks)
    assert {"cert.r-uniform", "cert.density"} <= failed


def test_functor_images_of_the_oracle_inputs_validate():
    # check_adjunction_instance validates only its inputs, not these images
    for algebra in COUNIT_INPUTS:
        assert validate_aks(functor_K_obj(algebra).aks).ok
    for aks in UNIT_INPUTS:
        assert validate_algebra(functor_A_obj(aks).algebra).ok


def test_only_the_functor_wraps_its_image():
    # a powerset algebra is an ImplicativeAlgebra whose structure carries X;
    # the wrapper types are functor_A_obj's and functor_K_obj's return values
    src = Path(bridge.__file__).parent
    wrapped = sorted(path.name for path in src.glob("*.py")
                     if path.name not in ("bridge.py", "__init__.py")
                     and any(name in path.read_text()
                             for name in ("FunctorImageIA", "FunctorImageAKS")))
    assert wrapped == []
