"""Interior operators, the open-set correspondence, approximation, and
implication change."""

import random
from collections import Counter
from itertools import product

import pytest

from krl import interior
from krl.aks import bar_closure
from krl.bridge import functor_A_obj
from krl.enumerators import enumerate_implications, enumerate_interiors, enumerate_lattices
from krl.errors import HypothesisFailed, InvalidClosedPart, NotAlexandroff
from krl.fixtures import (aks3, bar_interior, diamond, diamond_open_x_interior,
                          double_diamond, hat_interior, heyting3,
                          identity_interior, l2, polarity3)
from krl.implicative import (ImplicativeAlgebra, ImplicativeStructure, combinator_i,
                             combinator_k, combinator_s)
from krl.interior import (ClosedPart, InteriorOperator, al_approx,
                          change_implication, closure_from_interior,
                          density_certificates, is_alexandroff, is_topological,
                          operator_leq, theta, theta_inv, validate_interior,
                          _al_approx_general)
from krl.morphism import verify_certificate, compose
from krl.order import ExplicitLattice, PowersetLattice, bits

from interior_oracles import (alexandroff_interiors, interior_tables,
                              oracle_lattices, scan_join_interior,
                              subset_scan_interiors)
from powerset_oracles import scanned_imp_invariance


def test_identity_operator_is_alexandroff():
    for lattice in (l2().lattice, diamond().lattice):
        rep = validate_interior(identity_interior(lattice))
        assert rep.ok and rep.flags["alexandroff"]


def test_constant_bottom_operator_flags():
    lattice = l2().lattice
    op = InteriorOperator(lattice, (0, 0))
    rep = validate_interior(op)
    assert rep.ok
    # the top is not fixed, so neither class flag holds
    assert not rep.flags["topological"] and not rep.flags["alexandroff"]
    assert rep.data["class"] == "plain"


def test_bar_closure_is_interior_but_not_alexandroff():
    rep = validate_interior(bar_interior(polarity3()))
    assert rep.ok
    assert not rep.flags["alexandroff"]
    assert rep.data["flag_notes"]["alexandroff"] == "witness family {{a}, {b}}"


def test_validate_rejects_non_deflationary():
    lattice = l2().lattice
    rep = validate_interior(InteriorOperator(lattice, (1, 1)))
    assert any(c.clause == "interior.deflationary" for c in rep.failures())


def test_closure_of_identity_is_identity():
    lattice = heyting3().lattice
    op = identity_interior(lattice)
    assert closure_from_interior(op) == (0, 1, 2)


def test_closure_on_diamond_open_x():
    # y has a single open upper bound: the top
    table = closure_from_interior(diamond_open_x_interior())
    assert table == (0, 1, 3, 3)


def test_closure_requires_alexandroff():
    with pytest.raises(NotAlexandroff):
        closure_from_interior(bar_interior(polarity3()))


def test_closure_of_hat_against_bar_on_singletons():
    # the closure of the union-of-singleton-bars operator agrees with the
    # bar closure on those singletons whose bar is the singleton itself,
    # and only there: where nothing is orthogonal to a point its bar is
    # the whole carrier while its largest open subset is empty
    p3 = polarity3()
    hat = hat_interior(p3)
    table = closure_from_interior(hat)
    L = hat.lattice
    assert table[L.index_of("{a}")] == bar_closure(p3, 0b001) == 0b001
    assert table[L.index_of("{b}")] == bar_closure(p3, 0b010) == 0b010
    assert table[L.index_of("{c}")] == L.index_of("{}")
    assert bar_closure(p3, 0b100) == 0b111


def test_closure_fixed_points_are_the_opens():
    for op in (hat_interior(polarity3()), diamond_open_x_interior()):
        table = closure_from_interior(op)
        fixed = tuple(a for a in op.lattice.elements() if table[a] == a)
        assert fixed == op.opens()


def test_theta_on_identity_gives_whole_lattice():
    lattice = heyting3().lattice
    part = theta(identity_interior(lattice))
    assert part.members == {0, 1, 2}
    assert part.flavor == "P_c_infty"


def test_theta_inv_on_diamond_part():
    lattice = diamond().lattice
    part = ClosedPart(lattice, frozenset({0, 1, 3}), "P_c")
    op = theta_inv(part)
    assert op.table == (0, 1, 0, 3)


def test_theta_inv_rejects_invalid_part():
    lattice = diamond().lattice
    with pytest.raises(InvalidClosedPart):
        theta_inv(ClosedPart(lattice, frozenset({1, 2}), "P_c"))


def test_theta_roundtrip_over_all_small_lattices():
    for n in (1, 2, 3, 4):
        for lattice in enumerate_lattices(n):
            for op in interior_tables(lattice):
                assert theta_inv(theta(op)).table == op.table
            # and the open-set enumeration produces exactly the same family
            via_tables = sorted(op.table for op in interior_tables(lattice))
            via_opens = sorted(op.table for op in enumerate_interiors(lattice))
            assert via_tables == via_opens


def test_operator_order_gives_open_inclusion():
    lattice = diamond().lattice
    ops = list(enumerate_interiors(lattice))
    for op1 in ops:
        for op2 in ops:
            if operator_leq(op1, op2):
                assert set(op1.opens()) <= set(op2.opens())


def test_alexandroff_opens_are_meet_closed():
    for lattice in (diamond().lattice, double_diamond()):
        for op in alexandroff_interiors(lattice):
            opens = list(op.opens())
            for mask in range(1 << len(opens)):
                sub = [opens[i] for i in bits(mask)]
                assert lattice.meet(sub) in set(opens)


def test_al_approx_fixes_alexandroff_input():
    for op in (identity_interior(diamond().lattice), diamond_open_x_interior(),
               hat_interior(polarity3())):
        assert al_approx(op).table == op.table


def test_al_approx_of_bar_is_hat():
    p3 = polarity3()
    approx = al_approx(bar_interior(p3))
    assert approx.table == hat_interior(p3).table
    L = approx.lattice
    ab = L.index_of("{a b}")
    assert approx.table[ab] == ab
    assert bar_interior(p3).table[ab] == L.index_of("{a b c}")


def brute_force_least_alexandroff(op):
    candidates = [k for k in alexandroff_interiors(op.lattice)
                  if operator_leq(op, k)]
    for k in candidates:
        if all(operator_leq(k, other) for other in candidates):
            return k
    return None


def test_al_approx_is_least_majorant_on_small_lattices():
    for n in (1, 2, 3, 4, 5):
        for lattice in enumerate_lattices(n):
            for op in enumerate_interiors(lattice):
                approx = al_approx(op)
                rep = validate_interior(approx)
                assert rep.ok and rep.flags["alexandroff"]
                assert operator_leq(op, approx)
                least = brute_force_least_alexandroff(op)
                assert least is not None and approx.table == least.table


def test_al_approx_moves_on_double_diamond():
    # opens {bot, x, y, top} are join closed but the meet of x and y is
    # the middle element, so the operator is not Alexandroff and its
    # approximation adds u as an open
    lattice = double_diamond()
    op = theta_inv(ClosedPart(lattice, frozenset({0, 2, 3, 4}), "P_c"))
    assert not is_alexandroff(op)[0]
    approx = al_approx(op)
    assert set(approx.opens()) == {0, 1, 2, 3, 4}


def test_al_approx_general_route_does_not_revalidate_its_part(monkeypatch):
    # the closing loop leaves the opens closed under binary joins and
    # meets, so the operator is read off the part without a second check
    op = theta_inv(ClosedPart(double_diamond(), frozenset({0, 2, 3, 4}), "P_c"))

    def refuse(part):
        raise AssertionError("closed part validated again")
    monkeypatch.setattr(ClosedPart, "validate", refuse)
    assert set(al_approx(op).opens()) == {0, 1, 2, 3, 4}


def test_al_approx_adjointness():
    # least majorant below an alexandroff operator iff below it pointwise
    lattice = double_diamond()
    for op in enumerate_interiors(lattice):
        approx = al_approx(op)
        for tau in alexandroff_interiors(lattice):
            assert operator_leq(approx, tau) == operator_leq(op, tau)


def test_change_identity_interior_returns_base_data():
    base = l2()
    ch = change_implication(base, identity_interior(base.lattice))
    assert ch.opens == (0, 1)
    assert ch.report.ok
    assert ch.separator_iota == base.separator
    # the designated combinators land below the canonical bounds
    assert base.lattice.leq(ch.k_iota, 1)


def test_change_rejects_non_alexandroff():
    A3 = functor_A_obj(aks3()).algebra
    with pytest.raises(HypothesisFailed) as exc:
        change_implication(A3, bar_interior(aks3()))
    assert exc.value.clause == "alexandroff"


def test_change_diamond_fails_i_bound_at_y():
    with pytest.raises(HypothesisFailed) as exc:
        change_implication(diamond(), diamond_open_x_interior())
    assert exc.value.clause == "i-bound" and exc.value.witness == "y"


def test_change_compatibility_failure():
    # an operator moving the top out of the separator on the two-chain
    base = l2()
    op = InteriorOperator(base.lattice, (0, 0))
    with pytest.raises(HypothesisFailed) as exc:
        change_implication(base, op)
    assert exc.value.clause in ("alexandroff", "compatibility")


def test_change_on_realizability_algebra_of_aks3():
    A3 = functor_A_obj(aks3()).algebra
    hat = hat_interior(aks3())
    ch = change_implication(A3, hat)
    assert ch.report.ok, ch.report.render()
    assert ch.strong_imp_condition
    L = A3.lattice
    # every open pair satisfies the closure equation, spot-check one
    a, b = ch.opens[1], ch.opens[2]
    assert (ch.opens[ch.algebra.application(ch.to_sub[a], ch.to_sub[b])]
            == ch.closure[A3.application(a, b)])
    # implication of the changed algebra is the interior of the base one
    for x in ch.opens:
        for y in ch.opens:
            assert ch.imp_iota(x, y) == hat.table[A3.imp(x, y)]


def test_interior_invariance_lemma_consequences():
    # when interiors leave implications unchanged, the identity action is
    # dominated by the operator and applications ignore interiors on the
    # right
    A3 = functor_A_obj(aks3()).algebra
    hat = hat_interior(aks3())
    st = A3.structure
    L = A3.lattice
    i_comb = combinator_i(st)
    for a in L.elements():
        assert L.leq(st.application(i_comb, a), hat.table[a])
        assert L.leq(hat.table[a], a)
        for b in L.elements():
            assert st.application(a, hat.table[b]) == st.application(a, b)


def test_imp_invariance_by_rows_matches_the_scan():
    # every operator on every lattice of at most 4 elements, under every
    # implication of the lattices up to 3 elements and a drawn sample of
    # those of 4
    rng = random.Random(7)
    verdicts = Counter()
    for n in range(1, 5):
        for L in enumerate_lattices(n):
            imps = list(enumerate_implications(L))
            if n == 4:
                imps = rng.sample(imps, 2000)
            ops = list(enumerate_interiors(L))
            for table in imps:
                st = ImplicativeStructure(L, table)
                for op in ops:
                    got = interior._imp_invariant(st, op.table)
                    assert got == scanned_imp_invariance(st, op), (L.up, table, op.table)
                    verdicts[got, op.table == tuple(L.elements())] += 1
    # the identity always, other operators both ways
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def non_invariant_change():
    """An algebra on the Boolean 4-element lattice and an operator that meets
    the three hypotheses of the change but not implication invariance:
    iota(e2) = e0, and e0 -> e2 = e3 differs from e2 -> e2 = e1."""
    L = ExplicitLattice(("e0", "e1", "e2", "e3"), (15, 10, 12, 8))
    st = ImplicativeStructure(L, ((1, 1, 3, 3), (0, 1, 0, 3), (1, 1, 1, 3), (0, 1, 0, 3)))
    return (ImplicativeAlgebra(st, {1, 3}, combinator_k(st), combinator_s(st)),
            InteriorOperator(L, (0, 1, 0, 3)))


def test_density_certificates_refuse_a_verified_change_without_imp_invariance():
    base, iota = non_invariant_change()
    changed = change_implication(base, iota)
    assert changed.report.ok and not changed.strong_imp_condition
    with pytest.raises(HypothesisFailed) as exc:
        density_certificates(base, iota)
    assert exc.value.clause == "imp-invariance"
    # the refusal reads the kept change and builds no other
    assert base._changes == {iota: changed} and change_implication(base, iota) is changed


def test_density_certificates_identity_interior():
    base = heyting3()
    (inc, inc_cert), (cor, cor_cert) = density_certificates(
        base, identity_interior(base.lattice))
    assert verify_certificate(inc, inc_cert).ok
    assert verify_certificate(cor, cor_cert).ok
    assert inc_cert.t == combinator_i(base.structure)


def test_density_certificates_on_aks3_hat():
    A3 = functor_A_obj(aks3()).algebra
    hat = hat_interior(aks3())
    (inc, inc_cert), (cor, cor_cert) = density_certificates(A3, hat)
    assert verify_certificate(inc, inc_cert).ok
    assert verify_certificate(cor, cor_cert).ok
    # the inclusion realizer is the identity combinator
    assert inc_cert.r == combinator_i(A3.structure) == inc_cert.t


def test_interior_morphisms_satisfy_both_uniformity_forms():
    from condition2_oracles import check_condition2_equiv

    A3 = functor_A_obj(aks3()).algebra
    (inc, _), (cor, _) = density_certificates(A3, hat_interior(aks3()))
    for f in (inc, cor):
        rep = check_condition2_equiv(f)
        assert rep.ok, rep.render()


def test_density_composition_is_identity_on_opens():
    A3 = functor_A_obj(aks3()).algebra
    hat = hat_interior(aks3())
    (inc, inc_cert), (cor, cor_cert) = density_certificates(A3, hat)
    composed, cert = compose(inc, cor, inc_cert, cor_cert)
    assert composed.carrier == tuple(range(len(inc.carrier)))
    assert cert is not None and verify_certificate(composed, cert).ok


def test_changed_algebra_meet_commutes_over_open_families():
    A3 = functor_A_obj(aks3()).algebra
    ch = change_implication(A3, hat_interior(aks3()))
    sub = ch.algebra
    L = sub.lattice
    for a in L.elements():
        for mask in range(1 << L.size):
            fam = list(bits(mask))
            lhs = sub.imp(a, L.meet(fam))
            rhs = L.meet([sub.imp(a, b) for b in fam])
            assert lhs == rhs


def test_open_meets_restrict_the_ambient_ones():
    # the open carrier is complete, and its meets are the ambient meets
    A3 = functor_A_obj(aks3()).algebra
    ch = change_implication(A3, hat_interior(aks3()))
    sub = ch.algebra.lattice
    base = A3.lattice
    for mask in range(1 << sub.size):
        fam = list(bits(mask))
        members = [ch.opens[i] for i in fam]
        assert ch.opens[sub.meet(fam)] == base.meet(members)
        assert ch.opens[sub.join(fam)] in set(ch.opens)


def test_al_approx_closed_form_matches_general_route_on_small_powersets():
    for m in range(1, 4):
        L = PowersetLattice("abc"[:m])
        for op in enumerate_interiors(L):
            assert al_approx(op).table == _al_approx_general(op).table


def test_al_approx_on_powersets_uses_only_the_closed_form(monkeypatch):
    def refuse(op):
        raise AssertionError("general route used on a powerset")
    monkeypatch.setattr(interior, "_al_approx_general", refuse)
    approx = al_approx(hat_interior(aks3()))
    assert validate_interior(approx).flags["alexandroff"]
    L4 = PowersetLattice("abcd")
    assert al_approx(identity_interior(L4)).table == tuple(L4.elements())


def test_topological_agrees_with_alexandroff_on_lattices_up_to_five():
    checked = 0
    for n in range(1, 6):
        for lattice in enumerate_lattices(n):
            for op in enumerate_interiors(lattice):
                assert is_topological(op)[0] == is_alexandroff(op)[0]
                checked += 1
    assert checked > 100


def test_validate_interior_decides_alexandroff_once(count_calls):
    counts = count_calls(interior.is_alexandroff)
    for op, klass in ((hat_interior(aks3()), "alexandroff"),
                      (bar_interior(polarity3()), "plain")):
        counts.clear()
        assert validate_interior(op).data["class"] == klass
        assert counts["is_alexandroff"] == 1


def test_monotone_clause_matches_the_pair_scan_on_every_table_up_to_four():
    # the clause is decided on the cover steps; the scan over every
    # comparable pair is its oracle, for the verdict and the witness
    lattices = [L for n in range(1, 5) for L in enumerate_lattices(n)] + [PowersetLattice("ab")]
    for L in lattices:
        for table in product(L.elements(), repeat=L.size):
            clause = next(c for c in validate_interior(InteriorOperator(L, table)).checks
                          if c.clause == "interior.monotone")
            witness = next((f"({L.name(a)}, {L.name(b)})"
                            for a in L.elements() for b in L.elements()
                            if L.leq(a, b) and not L.leq(table[a], table[b])), None)
            assert (clause.passed, clause.witness) == (witness is None, witness)


def test_table_builder_is_the_join_below_on_every_subset():
    # the docstring's claim holds for every member set, join-closed or not,
    # and for labellings that do not follow the order
    for lattice in oracle_lattices():
        table = interior._join_tables(lattice)
        for members in range(1 << lattice.size):
            assert table(members) == tuple(
                lattice.join([b for b in bits(members) if lattice.leq(b, a)])
                for a in lattice.elements())


def test_theta_inv_matches_the_scan_on_every_join_closed_part():
    for lattice in oracle_lattices():
        for op in subset_scan_interiors(lattice):
            part = ClosedPart(lattice, frozenset(op.opens()), "P_c")
            assert theta_inv(part) == scan_join_interior(part) == op
