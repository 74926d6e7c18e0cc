"""Implicative structures: application, adjunction, combinators, separators."""

import random
from argparse import Namespace
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as hs

import application_oracles
from krl import implicative, order
from krl.aks import full_polarity_aks
from krl.bridge import functor_A_obj, krivine_structure
from krl.enumerators import enumerate_implications, enumerate_lattices
from krl.errors import LatticeError, VerificationFailed
from krl.fixtures import diamond, heyting3, l2, mined_corpus, singleton_algebra
from krl.implicative import (ImplicativeAlgebra, ImplicativeStructure,
                             check_adjunction, combinator_cc, combinator_i,
                             combinator_k, combinator_nu, combinator_s,
                             separator_closure, validate_algebra,
                             validate_structure, _application_is_adjoint, _s_fold)
from krl.morphism import check_applicative, identity_morphism
from krl.order import (ExplicitLattice, bits, unpreserved_pair, up_preimages, upward_closure,
                       validate_lattice)

from application_oracles import cells, chain, law_failures
from entailment_oracles import entails, uniform_entails
from test_bridge import heyting_chain
from test_order import MASK_LATTICES, lattices_up_to, mask_tables, scanned_pair, step_row


def oracle_application(structure, a, b):
    """The defining meet, without going through the cached path."""
    L = structure.lattice
    return L.meet([c for c in L.elements() if L.leq(a, structure.imp(b, c))])


def test_l2_application_values():
    st = l2().structure
    assert oracle_application(st, 1, 0) == 0
    assert oracle_application(st, 1, 1) == 1
    assert st.application(1, 0) == 0
    assert st.application(1, 1) == 1


def test_heyting_application_is_meet_by_residuation():
    # in a complete Heyting algebra the adjoint of the implication is the
    # binary meet, so the chain gives min
    st = heyting3().structure
    for a in range(3):
        for b in range(3):
            assert st.application(a, b) == min(a, b) == oracle_application(st, a, b)
    assert st.application(1, 2) == 1


def test_adjunction_holds_on_fixtures():
    for algebra in (l2(), heyting3(), diamond()):
        rep = check_adjunction(algebra.structure)
        assert rep.ok


def test_constant_bottom_imp_half_holds_full_fails():
    # picked from the enumeration of variance-respecting tables on the
    # 2-chain: constant bottom breaks meet-commutation at the empty family
    L2 = ExplicitLattice.chain(2)
    st = ImplicativeStructure(L2, ((0, 0), (0, 0)))
    rep = check_adjunction(st)
    half = next(c for c in rep.checks if c.clause == "adjunction.half")
    full = next(c for c in rep.checks if c.clause == "adjunction.full")
    assert half.passed and not full.passed
    # 1 o 0 is the empty meet = top <= 1, yet 1 <= (0 -> 1) = bot fails
    assert full.witness == "(e1, e0, e1)"
    srep = validate_structure(st)
    assert not srep.ok
    meet_comm = next(c for c in srep.checks if c.clause == "imp.meet-commutation")
    assert not meet_comm.passed


def test_meet_commutation_empty_family_flags_quasi():
    # agrees with meets of nonempty families only: quasi-implicative
    L2 = ExplicitLattice.chain(2)
    st = ImplicativeStructure(L2, ((0, 0), (0, 0)))
    rep = validate_structure(st)
    assert rep.flags["quasi-implicative"]


@pytest.mark.parametrize("n", [2, 3])
def test_half_adjunction_holds_for_every_variance_respecting_imp(n):
    chain = ExplicitLattice.chain(n)
    for table in enumerate_implications(chain):
        st = ImplicativeStructure(chain, table)
        rep = check_adjunction(st)
        assert next(c for c in rep.checks if c.clause == "adjunction.half").passed


def triple_scan_witnesses(structure):
    """The ``adjunction.half`` and ``adjunction.full`` witnesses of the
    scan over every triple that the Galois rule replaced."""
    L = structure.lattice
    nm, E, up, cell = L.name, L.elements(), L.up, cells(structure)
    app = [[cell(a, b) for b in E] for a in E]
    imp = structure.imp_table()
    half = full = None
    for a, b, c in product(E, repeat=3):
        lhs = up[app[a][b]] >> c & 1
        rhs = up[a] >> imp[b][c] & 1
        if rhs and not lhs and half is None:
            half = f"({nm(a)}, {nm(b)}, {nm(c)})"
        if lhs != rhs and full is None:
            full = f"({nm(a)}, {nm(b)}, {nm(c)})"
    return half, full


def test_adjunction_clauses_match_the_triple_scan_on_every_table_up_to_three():
    by_rule = 0
    for L in (L for n in (1, 2, 3) for L in enumerate_lattices(n)):
        n = L.size
        for flat in product(range(n), repeat=n * n):
            st = ImplicativeStructure(L, [flat[a * n:(a + 1) * n] for a in range(n)])
            half, full = check_adjunction(st).checks
            assert (half.witness, full.witness) == triple_scan_witnesses(st)
            assert (half.passed, full.passed) == (half.witness is None, full.witness is None)
            by_rule += full.passed
    assert by_rule > 0


def test_combinators_on_l2():
    st = l2().structure
    assert (combinator_i(st), combinator_k(st), combinator_s(st),
            combinator_cc(st)) == (1, 1, 1, 1)


def test_combinators_on_heyting3():
    st = heyting3().structure
    assert combinator_cc(st) == 1  # the middle element: Peirce fails
    assert combinator_i(st) == 2
    assert combinator_k(st) == 2
    assert combinator_s(st) == 2


def test_combinators_on_singleton():
    st = singleton_algebra().structure
    assert {combinator_i(st), combinator_k(st), combinator_s(st),
            combinator_cc(st)} == {0}


def oracle_peirce(structure):
    L = structure.lattice
    return L.meet([
        structure.imp(structure.imp(structure.imp(a, b), a), a)
        for a in L.elements() for b in L.elements()])


def oracle_k(structure):
    """The meet of every a -> b -> a, by the pair scan."""
    L = structure.lattice
    return L.meet([structure.imp(a, structure.imp(b, a))
                   for a in L.elements() for b in L.elements()])


def test_peirce_oracle_matches():
    for algebra in (l2(), heyting3(), diamond()):
        assert combinator_cc(algebra.structure) == oracle_peirce(algebra.structure)


def old_s_fold(structure):
    """The meet of (a -> b -> c) -> (a -> b) -> a -> c over every triple,
    folded as combinator_s did before the row and meet-irreducible rules."""
    L, imp = structure.lattice, structure.imp
    acc = L.top
    for a, b, c in product(L.elements(), repeat=3):
        acc = L.meet2(acc, imp(imp(a, imp(b, c)), imp(imp(a, b), imp(a, c))))
    return acc


def assert_s_rules_match_the_fold(structure):
    """The fold with one a per row equals the triple fold, and so does
    combinator_s; on an implicative structure, so does the fold over the
    meet-irreducibles."""
    L = structure.lattice
    value = old_s_fold(structure)
    assert _s_fold(structure, L.elements()) == combinator_s(structure) == value
    implicative = validate_structure(structure).ok
    if implicative:
        assert _s_fold(structure, L.meet_irreducibles) == value
    return implicative


def test_s_rules_match_the_fold_on_every_enumerated_table_up_to_three():
    implicative = tables = 0
    for L in (L for n in (1, 2, 3) for L in enumerate_lattices(n)):
        for table in enumerate_implications(L):
            implicative += assert_s_rules_match_the_fold(ImplicativeStructure(L, table))
            tables += 1
    assert 0 < implicative < tables


def meet_preserving_maps(L):
    """Self-maps that keep the top and every binary meet."""
    E = L.elements()
    return [t for t in product(E, repeat=L.size) if t[L.top] == L.top
            and all(t[L.meet2(a, b)] == L.meet2(t[a], t[b]) for a in E for b in E)]


def sampled_implicative_tables(L, count, rng):
    """``count`` implication tables whose rows preserve meets and are
    antitone in a: each row is drawn, top element first, from the
    meet-preserving maps above the rows of every element above it."""
    maps = meet_preserving_maps(L)
    for _ in range(count):
        rows = [None] * L.size
        # order-consistent labels: every element above a has a larger label
        for a in reversed(L.elements()):
            above = [rows[x] for x in bits(L.up[a]) if x != a]
            rows[a] = rng.choice([t for t in maps if all(
                L.leq(u[b], t[b]) for u in above for b in L.elements())])
        yield ImplicativeStructure(L, rows)


def is_distributive(L):
    E = L.elements()
    return all(L.meet2(a, L.join2(b, c)) == L.join2(L.meet2(a, b), L.meet2(a, c))
               for a in E for b in E for c in E)


def test_s_rules_match_the_fold_on_sampled_tables_of_four_and_five():
    rng = random.Random(8)
    lattices = list(enumerate_lattices(4)) + list(enumerate_lattices(5))
    # the non-distributive ones are labelings of N5 (5 covers) and M3 (6)
    assert {len(L.covers) for L in lattices if not is_distributive(L)} == {5, 6}
    for L in lattices:
        distinct = set()
        for structure in sampled_implicative_tables(L, 30, rng):
            assert assert_s_rules_match_the_fold(structure)
            distinct.add(old_s_fold(structure))
        assert len(distinct) > 1


def test_nu_on_fixtures():
    assert combinator_nu(l2()) == 1
    assert combinator_nu(singleton_algebra()) == 0
    h3 = heyting3()
    nu = combinator_nu(h3)
    assert nu == 2
    st = h3.structure
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert st.lattice.leq(st.apply_chain(nu, a, b, c),
                                      st.application(a, st.application(b, c)))


def test_nu_verification_failure_on_broken_fixture():
    # stored s outside the separator drags the composition combinator out
    # of it as well: 0 (1 0) 1 evaluates to bottom, not a member of {top}
    L2 = ExplicitLattice.chain(2)
    st = ImplicativeStructure(L2, ((1, 1), (0, 1)))
    broken = ImplicativeAlgebra(st, {1}, k=1, s=0)
    with pytest.raises(VerificationFailed):
        combinator_nu(broken)


def test_separator_closure_examples():
    st = l2().structure
    assert separator_closure(st, ()) == {1}
    h3 = heyting3().structure
    assert separator_closure(h3, {1}) == {1, 2}
    assert separator_closure(h3, set(range(3))) == {0, 1, 2}


def enumerate_separators(structure):
    """All separators by brute force: every subset satisfying the axioms."""
    L = structure.lattice
    k, s = combinator_k(structure), combinator_s(structure)
    out = []
    for mask in range(1 << L.size):
        members = {i for i in bits(mask)}
        if k not in members or s not in members:
            continue
        if any(L.leq(a, b) and b not in members
               for a in members for b in L.elements()):
            continue
        if any(structure.imp(a, b) in members and b not in members
               for a in members for b in L.elements()):
            continue
        out.append(frozenset(members))
    return out


@pytest.mark.parametrize("algebra", [l2(), heyting3(), diamond()])
def test_separator_closure_is_minimal(algebra):
    st = algebra.structure
    for gen_mask in range(1 << st.lattice.size):
        gens = frozenset(bits(gen_mask))
        closure = separator_closure(st, gens)
        containing = [sep for sep in enumerate_separators(st) if gens <= sep]
        expected = frozenset.intersection(*containing)
        assert closure == expected
        assert validate_algebra(
            ImplicativeAlgebra(st, closure,
                               combinator_k(st), combinator_s(st))).ok


def test_validate_l2_flags():
    rep = validate_algebra(l2())
    assert rep.ok and rep.flags["classical"] and rep.flags["consistent"]


def test_validate_heyting3_not_classical():
    rep = validate_algebra(heyting3())
    assert rep.ok and not rep.flags["classical"] and rep.flags["consistent"]


def test_validate_full_separator_not_consistent():
    st = l2().structure
    rep = validate_algebra(ImplicativeAlgebra(st, {0, 1}, 1, 1))
    assert rep.ok and rep.flags["classical"] and not rep.flags["consistent"]


def test_validate_catches_separator_violations():
    st = heyting3().structure
    rep = validate_algebra(ImplicativeAlgebra(st, {1, 2}, 2, 2))
    # {m, top} is not closed under modus ponens: m -> 0 = 0 is outside but
    # upward closure is fine; modus ponens on (m, 0): m->0=0 not in S, ok;
    # actually {m, top} is upward closed and MP-closed, so it is a separator
    assert rep.ok
    rep = validate_algebra(ImplicativeAlgebra(st, {1}, 1, 1))
    failed = {c.clause for c in rep.failures()}
    assert "k.bound" in failed or "separator.has-k" not in failed


def test_entails_on_l2():
    algebra = l2()
    wit = entails(algebra, 0, 1)
    assert wit is not None and wit.realizer == 1
    assert entails(algebra, 1, 0) is None


def test_uniform_entails():
    algebra = l2()
    assert uniform_entails(algebra, ()) == algebra.lattice.top
    assert uniform_entails(algebra, [(0, 1), (1, 1)]) == 1
    assert uniform_entails(algebra, [(1, 0)]) is None


def test_entailment_preorders():
    # reflexive and transitive, and the uniform relation implies the
    # pointwise one on every pair family
    for algebra in (l2(), heyting3()):
        elems = list(algebra.lattice.elements())
        for a in elems:
            assert entails(algebra, a, a) is not None
        for a in elems:
            for b in elems:
                for c in elems:
                    if entails(algebra, a, b) and entails(algebra, b, c):
                        assert entails(algebra, a, c) is not None
        all_pairs = [(a, b) for a in elems for b in elems]
        for mask in range(1 << len(all_pairs)):
            pairs = [all_pairs[i] for i in bits(mask)]
            if uniform_entails(algebra, pairs) is not None:
                assert all(entails(algebra, a, b) for a, b in pairs)


def test_unit_counit_inequalities():
    for algebra in (l2(), heyting3(), diamond()):
        st = algebra.structure
        L = st.lattice
        for a in L.elements():
            for b in L.elements():
                assert L.leq(a, st.imp(b, st.application(a, b)))
                assert L.leq(st.application(st.imp(a, b), a), b)


def test_implication_of_meets_collapses():
    # inf{c -> d : c <= inf C, d in D} = inf C -> inf D
    for algebra in (l2(), heyting3(), diamond()):
        st = algebra.structure
        L = st.lattice
        n = L.size
        for c_mask in range(1 << n):
            inf_c = L.meet(list(bits(c_mask)))
            for d_mask in range(1 << n):
                inf_d = L.meet(list(bits(d_mask)))
                lhs = L.meet([st.imp(c, d)
                              for c in L.elements() if L.leq(c, inf_c)
                              for d in bits(d_mask)])
                assert lhs == st.imp(inf_c, inf_d)


def test_applied_combinator_laws_hold_on_fixtures():
    for algebra in (l2(), heyting3(), diamond()):
        st = algebra.structure
        L = st.lattice
        for a in L.elements():
            for b in L.elements():
                assert L.leq(st.apply_chain(algebra.k, a, b), a)
                for c in L.elements():
                    lhs = st.apply_chain(algebra.s, a, b, c)
                    rhs = st.application(st.application(a, c),
                                         st.application(b, c))
                    assert L.leq(lhs, rhs)


def applied_law_scans(algebra):
    """The first failing pair of k a b <= a and triple of s a b c <= ac(bc),
    each None when the law holds on every tuple."""
    L, app = algebra.lattice, cells(algebra.structure)
    E = L.elements()
    k_law = next(((a, b) for a in E for b in E
                  if not L.leq(chain(app, algebra.k, a, b), a)), None)
    s_law = next(((a, b, c) for a in E for b in E for c in E
                  if not L.leq(chain(app, algebra.s, a, b, c),
                               app(app(a, c), app(b, c)))), None)
    return k_law, s_law


def law_algebras():
    """Every fourth variance-respecting table on the chains of 1 to 3
    elements with every choice of k and s; every table on the 3-chain that
    is the top outside the bottom's row, most of them not monotone in the
    second argument, with every k and s; on the 2-chain, each
    variance-respecting table with every application table given as its
    closed form, adjoint or not; the fixtures; and the powerset algebras
    of the mined and full-polarity structures."""
    for n in (1, 2, 3):
        L = ExplicitLattice.chain(n)
        tables = list(enumerate_implications(L))[::4]
        for table, k, s in product(tables, L.elements(), L.elements()):
            yield ImplicativeAlgebra(ImplicativeStructure(L, table), {n - 1}, k, s)
    L = ExplicitLattice.chain(3)
    for row, k, s in product(product(range(3), repeat=3), range(3), range(3)):
        st = ImplicativeStructure(L, (row, (2, 2, 2), (2, 2, 2)))
        yield ImplicativeAlgebra(st, {2}, k, s)
    L = ExplicitLattice.chain(2)
    for table, flat in product(enumerate_implications(L), product(range(2), repeat=4)):
        app = ((flat[0], flat[1]), (flat[2], flat[3]))
        st = ImplicativeStructure(L, table, app=lambda a, b, app=app: app[a][b])
        yield ImplicativeAlgebra(st, {1}, 1, 1)
    yield from (l2(), heyting3(), diamond(), singleton_algebra())
    for aks in mined_corpus() + [full_polarity_aks(2)]:
        yield functor_A_obj(aks).algebra


def test_applied_laws_by_the_bounds_match_their_scans():
    # on an implicative structure, k.bound and s.bound decide the laws
    # the adjoint and the bounds decide the laws; a supplied application that
    # is not the adjoint falls back to the scans
    by_theorem = failed = 0
    for algebra in law_algebras():
        rep = validate_algebra(algebra)
        clause = {c.clause: c for c in rep.checks}
        k_law, s_law = applied_law_scans(algebra)
        assert clause["law.k-applied"].passed == (k_law is None)
        assert clause["law.s-applied"].passed == (s_law is None)
        by_theorem += check_adjunction(algebra.structure).ok and all(
            clause[c].passed for c in ("imp.variance", "imp.meet-commutation",
                                       "k.bound", "s.bound"))
        failed += k_law is not None or s_law is not None
    assert by_theorem > 0 and failed > 0


def nu_outcome(algebra):
    """The value of combinator_nu, or the message it raises."""
    try:
        return combinator_nu(algebra)
    except VerificationFailed as exc:
        return str(exc)


def principal_algebras():
    """Every variance-respecting table on every lattice of 1 to 3 elements,
    with every principal separator and every k and s in it."""
    for L in (L for n in (1, 2, 3) for L in enumerate_lattices(n)):
        for table in enumerate_implications(L):
            for x in L.elements():
                sep = sorted(upward_closure(L, [x]))
                for k, s in product(sep, repeat=2):
                    yield ImplicativeAlgebra(ImplicativeStructure(L, table), sep, k, s)


@pytest.mark.parametrize("source", [principal_algebras, law_algebras],
                         ids=["lattices-up-to-3", "law-algebras"])
def test_nu_by_rule_matches_the_triple_scan(source, monkeypatch):
    # the rule must give the value or the message of the scan it skips
    algebras = list(source())
    decided = Counter()
    rule = implicative._laws_follow

    def counted(*args):
        result = rule(*args)
        decided[result] += 1
        return result

    monkeypatch.setattr(implicative, "_laws_follow", counted)
    got = [nu_outcome(algebra) for algebra in algebras]
    monkeypatch.setattr(implicative, "_laws_follow", lambda *args: False)
    assert got == [nu_outcome(algebra) for algebra in algebras]
    raised = sum(isinstance(outcome, str) for outcome in got)
    assert decided[True] and decided[False] and 0 < raised < len(got)
    if source is principal_algebras:
        assert (len(got), raised) == (2481, 1324)


def test_nu_on_valid_algebras_runs_no_triple_scan(monkeypatch):
    # the triple scan compares one pair of table cells per triple; the rule
    # compares k and s with their bounds, once each
    full4, h24 = functor_A_obj(full_polarity_aks(4)).algebra, heyting_chain(24)
    for algebra in (full4, h24):
        validate_algebra(algebra)
    compared = Counter()
    for cls in (order.PowersetLattice, ExplicitLattice):
        def counted(self, a, b, _leq=cls.leq):
            compared[self.size] += 1
            return _leq(self, a, b)
        monkeypatch.setattr(cls, "leq", counted)
    assert (combinator_nu(full4), combinator_nu(h24)) == (15, 23)
    assert compared == {16: 2, 24: 2}
    # the same calls with the rule taken away scan every triple
    compared.clear()
    monkeypatch.setattr(implicative, "_laws_follow", lambda *args: False)
    assert (combinator_nu(full4), combinator_nu(h24)) == (15, 23)
    assert compared == {16: 16 ** 3, 24: 24 ** 3}


def scanned_validate_algebra(algebra):
    """validate_algebra with the separator clauses, k.bound and the
    classical flag decided by their full scans, as before the cover, row
    and fold rules."""
    st = algebra.structure
    L = algebra.lattice
    nm = L.name
    sep = algebra.separator
    rep = validate_structure(st)
    rep.name = "implicative-algebra"
    if rep.checks[0].clause.startswith("order."):
        return rep
    implicative = rep.ok

    elems = L.elements()
    witness = next((f"({nm(a)} <= {nm(b)})" for a in sep for b in elems
                    if L.leq(a, b) and b not in sep), None)
    rep.check("separator.upward-closed", witness is None, witness)

    witness = next((f"(a={nm(a)}, b={nm(b)})" for a in sep for b in elems
                    if st.imp(a, b) in sep and b not in sep), None)
    rep.check("separator.modus-ponens", witness is None, witness)

    rep.check("separator.has-k", algebra.k in sep,
              None if algebra.k in sep else nm(algebra.k))
    rep.check("separator.has-s", algebra.s in sep,
              None if algebra.s in sep else nm(algebra.s))

    k_bound = oracle_k(st)
    k_ok = rep.check("k.bound", L.leq(algebra.k, k_bound),
                     None if L.leq(algebra.k, k_bound) else f"k={nm(algebra.k)} > {nm(k_bound)}")
    s_bound = _s_fold(st, L.meet_irreducibles if implicative else elems)
    s_ok = rep.check("s.bound", L.leq(algebra.s, s_bound),
                     None if L.leq(algebra.s, s_bound) else f"s={nm(algebra.s)} > {nm(s_bound)}")

    adjoint = implicative and _application_is_adjoint(st)
    k_law, s_law = law_failures(algebra)
    witness = None if adjoint and k_ok else k_law
    rep.check("law.k-applied", witness is None, witness)
    witness = None if adjoint and s_ok else s_law
    rep.check("law.s-applied", witness is None, witness)

    rep.flag("classical", oracle_peirce(st) in sep)
    rep.flag("consistent", L.meet(L.elements()) not in sep)
    return rep


def separator_algebras(rng):
    """On every lattice of 1 to 5 elements (the chains among them), up to 30
    variance-respecting tables, on 5 elements half of them also
    meet-commuting, and 10 random tables, each with four separators:
    everything, the top alone, the up-set of an element, and a random
    subset; k and s are the canonical bounds or random."""
    for L in (L for n in (1, 2, 3, 4, 5) for L in enumerate_lattices(n)):
        E, n = list(L.elements()), L.size
        if n < 4:
            tables = list(enumerate_implications(L))
            tables = rng.sample(tables, min(len(tables), 30))
        elif n == 4:
            tables = list(islice(enumerate_implications(L), 0, 6_000, 200))
        else:
            tables = ([st.imp_table() for st in sampled_implicative_tables(L, 15, rng)]
                      + list(islice(enumerate_implications(L), 0, 3_000, 200)))
        tables += [[[rng.randrange(n) for _ in E] for _ in E] for _ in range(10)]
        for table in tables:
            st = ImplicativeStructure(L, table)
            ks, ss = (combinator_k(st), rng.choice(E)), (combinator_s(st), rng.choice(E))
            for sep in (E, [L.top], upward_closure(L, [rng.choice(E)]),
                        rng.sample(E, rng.randint(1, n))):
                yield ImplicativeAlgebra(st, sep, rng.choice(ks), rng.choice(ss))


def test_separator_and_fold_rules_match_the_scans_on_small_lattices():
    outcomes = Counter()
    for algebra in separator_algebras(random.Random(3)):
        rep, scanned = validate_algebra(algebra), scanned_validate_algebra(algebra)
        assert (rep.checks, rep.flags, rep.data) == (scanned.checks, scanned.flags, scanned.data)
        outcomes.update(c.clause for c in rep.failures())
        outcomes["implicative"] += validate_structure(algebra.structure).ok
        outcomes["classical"] += rep.flags["classical"]
    for clause in ("separator.upward-closed", "separator.modus-ponens", "k.bound",
                   "imp.variance", "implicative", "classical"):
        assert outcomes[clause], clause


# ------------------------------------------- application by the row masks


def by_definition_structure(L, table):
    """The table with the defining meet supplied as its application, so
    that no cell is read off the masks and nothing is decided by theorem."""
    oracle = ImplicativeStructure(L, table, app=lambda a, b: oracle_application(oracle, a, b))
    return oracle


def mask_column(L, row):
    """a b for every a, read off the masks of b's row as the structure
    does: the least element of U_a, the top when U_a is empty, and None
    when U_a is not principal."""
    least = L.least_of_up_set
    return [least.get(u) if u else L.top for u in up_preimages(L, row)]


def assert_masks_match_the_definitions(L, table):
    """The masks of every meet-preserving row give its column by the
    defining meet; the adjoint verdict is the one the unit, counit and
    monotone checks give, and after it every cell is the defining meet.
    Returns whether meet-commutation passes, that is, whether the theorem
    decided."""
    st, oracle = ImplicativeStructure(L, table), by_definition_structure(L, table)
    E = L.elements()
    for b in E:
        if scanned_pair(L, L, st.rows[b]) is None:
            assert mask_column(L, st.rows[b]) == [oracle.application(a, b) for a in E]
    assert st.adjoint == _application_is_adjoint(oracle)
    assert [[st.application(a, b) for b in E] for a in E] == [
        [oracle.application(a, b) for b in E] for a in E]
    return next(c.passed for c in validate_structure(st).checks
                if c.clause == "imp.meet-commutation")


def test_masks_match_the_definitions_on_every_enumerated_table_up_to_three():
    outcomes = Counter()
    for L in lattices_up_to(3):
        for table in enumerate_implications(L):
            outcomes[assert_masks_match_the_definitions(L, table)] += 1
    assert outcomes[True] and outcomes[False]


@hs.composite
def mask_structures(draw):
    """A table on a fixture or six-element lattice: every row preserving
    every meet, or each row arbitrary or a meet of steps, either way
    sometimes with one entry changed."""
    L = draw(hs.sampled_from(MASK_LATTICES))
    value = hs.sampled_from(L.elements())
    if draw(hs.booleans()):
        table = [list(step_row(L, draw(hs.lists(hs.tuples(value, value), max_size=3))))
                 for _ in L.elements()]
        if L.size > 1 and draw(hs.booleans()):
            a, b = draw(value), draw(value)
            table[a][b] = draw(value.filter(lambda v: v != table[a][b]))
    else:
        table = [draw(mask_tables(L)) for _ in L.elements()]
    return L, table


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mask_structures())
def test_masks_match_the_definitions_on_drawn_tables(structure):
    assert_masks_match_the_definitions(*structure)


def test_the_48_chain_is_checked_without_cells_by_definition_or_pair_scans(count_calls):
    A = heyting_chain(48)
    counts = count_calls(ImplicativeStructure.application_by_definition,
                         order.first_failing_pair, implicative._application_is_adjoint)
    assert validate_algebra(A).ok and check_applicative(identity_morphism(A, "ia")).ok
    assert counts == {} and A.structure._app_rows is not None and not A.structure._app_cache
    # the counters count: a row that fails names its pair by the scan
    L = A.lattice
    assert unpreserved_pair(L, L, [0] + [L.top] * (L.size - 1)) is None
    assert unpreserved_pair(L, L, [L.top] + [0] * (L.size - 1)) == (0, 1)
    assert counts == {"first_failing_pair": 1}


# --------------------------------------------- one application table


def dummy_table(L):
    """a -> b = b: valid with the whole lattice as separator."""
    return [list(L.elements()) for _ in L.elements()]


def tle_table(L):
    """a -> b = top if a <= b, else b: Heyting on a chain, failing
    meet-commutation elsewhere."""
    return [[L.top if L.leq(a, b) else b for b in L.elements()] for a in L.elements()]


def table_structures():
    """(lattice, implication table): every enumerated table on the
    lattices of at most 3 elements, meet-commuting or not; the 39
    six-element lattices with the dummy and the 'top if a <= b' tables;
    and seeded random tables, mostly not monotone, on up to 7 elements."""
    for L in lattices_up_to(3):
        for table in enumerate_implications(L):
            yield L, table
    for L in enumerate_lattices(6):
        yield L, dummy_table(L)
        yield L, tle_table(L)
    rng = random.Random(22)
    for n in range(1, 8):
        lattices = list(enumerate_lattices(n))
        for L in rng.sample(lattices, min(len(lattices), 6)):
            for _ in range(5):
                yield L, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]


def test_the_table_is_the_defining_meet_on_every_cell():
    folded = structures = 0
    for L, table in table_structures():
        assert validate_lattice(L).ok
        st = ImplicativeStructure(L, table)
        E = L.elements()
        assert st.app_rows == tuple(tuple(st.application_by_definition(a, b) for b in E)
                                    for a in E)
        assert all(st.application(a, b) == st.app_rows[a][b] for a in E for b in E)
        folded += any(u and u not in L.least_of_up_set
                      for row in st.distinct_rows for u in up_preimages(L, row))
        structures += 1
    # the AND-fold of the down-sets, not only the principal lookup, was read
    assert structures == 182 + 78 + 115 and folded > 100, folded


def table_algebras(rng):
    """On each of :func:`table_structures`, three algebras: the whole
    lattice, the top alone and the up-set of a random element as
    separator, with k and s the canonical bounds or random."""
    for L, table in table_structures():
        st, E = ImplicativeStructure(L, table), list(L.elements())
        ks, ss = (combinator_k(st), rng.choice(E)), (combinator_s(st), rng.choice(E))
        for sep in (E, [L.top], upward_closure(L, [rng.choice(E)])):
            yield L, table, sep, rng.choice(ks), rng.choice(ss)


def scan_answers(data, by_cells):
    """validate_algebra, combinator_nu and check_adjunction on a fresh
    algebra, with the scans that read every cell indexing the table, or
    cell by cell (``application_oracles``)."""
    L, table, sep, k, s = data
    algebra = ImplicativeAlgebra(ImplicativeStructure(L, table), sep, k, s)
    rep = validate_algebra(algebra)
    if by_cells:
        nu, adjunction = (application_oracles.nu_outcome(algebra),
                          application_oracles.check_adjunction(algebra.structure))
    else:
        nu, adjunction = nu_outcome(algebra), check_adjunction(algebra.structure)
    return ((rep.checks, rep.flags, rep.data), nu,
            (adjunction.checks, adjunction.flags, adjunction.data))


@pytest.mark.parametrize("rules", [True, False], ids=["rules", "scans-forced"])
def test_table_scans_match_the_per_cell_scans(rules, monkeypatch):
    # with the rules taken away, the scans run on valid algebras too
    if not rules:
        monkeypatch.setattr(implicative, "_laws_follow", lambda *args: False)
        monkeypatch.setattr(ImplicativeStructure, "adjoint", property(lambda self: False))
    algebras = list(table_algebras(random.Random(7)))
    by_table = [scan_answers(data, False) for data in algebras]
    monkeypatch.setattr(implicative, "_applied_law_failures", application_oracles.law_failures)
    assert by_table == [scan_answers(data, True) for data in algebras]
    failed = Counter(c.clause for (checks, _, _), _, _ in by_table
                     for c in checks if not c.passed)
    failed.update("nu" for _, nu, _ in by_table if isinstance(nu, str))
    failed.update(c.clause for _, _, (checks, _, _) in by_table
                  for c in checks if not c.passed)
    # a defined application keeps the half clause: a <= b -> c puts c among
    # the elements whose meet is a b
    for what in ("law.k-applied", "law.s-applied", "nu", "adjunction.full"):
        assert failed[what], what


def test_the_six_element_tle_algebras_build_one_table_by_the_masks(count_calls):
    algebras = [ImplicativeAlgebra(ImplicativeStructure(L, tle_table(L)), [L.top],
                                   L.top, L.top) for L in enumerate_lattices(6)]
    counts = count_calls(ImplicativeStructure.application_by_definition,
                         ImplicativeStructure._app_table)
    failed = 0
    for algebra in algebras:
        failed += not validate_algebra(algebra).ok
        nu_outcome(algebra)
        check_adjunction(algebra.structure)
    assert counts == {"_app_table": 39} and max(counts.per_object.values()) == 1
    assert 0 < failed < 39


def test_orders_that_fail_their_check_raise_their_first_failed_clause():
    # nu and K(A) ask for meets: on an order that fails its check both raise
    # LatticeError naming its first failed clause, and on a lattice they give
    # what the per-cell oracles give
    rng = random.Random(5)
    outcomes = Counter()

    def outcome(fn, algebra):
        try:
            result = fn(algebra)
        except LatticeError as exc:
            return "LatticeError", str(exc)
        return result.app if hasattr(result, "app") else result

    def krivine_by_cells(algebra):
        app, E = application_oracles.cells(algebra.structure), algebra.lattice.elements()
        return Namespace(app=tuple(tuple(app(s, t) for t in E) for s in E))

    for _ in range(600):
        n = rng.randint(2, 4)
        up = [1 << a | sum(1 << b for b in range(n) if rng.random() < 0.4) for a in range(n)]
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        sep, k, s = rng.sample(range(n), rng.randint(1, n)), rng.randrange(n), rng.randrange(n)

        def fresh():
            L = ExplicitLattice([f"e{a}" for a in range(n)], up)
            return ImplicativeAlgebra(ImplicativeStructure(L, table), sep, k, s)
        for by_table, by_cells in ((nu_outcome, application_oracles.nu_outcome),
                                   (krivine_structure, krivine_by_cells)):
            got = outcome(by_table, fresh())
            assert got == outcome(by_cells, fresh())
            lattice_error = isinstance(got, tuple) and got[0] == "LatticeError"
            first = next(iter(fresh().lattice.order_failures), None)
            assert lattice_error == (first is not None)
            assert not lattice_error or got[1] == (
                f"not a complete lattice: {first.clause} fails at {first.witness}")
            outcomes["LatticeError" if lattice_error else type(got).__name__] += 1
    # LatticeError, the message of a failing nu, a value of nu, a table
    assert outcomes.keys() == {"LatticeError", "str", "int", "tuple"}
