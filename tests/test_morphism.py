"""Morphism checkers, certificate search, composition, and 2-cells."""

import random
from collections import Counter
from itertools import product

import pytest

from krl import aks as aksmod
from krl import morphism
from krl.aks import full_polarity_aks
from krl.bridge import functor_A_mor, powerset_algebra
from krl.errors import ComposabilityError, HypothesisFailed, SearchBudgetExceeded
from krl.fixtures import (aks2, aks3, bar_interior, diamond, hat_interior, heyting3,
                          identity_interior, l2, mined_corpus, singleton_algebra)
from krl.interior import density_certificates
from krl.morphism import (DensityCertificate, MorphismSpec, check_applicative,
                          check_comp_dense, compose, identity_morphism,
                          two_cell_leq, verify_certificate)

from condition2_oracles import check_condition2_equiv
from powerset_oracles import mined_by_algebra, scanned_uniform_failures
from test_powerset import random_structures


def candidate_maps(src, tgt):
    """Every table satisfying separator and meet preservation."""
    out = []
    for table in product(range(tgt.lattice.size), repeat=src.lattice.size):
        f = MorphismSpec("ia", src, tgt, table)
        rep = check_applicative(f)
        by_clause = {c.clause: c.passed for c in rep.checks}
        if (by_clause["morphism.separator-preservation"]
                and by_clause["morphism.meet-preservation"]):
            out.append((f, rep))
    return out


def brute_force_dense(f):
    """Search over every monotone table and every uniform realizer."""
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    sep_b = sorted(B.separator)
    sep_a = sorted(A.separator)
    for values in product(sep_a, repeat=len(sep_b)):
        h = dict(zip(sep_b, values))
        if any(lb.leq(b1, b2) and not la.leq(h[b1], h[b2])
               for b1 in sep_b for b2 in sep_b):
            continue
        for t in sep_b:
            if all(lb.leq(B.application(t, f(h[b])), b) for b in sep_b):
                return DensityCertificate.make(t, h)
    return None


def test_identity_is_applicative_with_realizer_top():
    f = identity_morphism(l2(), "ia")
    rep = check_applicative(f)
    assert rep.ok and rep.data["realizer"] == 1


def test_identity_is_dense_everywhere():
    for algebra in (l2(), heyting3(), diamond(), singleton_algebra()):
        f = identity_morphism(algebra, "ia")
        cert = check_comp_dense(f)
        assert cert is not None
        assert verify_certificate(f, cert).ok
        assert cert.h_map == {b: b for b in algebra.separator}


def test_constant_top_map_is_applicative():
    # the collapse of everything onto the top passes every clause: meets
    # of images are meets of tops, and any separator element realizes
    # uniformity
    f = MorphismSpec("ia", l2(), l2(), (1, 1), "const-top")
    rep = check_applicative(f)
    assert rep.ok
    assert check_comp_dense(f) is not None


def test_search_refuses_maps_that_are_not_applicative():
    # the constant bottom map sends the separator outside the separator,
    # though a uniform realizer and a density certificate would exist
    f = MorphismSpec("ia", l2(), l2(), (0, 0), "const-bottom")
    assert not check_applicative(f).ok
    assert check_comp_dense(f) is None


def test_non_preserving_map_reports_clause():
    # swapping the chain breaks separator preservation and monotonicity
    f = MorphismSpec("ia", l2(), l2(), (1, 0), "swap")
    rep = check_applicative(f)
    failed = {c.clause for c in rep.failures()}
    assert "morphism.separator-preservation" in failed


def test_meet_preservation_failure_has_witness():
    # on a chain every monotone map preserves meets, so a genuine failure
    # needs incomparable elements: send both midpoints of the diamond up
    f = MorphismSpec("ia", diamond(), l2(), (0, 1, 1, 1), "squash")
    rep = check_applicative(f)
    clause = next(c for c in rep.checks if c.clause == "morphism.meet-preservation")
    assert not clause.passed and clause.witness == "{x, y}"


def test_condition_forms_agree_on_identity():
    for algebra in (l2(), heyting3()):
        rep = check_condition2_equiv(identity_morphism(algebra, "ia"))
        assert rep.ok


def test_condition_forms_agree_on_all_small_maps():
    fixtures = [l2(), heyting3()]
    for src in fixtures:
        for tgt in fixtures:
            for f, _ in candidate_maps(src, tgt):
                rep = check_condition2_equiv(f)
                assert next(c for c in rep.checks
                            if c.clause == "condition2.equivalence").passed


def test_search_agrees_with_brute_force_on_all_small_maps():
    fixtures = [l2(), heyting3(), diamond()]
    for src in fixtures:
        for tgt in fixtures:
            for f, rep in candidate_maps(src, tgt):
                if not rep.ok:
                    continue
                cert = check_comp_dense(f)
                brute = brute_force_dense(f)
                assert (cert is None) == (brute is None)
                if cert is not None:
                    assert verify_certificate(f, cert).ok


def test_search_budget_is_reported_distinctly():
    f = identity_morphism(diamond(), "ia")
    with pytest.raises(SearchBudgetExceeded):
        check_comp_dense(f, budget=0)


def test_verify_rejects_wrong_certificate():
    f = identity_morphism(l2(), "ia")
    bogus = DensityCertificate.make(0, {1: 1}, 1)
    rep = verify_certificate(f, bogus)
    assert not rep.ok
    assert any(c.clause == "cert.t-in-separator" for c in rep.failures())


def test_verify_rejects_non_monotone_h():
    h3 = heyting3()
    f = MorphismSpec("ia", h3, h3, (0, 1, 2))
    bogus = DensityCertificate.make(2, {1: 2, 2: 1}, 2)
    rep = verify_certificate(f, bogus)
    assert any(c.clause == "cert.h-monotone" for c in rep.failures())


def test_compose_with_identity_keeps_certificate():
    algebra = heyting3()
    ident = identity_morphism(algebra, "ia")
    cert = check_comp_dense(ident)
    collapse = MorphismSpec("ia", algebra, l2(), (0, 1, 1), "collapse")
    ccert = check_comp_dense(collapse)
    assert ccert is not None
    composed, composed_cert = compose(ident, collapse, cert, ccert)
    assert composed.carrier == collapse.carrier
    assert composed_cert == ccert
    assert verify_certificate(composed, composed_cert).ok


def test_compose_dense_maps_revalidates():
    # collapse then swap-free embedding: both dense, composite re-verifies
    h3 = heyting3()
    collapse = MorphismSpec("ia", h3, l2(), (0, 1, 1), "collapse")
    embed = MorphismSpec("ia", l2(), h3, (0, 2), "embed")
    c1 = check_comp_dense(collapse)
    c2 = check_comp_dense(embed)
    assert c1 and c2
    composed, cert = compose(collapse, embed, c1, c2)
    assert cert is not None and verify_certificate(composed, cert).ok
    fresh = check_comp_dense(composed)
    assert fresh is not None


def test_compose_rejects_mismatched_endpoints():
    with pytest.raises(ComposabilityError):
        compose(identity_morphism(l2(), "ia"),
                identity_morphism(heyting3(), "ia"))
    with pytest.raises(ComposabilityError):
        compose(identity_morphism(l2(), "ia"),
                identity_morphism(aks2(), "aks"))


def test_identity_aks_morphism_is_dense():
    for aks in (aks2(), aks3(), full_polarity_aks(2)):
        f = identity_morphism(aks, "aks")
        assert check_applicative(f).ok
        cert = check_comp_dense(f)
        assert cert is not None and verify_certificate(f, cert).ok


def test_any_map_into_full_polarity_is_applicative():
    full = full_polarity_aks(2)
    for table in product(range(2), repeat=3):
        f = MorphismSpec("aks", aks3(), full, table)
        assert check_applicative(f).ok


def test_aks_morphisms_between_fixtures():
    # exhaustively classify carrier maps between the mined fixtures and
    # re-verify every certificate the search produces
    src, tgt = aks2(), aks3()
    found_dense = 0
    for table in product(range(3), repeat=2):
        f = MorphismSpec("aks", src, tgt, table)
        if not check_applicative(f).ok:
            continue
        cert = check_comp_dense(f)
        if cert is not None:
            found_dense += 1
            assert verify_certificate(f, cert).ok
    assert found_dense > 0


def test_two_cell_order_ia():
    algebra = l2()
    const0 = MorphismSpec("ia", algebra, algebra, (0, 0), "const0")
    const1 = MorphismSpec("ia", algebra, algebra, (1, 1), "const1")
    assert two_cell_leq(const0, const0)
    assert two_cell_leq(const0, const1)
    assert not two_cell_leq(const1, const0)


def test_two_cell_order_is_preorder_on_small_homset():
    algebra = heyting3()
    maps = [MorphismSpec("ia", algebra, algebra, t)
            for t in product(range(3), repeat=3)]
    for f in maps:
        assert two_cell_leq(f, f)
    for f in maps:
        for g in maps:
            for h in maps:
                if two_cell_leq(f, g) and two_cell_leq(g, h):
                    assert two_cell_leq(f, h)


def test_two_cell_order_aks_full_polarity_is_total():
    full = full_polarity_aks(2)
    maps = [MorphismSpec("aks", full, full, t) for t in product(range(2), repeat=2)]
    for f in maps:
        for g in maps:
            assert two_cell_leq(f, g)


def unkeyed_uniform_family(f):
    """Every pair (P', P) with P' -> P in the source separator, with its
    realizers: the 4^m scan the keyed family replaced."""
    A, B = f.source, f.target
    sep_a = set(A.separator_masks)
    for p2 in range(1 << A.pi_size):
        for p in range(1 << A.pi_size):
            src_imp = aksmod.imp_sets(A, p2, p)
            if src_imp in sep_a:
                tgt = aksmod.imp_sets(B, f.image_mask(src_imp), aksmod.imp_sets(
                    B, f.image_mask(p2), f.image_mask(p)))
                yield p2, p, aksmod.perp_left(B, tgt)


def uniform_answers(f):
    """The applicativity report, and the certificate report for every
    candidate realizer r, as plain data."""
    reports = [check_applicative(f)] + [
        verify_certificate(f, DensityCertificate(0, (), r)) for r in range(f.target.pi_size)]
    return [(rep.checks, rep.flags, rep.data) for rep in reports]


def per_pair_fold(f):
    """The realizers of every member of the unkeyed family, intersected
    within the quasi-proofs pair by pair, and whether there was a member."""
    acc, indexed = f.target.qp, False
    for _, _, realizers in unkeyed_uniform_family(f):
        acc &= realizers
        indexed = True
    return acc, indexed


def test_uniform_family_keyed_by_perp_classes_matches_the_full_scan(monkeypatch):
    # the verdict folds per perp class (_uniform_fold); the keyed family
    # still names the first pair a candidate r fails in verify_certificate
    def maps():
        return [MorphismSpec("aks", A, B, carrier)
                for A, B in product(mined_corpus(), repeat=2)
                for carrier in product(range(B.pi_size), repeat=A.pi_size)]
    rng = random.Random(29)
    structures = list(random_structures(60, rng))
    drawn = []
    for _ in range(400):
        A, B = rng.choice(structures), rng.choice(structures)
        drawn.append(MorphismSpec("aks", A, B, [rng.randrange(B.pi_size)
                                                for _ in range(A.pi_size)]))
    folds = [(morphism._uniform_fold(f), per_pair_fold(f)) for f in maps() + drawn]
    assert all(fold == scanned for fold, scanned in folds)
    # nonempty and empty intersections, with and without a family member
    assert {(bool(acc), indexed) for (acc, indexed), _ in folds} == {
        (True, True), (False, True), (True, False), (False, False)}

    keyed = [uniform_answers(f) for f in maps()]
    monkeypatch.setattr(morphism, "_uniform_family", unkeyed_uniform_family)
    assert [uniform_answers(f) for f in maps()] == keyed
    assert len(keyed) == 56
    assert 0 < sum(not c.passed for answers in keyed for checks, _, _ in answers
                   for c in checks if c.clause == "cert.r-uniform")


def scanned_realizer(f):
    """The least r of the target separator that passes every (s, a), each
    candidate tried in turn."""
    A, B = f.source, f.target
    lb, c = B.lattice, f.carrier
    pairs = [(c[s], c[a], c[A.application(s, a)])
             for s in sorted(A.separator) for a in A.lattice.elements()]
    return next((r for r in sorted(B.separator)
                 if all(lb.leq(B.apply_chain(r, fs, fa), fsa) for fs, fa, fsa in pairs)),
                None)


def test_the_realizer_bound_into_a_powerset_matches_the_candidate_scan():
    images = [functor_A_mor(f) for A, B in product(mined_corpus(), repeat=2)
              for f in (MorphismSpec("aks", A, B, carrier)
                        for carrier in product(range(B.pi_size), repeat=A.pi_size))
              if check_applicative(f).ok]
    rng = random.Random(31)
    algebras = [powerset_algebra(aks) for aks in
                mined_corpus() + list(random_structures(40, rng, sizes=(1, 2, 3)))]
    drawn = []
    for _ in range(400):
        A, B = rng.choice(algebras), rng.choice(algebras)
        drawn.append(MorphismSpec("ia", A, B, [rng.randrange(B.lattice.size)
                                               for _ in range(A.lattice.size)]))
    found = [morphism._applicative_realizer(f) for f in images + drawn]
    assert found == [scanned_realizer(f) for f in images + drawn]
    assert len(images) == 28 and all(r is not None for r in found[:28])
    # realizers found and missing, on applicative maps and on others
    assert None in found[28:] and any(r is not None for r in found[28:])
    assert 0 < sum(check_applicative(f).ok for f in drawn) < len(drawn)


def inclusion_maps(structures):
    """The inclusion of the changed algebra of A(X) along the bar, hat and
    identity operators of each X, where the change succeeds."""
    for aks in structures:
        A = powerset_algebra(aks)
        for op in (bar_interior(aks), hat_interior(aks), identity_interior(A.lattice)):
            try:
                yield density_certificates(A, op)[0][0]
            except HypothesisFailed:
                pass


def test_the_uniform_bound_decides_r_uniform_as_the_scan():
    aks = aks3()
    images = [functor_A_mor(f) for f in (MorphismSpec("aks", aks, aks, carrier)
                                         for carrier in product(range(3), repeat=3))
              if check_applicative(f).ok]
    inclusions = list(inclusion_maps(mined_corpus() + mined_by_algebra()))
    assert (len(images), len(inclusions)) == (12, 199)
    verdicts = Counter()
    for f in images + inclusions:
        assert f.uniform_bound is not None
        failures = morphism._density(f).uniform_failures
        for r in sorted(f.target.separator):
            scanned = scanned_uniform_failures(f, r)
            assert next(failures(r), None) == (scanned[0] if scanned else None)
            verdicts[not scanned] += 1
    # uniform and not uniform r, by the bound alone
    assert verdicts[True] and verdicts[False]


def test_compose_refuses_tables_that_do_not_compose():
    # the second table reaches e0, which the first table leaves out
    f = identity_morphism(l2(), "ia")
    cert = DensityCertificate.make(1, {1: 0}, 1)
    with pytest.raises(ComposabilityError, match="reaches e0, which the table of id"):
        compose(f, f, cert, cert)
    g = identity_morphism(aks3(), "aks")
    cert = DensityCertificate.make(0, {3: 1}, 0)
    with pytest.raises(ComposabilityError, match=r"reaches \{a\}, which"):
        compose(g, g, cert, cert)
