"""Krivine structures: polarity closures, subset operations, validation,
and the fixture miner."""

import random
from collections import Counter

import pytest

from krl.aks import (AbstractKrivineStructure, app_sets,
                     bar_closure, full_polarity_aks, hat_closure, imp_sets,
                     mine_aks, perp_left, perp_right, spec_preorder,
                     validate_aks)
from krl.errors import UnknownElement
from krl.bridge import krivine_structure
from krl.fixtures import AKS2_PERP, AKS3_PERP, aks2, aks3, mined_corpus, polarity3
from krl.implicative import ImplicativeStructure, check_adjunction, validate_structure
from krl.order import PowersetLattice, bits

from aks_oracles import scanned_validate_aks
from test_bridge import heyting_chain

P3 = polarity3()           # perp = {(a,a), (b,b)} on {a,b,c}
FULL2 = full_polarity_aks(2)


def oracle_perp_left(aks, mask):
    out = 0
    for t in range(aks.pi_size):
        if all(aks.perp(t, pi) for pi in bits(mask)):
            out |= 1 << t
    return out


def test_perp_left_full_polarity():
    assert perp_left(FULL2, 0b01) == 0b11


def test_perp_on_empty_subset_is_everything():
    for aks in (P3, FULL2, aks3()):
        assert perp_left(aks, 0) == aks.full
        assert perp_right(aks, 0) == aks.full


def test_perp_left_diagonal_pair_is_empty():
    assert perp_left(P3, 0b011) == 0


@pytest.mark.parametrize("aks", [P3, FULL2, aks2(), aks3()])
def test_perp_left_matches_oracle(aks):
    for mask in range(1 << aks.pi_size):
        assert perp_left(aks, mask) == oracle_perp_left(aks, mask)


def test_bar_closure_examples():
    assert bar_closure(P3, 0b001) == 0b001          # {a} is closed
    assert bar_closure(P3, 0b011) == 0b111          # {a,b} blows up to everything
    for mask in range(8):
        closed = bar_closure(P3, mask)
        assert bar_closure(P3, closed) == closed    # idempotent


def test_hat_closure_examples():
    assert hat_closure(P3, 0b011) == 0b011
    assert hat_closure(P3, 0b011) != bar_closure(P3, 0b011)
    for aks in (P3, FULL2, aks3()):
        assert hat_closure(aks, 0) == 0


def test_equality_polarity_singletons_are_closed():
    eq2 = AbstractKrivineStructure(
        ("x", "y"), (0b01, 0b10), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
        qp=0b11, k_elem=0, s_elem=0)
    for mask in range(4):
        assert hat_closure(eq2, mask) == mask


def test_spec_preorder():
    for aks in (P3, FULL2, aks3()):
        for s in range(aks.pi_size):
            assert spec_preorder(aks, s, s)
    for s in range(2):
        for p in range(2):
            assert spec_preorder(FULL2, s, p)
    # bar of {c} is everything, so c precedes a
    assert spec_preorder(P3, 2, 0)


def test_imp_sets_trivial_cases():
    for aks in (P3, aks3()):
        full = aks.full
        for p in range(1 << aks.pi_size):
            assert imp_sets(aks, p, 0) == 0
        expected = 0
        for t in range(aks.pi_size):
            for pi in bits(0b101):
                expected |= 1 << aks.push[t][pi]
        assert imp_sets(aks, 0, 0b101) == expected


def test_imp_sets_constant_push_full_polarity():
    aks = AbstractKrivineStructure(
        ("p0", "q"), (0b11, 0b11), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
        qp=0b11, k_elem=0, s_elem=0)
    assert imp_sets(aks, 0b10, 0b10) == 0b01


def test_galois_properties():
    for aks in (P3, aks2(), aks3()):
        size = 1 << aks.pi_size
        for p in range(size):
            assert perp_left(aks, bar_closure(aks, p)) == perp_left(aks, p)
            bar = bar_closure(aks, p)
            hat = hat_closure(aks, p)
            assert p | bar == bar            # extensive for inclusion
            assert hat | bar == bar          # hat below bar
            assert hat_closure(aks, hat) == hat
            for q in range(size):
                if q | p == p:               # q subset of p
                    assert perp_left(aks, p) & perp_left(aks, q) == perp_left(aks, p)
                # hat distributes over unions
                assert (hat_closure(aks, p | q)
                        == hat_closure(aks, p) | hat_closure(aks, q))


def test_imp_sets_variance_and_meet_commutation():
    for aks in (P3, aks3()):
        size = 1 << aks.pi_size
        for p in range(size):
            for p2 in range(size):
                if p2 | p != p:
                    continue
                # p2 is a subset of p: growing the left side shrinks the result
                for q in range(size):
                    grown, base = imp_sets(aks, p, q), imp_sets(aks, p2, q)
                    assert grown | base == base
                    # and growing the right side grows it
                    assert (imp_sets(aks, q, p) | imp_sets(aks, q, p2)
                            == imp_sets(aks, q, p))
        # meet commutation: p -> union q_i = union of p -> q_i
        for p in range(size):
            for q1 in range(size):
                for q2 in range(size):
                    assert (imp_sets(aks, p, q1 | q2)
                            == imp_sets(aks, p, q1) | imp_sets(aks, p, q2))


def test_subset_structure_satisfies_full_adjunction():
    for aks in (aks2(), aks3(), FULL2):
        lattice = PowersetLattice(aks.names)
        st = ImplicativeStructure(
            lattice, lambda p, q, a=aks: imp_sets(a, p, q),
            app=lambda p, q, a=aks: app_sets(a, p, q))
        assert check_adjunction(st).ok
        assert validate_structure(st).ok


def test_app_sets_agrees_with_defining_meet():
    for aks in (aks2(), aks3()):
        lattice = PowersetLattice(aks.names)
        st = ImplicativeStructure(lattice, lambda p, q, a=aks: imp_sets(a, p, q))
        for p in range(lattice.size):
            for q in range(lattice.size):
                assert app_sets(aks, p, q) == st.application_by_definition(p, q)


def test_validate_full_polarity():
    assert validate_aks(full_polarity_aks(1)).ok
    assert validate_aks(FULL2).ok


def test_validate_reports_compatibility_failure():
    aks = AbstractKrivineStructure(
        ("a", "b"), (0b01, 0b00), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
        qp=0b11, k_elem=0, s_elem=0)
    rep = validate_aks(aks)
    failed = {c.clause for c in rep.failures()}
    assert "aks.compatibility" in failed


def test_validate_reports_qp_violations():
    aks = AbstractKrivineStructure(
        ("a", "b"), (0b11, 0b11), ((0, 0), (0, 0)), ((1, 1), (1, 1)),
        qp=0b01, k_elem=0, s_elem=0)
    rep = validate_aks(aks)
    assert any(c.clause == "aks.qp-application-closed" for c in rep.failures())


def test_frozen_fixtures_are_valid():
    for aks in mined_corpus():
        rep = validate_aks(aks)
        assert rep.ok, rep.render()
    assert validate_aks(aks3()).flags["strong-compatibility"]


def test_miner_reproduces_frozen_aks3():
    found = mine_aks(3, AKS3_PERP, max_results=1, app_combo_cap=64)
    assert found and found[0] == aks3()


def test_miner_reproduces_frozen_aks2():
    found = mine_aks(2, AKS2_PERP, max_results=1, app_combo_cap=64)
    assert found and found[0] == aks2()


def test_miner_finds_nothing_for_unsatisfiable_polarity():
    # the diagonal-pair polarity on three points admits no valid machine
    assert mine_aks(3, ((0, 0), (1, 1)), max_results=1, app_combo_cap=256) == []


def test_mined_structures_validate():
    for found in mine_aks(3, AKS3_PERP, max_results=4, app_combo_cap=64):
        assert validate_aks(found).ok


def test_index_of_unknown_name_raises_unknown_element():
    assert aks3().index_of("c") == 2
    with pytest.raises(UnknownElement):
        aks3().index_of("zz")


def random_tables(count, rng):
    """Unchecked structures of 1 to 6 points with random tables; nearly
    all fail some axiom."""
    for _ in range(count):
        m = rng.randrange(1, 7)
        table = lambda: tuple(tuple(rng.randrange(m) for _ in range(m)) for _ in range(m))
        yield AbstractKrivineStructure(
            tuple("abcdef"[:m]), tuple(rng.randrange(1 << m) for _ in range(m)), table(),
            table(), qp=rng.randrange(1 << m), k_elem=rng.randrange(m),
            s_elem=rng.randrange(m))


def corrupted(aks, rng):
    """The structure with one push cell, application cell or perp pair
    changed at random: most axioms still hold, some fail."""
    n = aks.pi_size
    push, app = [list(row) for row in aks.push], [list(row) for row in aks.app]
    rows = list(aks.perp_rows)
    t, s = rng.randrange(n), rng.randrange(n)
    kind = rng.randrange(3)
    if kind == 0:
        push[t][s] = rng.randrange(n)
    elif kind == 1:
        app[t][s] = rng.randrange(n)
    else:
        rows[t] ^= 1 << s
    return AbstractKrivineStructure(aks.names, tuple(rows), tuple(map(tuple, push)),
                                    tuple(map(tuple, app)), aks.qp, aks.k_elem, aks.s_elem)


def assert_scanned_reports(structures) -> Counter:
    """Assert that validate_aks gives the per-point scans' report on each
    structure, and count the failing clauses and the strong flags."""
    counts = Counter()
    for aks in structures:
        rep, scanned = validate_aks(aks), scanned_validate_aks(aks)
        assert (rep.checks, rep.flags, rep.data) == (scanned.checks, scanned.flags,
                                                     scanned.data), aks
        counts.update(c.clause for c in rep.failures())
        counts["strong"] += rep.flags["strong-compatibility"]
    return counts


def test_mask_rules_give_the_scans_report():
    rng = random.Random(23)
    kchains = [krivine_structure(heyting_chain(n)) for n in range(2, 9)]
    counts = assert_scanned_reports(kchains + list(random_tables(2000, rng))
                                    + [corrupted(rng.choice(kchains[:5]), rng)
                                       for _ in range(1000)])
    # every clause fails somewhere, each with its witness; strong holds somewhere
    assert min(counts[c] for c in ("aks.compatibility", "aks.k-axiom", "aks.s-axiom",
                                   "aks.qp-application-closed", "strong")) > 100


def test_mask_rules_give_the_scans_report_on_every_mined_structure():
    mined = mine_aks(3, AKS3_PERP, max_results=10 ** 9)
    counts = assert_scanned_reports(mined)
    # every one is valid, and some are strongly compatible
    assert len(mined) == 8338 and set(counts) == {"strong"} and counts["strong"]
