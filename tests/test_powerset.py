"""Powerset algebras A(X) decided per perp class: the point tables behind
imp_sets and app_sets, and the structure that carries X."""

import random
from collections import Counter
from functools import partial

from itertools import product

from krl import implicative, morphism
from krl.aks import (AbstractKrivineStructure, app_sets, full_polarity_aks, imp_sets,
                     mine_aks, perp_left, validate_aks)
from krl.bridge import PowersetStructure, powerset_algebra
from krl.fixtures import AKS3_PERP, aks3, mined_corpus, polarity3
from krl.implicative import (ImplicativeAlgebra, ImplicativeStructure, check_adjunction,
                             validate_algebra, validate_structure)
from krl.morphism import MorphismSpec
from krl.order import PowersetLattice, bits

from powerset_oracles import scanned_perp_lefts


def loop_imp_sets(aks, p, q):
    """imp_sets as a loop over the terms orthogonal to p and the points of q,
    as it was before the per-class point tables."""
    out = 0
    points = tuple(bits(q))
    for t in bits(perp_left(aks, p)):
        row = aks.push[t]
        for pi in points:
            out |= 1 << row[pi]
    return out


def loop_app_sets(aks, p, q):
    """app_sets as a loop that strikes out stacks, as it was before the
    per-class point tables."""
    out = aks.full
    for t in bits(perp_left(aks, q)):
        row = aks.push[t]
        for pi in bits(out):
            if not p >> row[pi] & 1:
                out ^= 1 << pi
    return out


def random_structures(count, rng, sizes=(1, 2, 3, 4)):
    """Unchecked structures with random polarity, push and application
    tables; most fail validate_aks."""
    for _ in range(count):
        m = rng.choice(sizes)
        table = lambda: tuple(tuple(rng.randrange(m) for _ in range(m)) for _ in range(m))
        yield AbstractKrivineStructure(
            tuple("abcd"[:m]), tuple(rng.randrange(1 << m) for _ in range(m)), table(),
            table(), qp=rng.randrange(1 << m), k_elem=rng.randrange(m),
            s_elem=rng.randrange(m))


def test_class_tables_match_the_loops_on_every_mask_pair():
    structures = (mined_corpus() + [polarity3(), full_polarity_aks(2), full_polarity_aks(3)]
                  + list(random_structures(150, random.Random(11))))
    assert any(not validate_aks(aks).ok for aks in structures)
    assert {aks.pi_size for aks in structures} == {1, 2, 3, 4}
    for aks in structures:
        masks = range(1 << aks.pi_size)
        for p in masks:
            for q in masks:
                assert imp_sets(aks, p, q) == loop_imp_sets(aks, p, q), (aks, p, q)
                assert app_sets(aks, p, q) == loop_app_sets(aks, p, q), (aks, p, q)
        # one table per perp class, shared by every mask of the class
        assert set(aks.class_points) == {perp_left(aks, p) for p in masks}


def plain_powerset_algebra(aks):
    """A(X) on a structure that does not know X, over the loops."""
    structure = ImplicativeStructure(PowersetLattice(aks.names), partial(loop_imp_sets, aks),
                                     app=partial(loop_app_sets, aks))
    return ImplicativeAlgebra(structure, aks.separator_masks,
                              aks.perp_rows[aks.k_elem], aks.perp_rows[aks.s_elem])


def broken_push(aks):
    """The structure with push[0][0] moved to the next point."""
    push = [list(row) for row in aks.push]
    push[0][0] = (push[0][0] + 1) % aks.pi_size
    return AbstractKrivineStructure(aks.names, aks.perp_rows, tuple(map(tuple, push)),
                                    aks.app, aks.qp, aks.k_elem, aks.s_elem)


def same_report(a, b):
    assert (a.name, a.checks, a.flags, a.data) == (b.name, b.checks, b.flags, b.data)
    return a.ok


def test_reports_on_the_class_structure_match_the_plain_structure():
    structures = (mined_corpus() + [full_polarity_aks(2), broken_push(aks3())]
                  + list(random_structures(200, random.Random(5), sizes=(2, 3))))
    assert not validate_aks(broken_push(aks3())).ok
    outcomes = Counter()
    for aks in structures:
        known, plain = powerset_algebra(aks), plain_powerset_algebra(aks)
        assert isinstance(known.structure, PowersetStructure)
        same_report(validate_structure(known.structure), validate_structure(plain.structure))
        same_report(check_adjunction(known.structure), check_adjunction(plain.structure))
        ok = same_report(validate_algebra(known), validate_algebra(plain))
        outcomes[validate_aks(aks).ok, ok] += 1
    # valid and invalid structures, algebras that pass and fail
    assert outcomes[True, True] and outcomes[False, False] and outcomes[False, True]


def test_perp_lefts_match_perp_left_on_every_mask():
    structures = (mined_corpus() + mine_aks(3, AKS3_PERP, max_results=10 ** 9)
                  + [full_polarity_aks(m) for m in range(1, 7)] + [polarity3()]
                  + list(random_structures(100, random.Random(13))))
    assert len(structures) == 3 + 8338 + 6 + 1 + 100
    for aks in structures:
        assert aks.perp_lefts == scanned_perp_lefts(aks), aks


def test_the_loops_over_every_mask_read_the_table(count_calls):
    # separator_masks, the classes of A(X), the family keys and the uniform
    # fold of a carrier map ask perp_left of no mask
    maps = [MorphismSpec("aks", A, B, carrier)
            for A, B in product(mined_corpus() + [polarity3()], repeat=2)
            for carrier in product(range(B.pi_size), repeat=A.pi_size)]
    counts = count_calls(perp_left)
    for f in maps:
        assert f.target.separator_masks == tuple(
            m for m in range(1 << f.target.pi_size) if perp_left(f.target, m) & f.target.qp)
        counts.clear()
        PowersetStructure(f.source).classes
        morphism._family_keys(f)
        morphism._uniform_fold(f)
        assert not counts
    assert len(maps) == 158


def test_one_representative_per_perp_class():
    for aks in mined_corpus() + [polarity3(), full_polarity_aks(3)]:
        st = PowersetStructure(aks)
        classes = {}
        for p in range(1 << aks.pi_size):
            classes.setdefault(perp_left(aks, p), p)
        assert st.representatives == tuple(classes.values())
        assert all(st.classes[p] == classes[perp_left(aks, p)]
                   for p in range(1 << aks.pi_size))


def test_validate_algebra_on_a_full_8_computes_few_values():
    # values, not time: the fill of all 2 * 4^8 implications and
    # applications cannot come back unseen
    algebra = powerset_algebra(full_polarity_aks(8))
    st, computed = algebra.structure, Counter()

    def counted(fn, key):
        def wrapper(a, b):
            computed[key] += 1
            return fn(a, b)
        return wrapper
    st._imp, st._app = counted(st._imp, "imp"), counted(st._app, "app")
    assert validate_algebra(algebra).ok
    assert 0 < sum(computed.values()) < 8 * 2 ** 8


def test_structure_verdict_and_adjoint_hold_by_construction():
    # the scans agree with the theorems PowersetStructure states: the
    # adjoint on every structure of three points the miner finds, both on
    # every fourth one and on random unchecked ones
    mined = mine_aks(3, AKS3_PERP, max_results=10 ** 9)
    drawn = list(random_structures(400, random.Random(17)))
    for i, aks in enumerate(mined + drawn):
        st = PowersetStructure(aks)
        assert st.adjoint is implicative._application_is_adjoint(st) is True
        if i % 4 == 0 or i >= len(mined):
            scanned = implicative._structure_report(st)
            assert (scanned.checks, scanned.flags, scanned.data) == (
                st.verdict.checks, st.verdict.flags, st.verdict.data)
    assert sum(not validate_aks(aks).ok for aks in drawn) > 300


def test_the_algebra_report_is_read_off_a_passing_X():
    structures = (mined_corpus() + mine_aks(3, AKS3_PERP, max_results=10 ** 9)[::20]
                  + list(random_structures(400, random.Random(19))))
    outcomes = Counter()
    for aks in structures:
        algebra = powerset_algebra(aks)
        rep, scanned = validate_algebra(algebra), implicative._algebra_report(algebra)
        assert (rep.name, rep.checks, rep.flags, rep.data) == (
            scanned.name, scanned.checks, scanned.flags, scanned.data)
        outcomes[validate_aks(aks).ok, rep.ok] += 1
    # X valid gives A(X) valid; the converse fails, so a failing X is scanned
    assert outcomes[True, True] > 400 and outcomes[False, True] and outcomes[False, False]
    assert not outcomes[True, False]
