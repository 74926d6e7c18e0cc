"""Lattice backends, order utilities, and their validation."""

import pytest

from krl.errors import LatticeError
from krl.order import (ExplicitLattice, PowersetLattice, bits,
                       subset_meets, upward_closure, validate_lattice)

L2 = ExplicitLattice.chain(2)
L3 = ExplicitLattice.chain(3)
DIAMOND = ExplicitLattice(("bot", "x", "y", "top"), (0b1111, 0b1010, 0b1100, 0b1000))


def oracle_glb(lattice, subset):
    """Greatest lower bound by scanning the defining property."""
    lower = [d for d in lattice.elements()
             if all(lattice.leq(d, c) for c in subset)]
    for m in lower:
        if all(lattice.leq(d, m) for d in lower):
            return m
    return None


def oracle_lub(lattice, subset):
    upper = [u for u in lattice.elements()
             if all(lattice.leq(c, u) for c in subset)]
    for m in upper:
        if all(lattice.leq(m, u) for u in upper):
            return m
    return None


def test_chain_meet_of_empty_set_is_top():
    assert L2.meet(()) == 1
    assert L2.top == 1


def test_chain_meet_bottom_absorbs():
    assert L2.meet((0, 1)) == 0


def test_chain_join_examples():
    assert L2.join((0, 1)) == 1
    assert L2.join(()) == 0


def test_powerset_meet_is_union():
    P = PowersetLattice(("a", "b"))
    got = P.meet((P.index_of("{a}"), P.index_of("{b}")))
    assert P.name(got) == "{a b}"


def test_powerset_join_is_intersection_by_oracle():
    P = PowersetLattice(("a", "b"))
    sub = (P.index_of("{a}"), P.index_of("{b}"))
    assert P.join(sub) == oracle_lub(P, sub) == P.index_of("{}")


def test_powerset_order_is_reverse_inclusion():
    P = PowersetLattice(("a", "b"))
    assert P.leq(P.index_of("{a b}"), P.index_of("{a}"))
    assert not P.leq(P.index_of("{a}"), P.index_of("{a b}"))
    assert P.top == 0 and P.bottom == 3


@pytest.mark.parametrize("lattice", [L2, L3, DIAMOND])
def test_meet_is_greatest_lower_bound_on_all_subsets(lattice):
    n = lattice.size
    for mask in range(1 << n):
        subset = [i for i in bits(mask)]
        got = lattice.meet(subset)
        assert got == oracle_glb(lattice, subset)
        assert lattice.join(subset) == oracle_lub(lattice, subset)
        # idempotence of the fold
        assert lattice.meet([got]) == got


@pytest.mark.parametrize("base", [1, 2, 3, 4])
def test_powerset_agrees_with_explicit_reverse_inclusion(base):
    names = tuple(chr(ord("a") + i) for i in range(base))
    P = PowersetLattice(names)
    E = ExplicitLattice.from_leq(
        [P.name(m) for m in range(P.size)], lambda a, b: b & a == b)
    for a in range(P.size):
        for b in range(P.size):
            assert P.leq(a, b) == E.leq(a, b)
    elems = list(range(P.size))
    assert subset_meets(P, elems) == subset_meets(E, elems)
    for a in range(P.size):
        for b in range(P.size):
            assert P.join2(a, b) == E.join2(a, b)


def test_validate_chain_is_clean():
    rep = validate_lattice(L2)
    assert rep.ok and len(rep.checks) == 4


def test_validate_powerset_is_clean():
    assert validate_lattice(PowersetLattice(("a", "b"))).ok


def test_validate_reports_antisymmetry_failure():
    broken = ExplicitLattice(("e0", "e1"), (0b11, 0b11))
    rep = validate_lattice(broken)
    failed = {c.clause for c in rep.failures()}
    assert "order.antisymmetric" in failed
    witness = next(c.witness for c in rep.failures()
                   if c.clause == "order.antisymmetric")
    assert witness == "(e0, e1)"


def test_validate_reports_transitivity_failure():
    broken = ExplicitLattice(("e0", "e1", "e2"), (0b011, 0b110, 0b100))
    rep = validate_lattice(broken)
    assert not rep.ok
    assert any(c.clause == "order.transitive" for c in rep.failures())


def test_validate_fence_reports_completeness_witness():
    # two minimal points below two crossing maximal points: both the
    # minimal and the maximal pair lack a meet, and the oracle confirms
    # whichever witness the scan reports
    fence = ExplicitLattice(
        ("a", "b", "x", "y"), (0b1101, 0b1110, 0b0100, 0b1000))
    assert oracle_glb(fence, (2, 3)) is None
    rep = validate_lattice(fence)
    complete = next(c for c in rep.checks if c.clause == "order.complete")
    assert not complete.passed
    witnessed = tuple(fence.index_of(n)
                      for n in complete.witness.strip("{}").split(", "))
    assert oracle_glb(fence, witnessed) is None


def test_meet_raises_on_incomplete_input():
    fence = ExplicitLattice(
        ("a", "b", "x", "y"), (0b1101, 0b1110, 0b0100, 0b1000))
    with pytest.raises(LatticeError):
        fence.meet((2, 3))


def test_upward_closure_examples():
    assert upward_closure(L3, {1}) == {1, 2}
    assert upward_closure(L3, set()) == frozenset()
    assert upward_closure(DIAMOND, {1}) == {1, 3}


def test_element_names():
    assert L2.name(0) == "e0" and L2.index_of("e1") == 1
    P = PowersetLattice(("a", "b"))
    assert P.name(0) == "{}"
    assert P.index_of("{b a}") == 3
    with pytest.raises(LatticeError):
        P.index_of("{z}")
    with pytest.raises(LatticeError):
        L2.index_of("nope")
