"""Lattice backends, order utilities, and their validation.

The meet checks elsewhere let the empty family and pairs decide (see
``first_failing_pair`` and ``unpreserved_meet``); the subset scans they
replaced live on here as their oracles, and the pair scan as the oracle
of the witness where the point rule decides between powersets.
"""

import random
from collections import Counter
from functools import cache
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from krl import interior, order
from krl.aks import AbstractKrivineStructure, imp_sets
from krl.bridge import powerset_algebra
from krl.enumerators import enumerate_implications, enumerate_interiors, enumerate_lattices
from krl.errors import LatticeError
from krl.fixtures import aks2, aks3, diamond, double_diamond, heyting3, l2, singleton_algebra
from krl.implicative import ImplicativeStructure, check_adjunction, validate_structure
from krl.interior import ClosedPart, is_alexandroff, is_topological, validate_interior
from krl.morphism import MorphismSpec, check_applicative
from krl.order import (ExplicitLattice, PowersetLattice, bits, first_failing_pair,
                       unpreserved_meet, unpreserved_pair, up_preimages, upward_closure,
                       validate_lattice)
from krl.specfile import Workspace

from interior_oracles import oracle_lattices

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


def subset_folds(unit, op2, values):
    """folds[m] = op2-fold of {values[i] : bit i of m}, for every bitmask m.

    Dynamic programming over the subset lattice; the empty mask gives
    ``unit``.
    """
    n = len(values)
    folds = [unit] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        folds[m] = values[i] if m == low else op2(folds[m ^ low], values[i])
    return folds


def subset_meets(lattice, values):
    return subset_folds(lattice.top, lattice.meet2, values)


def failing_families(src, tgt, f, items):
    """Every family of ``items`` whose meet ``f`` does not carry to the meet
    of the images, in ascending bitmask order (the empty family first)."""
    src_meets = subset_meets(src, items)
    img_meets = subset_meets(tgt, [f(x) for x in items])
    return ([items[i] for i in bits(m)] for m in range(1 << len(items))
            if f(src_meets[m]) != img_meets[m])


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


def test_powerset_names_read_by_positions():
    # the first of a repeated base name wins, as with tuple.index
    P = PowersetLattice(("a", "b", "a", "c"))
    assert P.index_of("{a}") == 0b0001 and P.index_of("{c, a b}") == 0b1011
    assert P.index_of(" { } ") == 0
    for name, message in (("{a zz}", "unknown base element 'zz' in '{a zz}'"),
                          ("{A}", "unknown base element 'A' in '{A}'"),
                          ("a", "'a' is not a subset name"),
                          ("{a", "'{a' is not a subset name")):
        with pytest.raises(LatticeError) as exc:
            P.index_of(name)
        assert str(exc.value) == message


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


def test_meets_by_down_set_lookup_match_the_scan():
    # the first meet runs the order check; each meet is then one lookup
    for L in (L for L in oracle_lattices() if isinstance(L, ExplicitLattice)):
        fresh = ExplicitLattice(L.names, L.up)
        E = fresh.elements()
        assert "order_failures" not in vars(fresh)
        looked_up = [[fresh.meet2(a, b) for b in E] for a in E]
        assert vars(fresh)["order_failures"] == ()
        scanned = [[fresh._greatest(fresh.down[a] & fresh.down[b]) for b in E] for a in E]
        assert looked_up == scanned == [[oracle_glb(L, (a, b)) for b in E] for a in E]


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


def test_meets_and_joins_of_every_subset_match_the_oracles_up_to_five():
    for L in lattices_up_to(5):
        E = L.elements()
        for mask in range(1 << L.size):
            subset = list(bits(mask))
            assert L.meet(subset) == L.meet_of_mask(mask) == oracle_glb(L, subset)
            assert L.join(subset) == oracle_lub(L, subset)
        assert [[L.meet2(a, b), L.join2(a, b)] for a in E for b in E] == [
            [oracle_glb(L, (a, b)), oracle_lub(L, (a, b))] for a in E for b in E]
        assert (L.top, L.bottom) == (oracle_glb(L, ()), oracle_lub(L, ()))


def data_lattice(name):
    ws = Workspace()
    ws.add_path(Path(__file__).resolve().parent / "data" / name)
    ws.resolve()
    obj = next(iter(ws.objects.values()))
    return obj if isinstance(obj, ExplicitLattice) else obj.lattice


@pytest.mark.parametrize("make", [
    lambda: data_lattice("bad-antisym.krl"), lambda: data_lattice("bad-no-top.krl"),
    lambda: data_lattice("bad-nontransitive.krl"),
    lambda: ExplicitLattice(("a", "b", "x", "y"), (0b1101, 0b1110, 0b0100, 0b1000))],
    ids=["antisym", "no-top", "nontransitive", "fence"])
def test_orders_that_fail_their_check_have_no_meet_and_no_join(make):
    # each call on a fresh copy, so that each is the first to run the check
    L = make()
    first = validate_lattice(L).failures()[0]
    message = f"not a complete lattice: {first.clause} fails at {first.witness}"
    E = L.elements()
    asks = ([lambda: L.top, lambda: L.bottom, lambda: L.meet(E), lambda: L.join(E),
             lambda: L.meet_of_mask(L._full)]
            + [lambda a=a, b=b: L.meet2(a, b) for a in E for b in E]
            + [lambda a=a, b=b: L.join2(a, b) for a in E for b in E])
    for ask in asks:
        L = make()
        with pytest.raises(LatticeError) as exc:
            ask()
        assert str(exc.value) == message
    assert validate_lattice(L).failures()[0] == first


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


# ------------------------------------------------ pair rule against the scan


def lattices_up_to(n):
    return [L for size in range(1, n + 1) for L in enumerate_lattices(size)]


def subsets(items):
    return ([items[i] for i in bits(m)] for m in range(1 << len(items)))


def test_first_failing_pair_goes_in_ascending_bitmask_order():
    seen = []
    first_failing_pair("abcd", lambda x, y: seen.append(x + y) or True)
    assert seen == ["ab", "ac", "bc", "ad", "bd", "cd"]
    assert first_failing_pair("abcd", lambda x, y: "d" not in x + y) == ("a", "d")
    assert first_failing_pair("a", lambda x, y: False) is None


def test_is_alexandroff_matches_the_subset_scan_on_lattices_up_to_five():
    checked = 0
    for L in lattices_up_to(5):
        elems = list(L.elements())
        for op in enumerate_interiors(L):
            family = next(failing_families(L, L, op, elems), None)
            alex, witness = is_alexandroff(op)
            assert alex == (family is None)
            assert witness == (None if family is None else L.name_set(family))
            checked += 1
    assert checked == 117


def test_is_alexandroff_decides_like_the_scan_on_powersets():
    # reverse inclusion numbers meets (unions) late, so only pass/fail and
    # a genuinely failing family are promised
    for base in ("ab", "abc"):
        L = PowersetLattice(base)
        elems = list(L.elements())
        for op in enumerate_interiors(L):
            failing = [L.name_set(family) for family in failing_families(L, L, op, elems)]
            alex, witness = is_alexandroff(op)
            assert alex == (not failing)
            assert witness is None or witness in failing


def test_meet_preservation_matches_the_subset_scan_on_maps_up_to_three():
    # empty separators keep the other clauses out of the way
    algebras = [SimpleNamespace(lattice=L, separator=frozenset()) for L in lattices_up_to(3)]
    checked = 0
    for A, B in product(algebras, repeat=2):
        la, lb = A.lattice, B.lattice
        elems = list(la.elements())
        for carrier in product(lb.elements(), repeat=la.size):
            f = MorphismSpec("ia", A, B, carrier)
            family = next(failing_families(la, lb, f, elems), None)
            clause = next(c for c in check_applicative(f).checks
                          if c.clause == "morphism.meet-preservation")
            assert clause.passed == (family is None)
            assert clause.witness == (None if family is None else la.name_set(family))
            checked += 1
    assert checked == 56


def pair_scan_witness(source, target, table):
    """The family ``unpreserved_meet`` names, from the empty family and the
    full pair scan alone, without the point rule."""
    if table[source.top] != target.top:
        return "{}"
    pair = first_failing_pair(list(source.elements()), lambda x, y: (
        table[source.meet2(x, y)] == target.meet2(table[x], table[y])))
    return None if pair is None else source.name_set(pair)


def assert_meet_matches_the_scans(source, target, table, witness):
    """``witness`` decides like the subset scan and names the pair scan's
    family; whether the meets are preserved."""
    family = next(failing_families(source, target, table.__getitem__,
                                   list(source.elements())), None)
    assert (witness is None) == (family is None)
    assert witness == pair_scan_witness(source, target, table)
    return witness is None


def test_unpreserved_meet_matches_the_scans_on_every_map_from_two_points():
    # 4 * 4 and 8 * 8 of the maps send {} to {} and unions to unions
    P2 = PowersetLattice("ab")
    preserved = 0
    for target in (P2, PowersetLattice("abc")):
        for table in product(target.elements(), repeat=P2.size):
            preserved += assert_meet_matches_the_scans(
                P2, target, table, unpreserved_meet(P2, target, table))
    assert preserved == 16 + 64


@st.composite
def powerset_tables(draw, source_points, target_points):
    """Tables between powersets: arbitrary ones, or unions of values drawn
    at {} and at the points, sometimes with one entry changed."""
    value = st.integers(0, (1 << target_points) - 1)
    size = 1 << source_points
    if draw(st.booleans()):
        return tuple(draw(value) for _ in range(size))
    empty, points = draw(value), [draw(value) for _ in range(source_points)]
    table = [empty] * size
    for b in range(1, size):
        table[b] = table[b & (b - 1)] | points[(b & -b).bit_length() - 1]
    if draw(st.booleans()):
        b = draw(st.integers(0, size - 1))
        table[b] = draw(value.filter(lambda v: v != table[b]))
    return tuple(table)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(powerset_tables(3, 3))
def test_unpreserved_meet_matches_the_scans_on_three_points(table):
    P3 = PowersetLattice("abc")
    assert_meet_matches_the_scans(P3, P3, table, unpreserved_meet(P3, P3, table))


A_AKS2, A_AKS3 = powerset_algebra(aks2()), powerset_algebra(aks3())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(powerset_tables(2, 3))
def test_meet_preservation_names_the_pair_scan_witness_from_aks2_to_aks3(carrier):
    f = MorphismSpec("ia", A_AKS2, A_AKS3, carrier)
    clause = next(c for c in check_applicative(f).checks
                  if c.clause == "morphism.meet-preservation")
    passed = assert_meet_matches_the_scans(A_AKS2.lattice, A_AKS3.lattice, carrier,
                                           clause.witness)
    assert clause.passed == passed


# ------------------------------------------- mask rule against the pair scan


def scanned_pair(source, target, table):
    """The first pair whose meet the table does not preserve, by the pair
    scan alone."""
    return first_failing_pair(list(source.elements()), lambda x, y: (
        table[source.meet2(x, y)] == target.meet2(table[x], table[y])))


def mask_rule(source, target, table):
    """The explicit rule alone: every nonempty preimage of an up-set of the
    target is the up-set of some element of the source."""
    least = source.least_of_up_set
    return all(not u or u in least for u in up_preimages(target, table))


def naive_up_preimages(lattice, table):
    return [sum(1 << x for x, v in enumerate(table) if lattice.leq(y, v))
            for y in lattice.elements()]


def assert_mask_rule_matches_the_pair_scan(lattice, table, target=None):
    """On a map from ``lattice`` into ``target`` (itself by default)."""
    target = lattice if target is None else target
    assert not lattice.order_failures and not target.order_failures
    pair = scanned_pair(lattice, target, table)
    assert up_preimages(target, table) == naive_up_preimages(target, table)
    assert mask_rule(lattice, target, table) == (pair is None)
    assert unpreserved_pair(lattice, target, table) == pair
    return pair is None


def test_the_mask_rule_matches_the_pair_scan_on_every_enumerated_row_up_to_three():
    # on a chain every monotone row preserves binary meets, so the self-maps
    # of the lattices of four elements bring the failures
    verdicts = Counter()
    for L in lattices_up_to(3):
        for table in enumerate_implications(L):
            for row in table:
                verdicts[assert_mask_rule_matches_the_pair_scan(L, row)] += 1
    assert verdicts == {True: 538}
    for L in enumerate_lattices(4):
        for table in product(L.elements(), repeat=L.size):
            verdicts[assert_mask_rule_matches_the_pair_scan(L, table)] += 1
    assert verdicts[True] > 538 and verdicts[False]


def test_the_mask_rule_matches_the_pair_scan_on_every_map_up_to_four():
    # every map between two lattices of at most four elements, the same
    # lattice or two different ones
    lattices = lattices_up_to(4)
    verdicts = Counter(assert_mask_rule_matches_the_pair_scan(S, table, T)
                       for S in lattices for T in lattices
                       for table in product(T.elements(), repeat=S.size))
    assert verdicts == {True: 250, False: 1194}  # 1,444 maps


# the fixtures' lattices, then every six-element lattice labelled along its
# order, reversed and shuffled
MASK_LATTICES = ([A.lattice for A in (singleton_algebra(), l2(), heyting3(), diamond())]
                 + [double_diamond()]
                 + [L for L in oracle_lattices()
                    if isinstance(L, ExplicitLattice) and L.size == 6])


def step_row(L, steps, target=None):
    """x -> the meet in ``target`` (``L`` by default) of the d with c not
    below x, over the pairs (c, d): each step preserves every meet, and so
    does their meet."""
    T = L if target is None else target
    return tuple(T.meet([d for c, d in steps if not L.leq(c, x)]) for x in L.elements())


@st.composite
def mask_tables(draw, L, target=None):
    """A table from ``L`` into ``target`` (``L`` by default): arbitrary, or
    a meet of steps that preserves every meet, sometimes with one entry
    changed."""
    T = L if target is None else target
    point, value = st.sampled_from(L.elements()), st.sampled_from(T.elements())
    if draw(st.booleans()):
        return tuple(draw(value) for _ in L.elements())
    table = list(step_row(L, draw(st.lists(st.tuples(point, value), max_size=3)), T))
    if T.size > 1 and draw(st.booleans()):
        x = draw(point)
        table[x] = draw(value.filter(lambda v: v != table[x]))
    return tuple(table)


@st.composite
def lattice_tables(draw):
    L = draw(st.sampled_from(MASK_LATTICES))
    return L, draw(mask_tables(L))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lattice_tables())
def test_the_mask_rule_matches_the_pair_scan_on_drawn_tables(lattice_table):
    assert_mask_rule_matches_the_pair_scan(*lattice_table)


@st.composite
def explicit_maps(draw):
    """A carrier map between two explicit lattices: into the same lattice,
    into an equal copy, or into another lattice."""
    source = draw(st.sampled_from(MASK_LATTICES))
    target = draw(st.sampled_from((source, ExplicitLattice(source.names, source.up),
                                   draw(st.sampled_from(MASK_LATTICES)))))
    return source, target, draw(mask_tables(source, target))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(explicit_maps())
def test_unpreserved_meet_matches_the_scans_on_maps_between_explicit_lattices(carrier_map):
    source, target, table = carrier_map
    assert_mask_rule_matches_the_pair_scan(source, table, target)
    assert_meet_matches_the_scans(source, target, table,
                                  unpreserved_meet(source, target, table))


def test_the_mask_rule_runs_each_order_check_once(count_calls):
    # the rule decides every map between two explicit lattices, checked or
    # not: its lookups run each order check once, and the pair scan runs
    # only to name a failure
    S, T = ExplicitLattice(DIAMOND.names, DIAMOND.up), ExplicitLattice(L2.names, L2.up)
    counts = count_calls(order._lattice_report, order.first_failing_pair)
    assert unpreserved_meet(S, T, (0, 1, 0, 1)) is None
    assert counts == {"_lattice_report": 2}
    assert counts.per_object["_lattice_report", id(S)] == 1
    counts.clear()
    assert unpreserved_meet(S, T, (0, 1, 1, 1)) == "{x, y}"
    assert counts == {"first_failing_pair": 1}
    counts.clear()
    assert unpreserved_meet(S, S, tuple(S.elements())) is None and counts == {}


def scanned_interior_flags(op):
    """The flags, flag notes and class of ``validate_interior`` from a run
    of both scans: ``is_topological`` and the pair scan."""
    L = op.lattice
    topo, w_topo = is_topological(op)
    w_alex = pair_scan_witness(L, L, op.table)
    notes = {}
    if not topo:
        notes["topological"] = f"witness {w_topo}"
    if w_alex is not None:
        notes["alexandroff"] = f"witness family {w_alex}"
    flags = {"topological": topo, "alexandroff": w_alex is None}
    return flags, notes, "alexandroff" if w_alex is None else "plain"


def test_validate_interior_matches_both_scans(count_calls):
    # is_topological runs only to name the witness of a plain operator
    counts = count_calls(interior.is_topological)
    classes = Counter()
    for L in lattices_up_to(5) + [PowersetLattice("ab"), PowersetLattice("abc")]:
        for op in enumerate_interiors(L):
            counts.clear()
            rep = validate_interior(op)
            calls = counts["is_topological"]
            flags, notes, klass = scanned_interior_flags(op)
            assert [(c.clause, c.passed, c.witness) for c in rep.checks] == [
                ("interior.deflationary", True, None), ("interior.idempotent", True, None),
                ("interior.monotone", True, None)]
            assert list(rep.flags.items()) == list(flags.items())
            assert list(rep.data.get("flag_notes", {}).items()) == list(notes.items())
            assert rep.data["class"] == klass
            assert calls == (klass == "plain")
            classes[klass] += 1
    assert classes["alexandroff"] > 0 and classes["plain"] > 0


def test_closed_part_matches_the_subset_scan_on_lattices_up_to_five():
    for L in lattices_up_to(5):
        elems = list(L.elements())
        for m in range(1 << L.size):
            members = [elems[i] for i in bits(m)]
            rep = ClosedPart(L, frozenset(members), "P_c_infty").validate()
            joins = subset_folds(L.bottom, L.join2, members)
            meets = subset_meets(L, members)
            join_families = [L.name_set(fam) for fam, j in zip(subsets(members), joins)
                             if j not in members]
            meet_family = next((fam for fam, j in zip(subsets(members), meets)
                                if j not in members), None)
            join_clause, meet_clause = rep.checks
            # joins are numbered no earlier than their arguments, so the
            # reported family may differ from the scan's; it still fails
            assert join_clause.passed == (not join_families)
            assert join_clause.witness is None or join_clause.witness in join_families
            assert meet_clause.passed == (meet_family is None)
            assert meet_clause.witness == (
                None if meet_family is None else L.name_set(meet_family))


@cache
def failing_row_families(L, row):
    """The names of the families whose meet the row b -> row[b] does not
    preserve, in ascending bitmask order."""
    elems = list(L.elements())
    return [L.name_set(family) for family in failing_families(L, L, row.__getitem__, elems)]


def oracle_meet_commutation(structure):
    """(first failing nonempty family, first failing empty family) as the
    witnesses of ``imp.meet-commutation``."""
    L = structure.lattice
    witness = empty = None
    for a in L.elements():
        families = failing_row_families(L, tuple(structure.imp(a, b) for b in L.elements()))
        for family in families:
            w = f"a={L.name(a)}, B={family}"
            if family == "{}":
                empty = empty or w
            elif witness is None:
                witness = w
                break
    return witness, empty


def quadruple_variance_fails(L, imp):
    """Whether some a' <= a, b <= b' has a -> b not below a' -> b': the
    n^4 scan that the cover steps of ``imp.variance`` replaced."""
    E = L.elements()
    below = [[b for b in E if L.leq(b, a)] for a in E]
    above = [[b for b in E if L.leq(a, b)] for a in E]
    return any(not L.leq(imp(a, b), imp(a2, b2)) for a in E for a2 in below[a]
               for b in E for b2 in above[b])


def cover_scan_variance(structure):
    """The ``imp.variance`` witness of the scan that the meet-irreducible
    rule replaced: every cover step against every element, a half first."""
    L = structure.lattice
    nm, imp, leq = L.name, structure.imp, L.leq
    steps = list(product(L.covers, L.elements()))
    return next((f"(a'={nm(lo)}, a={nm(hi)}, b={nm(x)}, b'={nm(x)})"
                 for (lo, hi), x in steps if not leq(imp(hi, x), imp(lo, x))),
                None) or next((f"(a'={nm(x)}, a={nm(x)}, b={nm(lo)}, b'={nm(hi)})"
                               for (lo, hi), x in steps
                               if not leq(imp(x, lo), imp(x, hi))), None)


def pair_scan_meet_commutation(structure):
    """The ``imp.meet-commutation`` witness of the scan over every pair,
    for each a, that the row and point rules replaced."""
    L = structure.lattice
    nm, imp, meet2, top = L.name, structure.imp, L.meet2, L.top
    elems = list(L.elements())
    pairs = ((a, first_failing_pair(
        elems, lambda b, c: imp(a, meet2(b, c)) == meet2(imp(a, b), imp(a, c))))
        for a in elems)
    witness = next((f"a={nm(a)}, B={L.name_set(pair)}" for a, pair in pairs if pair), None)
    return witness or next((f"a={nm(a)}, B={{}}" for a in elems if imp(a, top) != top), None)


def assert_structure_clauses_match(structure):
    """``imp.meet-commutation`` against the subset scan, and
    ``imp.variance`` against the quadruple scan, each with the witness of
    the scan it replaced.  Reverse inclusion numbers unions late, so on a
    powerset the first failing pair need not be the subset scan's first
    failing family: there the witness is the pair scan's."""
    L = structure.lattice
    rep = validate_structure(structure)
    variance, clause = rep.checks
    witness, empty = oracle_meet_commutation(structure)
    assert clause.passed == (witness is None and empty is None)
    assert clause.witness == (pair_scan_meet_commutation(structure)
                              if isinstance(L, PowersetLattice) else witness or empty)
    assert rep.flags["quasi-implicative"] == (witness is None and empty is not None)
    assert variance.passed != quadruple_variance_fails(L, structure.imp)
    assert variance.witness == cover_scan_variance(structure)


def test_meet_commutation_matches_the_subset_scan_on_every_table_up_to_three():
    # every table, also for the variance clause against its quadruple scan,
    # and on the 2-element powerset too
    checked = 0
    for L in lattices_up_to(3) + [PowersetLattice("a")]:
        n = L.size
        for flat in product(range(n), repeat=n * n):
            assert_structure_clauses_match(
                ImplicativeStructure(L, [flat[a * n:(a + 1) * n] for a in range(n)]))
            checked += 1
    assert checked == 1 + 16 + 3 ** 9 + 16


@cache
def binary_meet_maps(L):
    """Self-maps preserving binary meets, so that rows passing (or failing
    only at the empty family) are drawn often."""
    return [t for t in product(L.elements(), repeat=L.size)
            if all(t[L.meet2(a, b)] == L.meet2(t[a], t[b])
                   for a in L.elements() for b in L.elements())]


@st.composite
def structures_on_four(draw):
    L = draw(st.sampled_from(list(enumerate_lattices(4))))
    row = st.one_of(st.sampled_from(binary_meet_maps(L)),
                    st.tuples(*[st.sampled_from(L.elements())] * L.size))
    return ImplicativeStructure(L, [draw(row) for _ in L.elements()])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(structures_on_four())
def test_meet_commutation_matches_the_subset_scan_on_four_elements(structure):
    assert_structure_clauses_match(structure)


@st.composite
def powerset_structures(draw):
    """imp_sets of an unchecked Krivine structure on 2 or 3 points, as a
    table, sometimes with one entry corrupted."""
    m = draw(st.sampled_from((2, 3)))
    point, mask = st.integers(0, m - 1), st.integers(0, (1 << m) - 1)
    push = tuple(tuple(draw(point) for _ in range(m)) for _ in range(m))
    aks = AbstractKrivineStructure(tuple("abc"[:m]), tuple(draw(mask) for _ in range(m)),
                                   push, push, qp=0, k_elem=0, s_elem=0)
    table = [[imp_sets(aks, p, q) for q in range(1 << m)] for p in range(1 << m)]
    if draw(st.booleans()):
        p, q = draw(mask), draw(mask)
        table[p][q] = draw(mask.filter(lambda v: v != table[p][q]))
    return ImplicativeStructure(PowersetLattice(aks.names), table)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(powerset_structures())
def test_structure_clauses_match_the_scans_on_powersets_of_two_and_three(structure):
    assert_structure_clauses_match(structure)


def old_order_witnesses(lattice):
    """The reflexive, antisymmetric and transitive witnesses of the triple
    loops the mask scans replaced."""
    nm, elems, leq = lattice.name, lattice.elements(), lattice.leq
    return (
        next((nm(a) for a in elems if not leq(a, a)), None),
        next((f"({nm(a)}, {nm(b)})" for a in elems for b in elems
              if a != b and leq(a, b) and leq(b, a)), None),
        next((f"({nm(a)}, {nm(b)}, {nm(c)})" for a in elems for b in elems if leq(a, b)
              for c in elems if leq(b, c) and not leq(a, c)), None),
    )


def test_order_clauses_match_the_triple_loops_on_every_relation_on_three():
    names = ("x", "y", "z")
    for up in product(range(8), repeat=3):
        lattice = ExplicitLattice(names, up)
        got = tuple(c.witness for c in validate_lattice(lattice).checks[:3])
        assert got == old_order_witnesses(lattice)


def naive_covers(L):
    E = L.elements()
    return {(a, b) for a in E for b in E if a != b and L.leq(a, b)
            and not any(c not in (a, b) and L.leq(a, c) and L.leq(c, b) for c in E)}


def test_covers_are_the_cover_relation():
    lattices = list(lattices_up_to(5)) + [PowersetLattice("abc"), PowersetLattice("")]
    for L in lattices:
        assert set(L.covers) == naive_covers(L) and len(L.covers) == len(set(L.covers))


def pair_test_covers(L):
    """The cover relation by testing each pair a < b against down[b]."""
    pairs = []
    for a in range(L.size):
        above = L.up[a] & ~(1 << a)
        pairs.extend((a, b) for b in bits(above) if not above & L.down[b] & ~(1 << b))
    return tuple(pairs)


def test_covers_match_the_pair_test_on_lattices_and_non_orders():
    rng = random.Random(16)
    relations = [ExplicitLattice([f"x{i}" for i in range(n)],
                                 [rng.getrandbits(n) for _ in range(n)])
                 for n in (rng.randint(0, 7) for _ in range(2000))]
    lattices = [L for L in oracle_lattices() if isinstance(L, ExplicitLattice)]
    for L in lattices + relations:
        assert L.covers == pair_test_covers(L)


def test_index_of_takes_the_first_name_as_tuple_index_does():
    twice = ExplicitLattice(("a", "b", "a"), (0b111, 0b110, 0b100))
    assert [twice.index_of(n) for n in ("a", "b")] == [0, 1]
    for L in (twice, DIAMOND, L3):
        assert all(L.index_of(n) == L.names.index(n) for n in L.names)
    with pytest.raises(LatticeError, match="^no element named 'c'$"):
        twice.index_of("c")


def test_the_order_verdict_is_read_once_per_lattice(count_calls):
    # counted where krl calls it, not in this module
    counts = count_calls(validate_lattice)
    names = ("x", "y", "z")
    for up in product(range(8), repeat=3):
        L = ExplicitLattice(names, up)
        counts.clear()
        failures = tuple(validate_lattice(L).failures())
        st = ImplicativeStructure(L, ((0,) * 3,) * 3)
        validate_structure(st)
        if not failures:
            check_adjunction(st)
            validate_interior(interior.InteriorOperator(L, tuple(L.elements())))
        assert L.order_failures == failures and counts == {"validate_lattice": 1}
    P = PowersetLattice("ab")
    counts.clear()
    st = ImplicativeStructure(P, lambda a, b: b)
    validate_structure(st), check_adjunction(st)
    assert P.order_failures == () and not counts



def scanned_completeness_witness(lattice):
    """The order.complete witness by the scan for a greatest element of each
    pair's common lower bounds and of the whole carrier."""
    greatest, down, n = lattice._greatest, lattice.down, lattice.size
    witness = next((lattice.name_set((a, b)) for a in range(n) for b in range(a + 1, n)
                    if greatest(down[a] & down[b]) is None), None)
    if witness is None and greatest(lattice._full) is None:
        witness = "{} (no top element)"
    return witness


def random_partial_order(n, rng):
    """The transitive closure of random pairs a < b, under shuffled names."""
    up = [1 << a for a in range(n)]
    for a, b in product(range(n), repeat=2):
        if a < b and rng.random() < 0.4:
            up[a] |= 1 << b
    for a in reversed(range(n)):
        for b in bits(up[a] & ~(1 << a)):
            up[a] |= up[b]
    perm = rng.sample(range(n), n)
    moved = [0] * n
    for a in range(n):
        moved[perm[a]] = sum(1 << perm[b] for b in bits(up[a]))
    return ExplicitLattice([f"e{i}" for i in range(n)], moved)


def assert_completeness_matches_the_scan(lattice):
    clause = validate_lattice(lattice).checks[3]
    witness = scanned_completeness_witness(lattice)
    assert (clause.clause, clause.passed, clause.witness) == (
        "order.complete", witness is None, witness)
    return validate_lattice(lattice).ok


def test_completeness_by_down_sets_matches_the_scan_on_every_relation_on_three():
    verdicts = Counter()
    for up in product(range(8), repeat=3):
        verdicts[assert_completeness_matches_the_scan(ExplicitLattice("xyz", up))] += 1
    assert verdicts[True] and verdicts[False]


def test_completeness_by_incomparable_pairs_matches_the_scan_on_lattices_up_to_five():
    # each enumerated lattice, and the order left when its bottom e0 is
    # taken away, where two elements may have no common lower bound
    verdicts = Counter()
    for n in range(1, 6):
        for L in enumerate_lattices(n):
            assert assert_completeness_matches_the_scan(L)
            rest = ExplicitLattice(L.names[1:], [u >> 1 for u in L.up[1:]])
            verdicts[assert_completeness_matches_the_scan(rest)] += 1
    assert verdicts[True] and verdicts[False]


def test_completeness_by_down_sets_matches_the_scan_on_random_relations_up_to_seven():
    rng = random.Random(17)
    lattices = orders = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        relation = ExplicitLattice([f"e{i}" for i in range(n)],
                                   [rng.randrange(1 << n) | rng.choice((0, 1 << a))
                                    for a in range(n)])
        assert_completeness_matches_the_scan(relation)
        order = random_partial_order(n, rng)
        lattices += assert_completeness_matches_the_scan(order)
        orders += validate_lattice(order).checks[2].passed
    assert orders == 600 and 0 < lattices < 600


def test_check_adjunction_reports_the_order_on_every_relation_on_three():
    # a relation that is not a complete lattice gets its failed order.*
    # clauses, as from validate_structure, and raises nothing
    lattices = 0
    for up in product(range(8), repeat=3):
        L = ExplicitLattice(("e0", "e1", "e2"), up)
        st = ImplicativeStructure(L, ((0,) * 3,) * 3)
        rep = check_adjunction(st)
        if L.order_failures:
            assert rep.checks == list(L.order_failures) == validate_structure(st).checks
        else:
            lattices += 1
            assert [c.clause for c in rep.checks] == ["adjunction.half", "adjunction.full"]
    assert lattices == 6  # the labelled 3-chains
    fork = ExplicitLattice.from_pairs(["e0", "e1", "e2"], [(0, 1), (0, 2)])
    rep = check_adjunction(ImplicativeStructure(fork, ((0,) * 3,) * 3))
    assert [(c.clause, c.witness) for c in rep.checks] == [
        ("order.complete", "{} (no top element)")]
