"""Small-model enumeration cross-checked against raw table filtering."""

import tracemalloc
from itertools import product

from krl.enumerators import (enumerate_implications, enumerate_interiors,
                             enumerate_lattices, monotone_maps, monotone_selfmaps)
from krl.interior import ClosedPart, is_alexandroff
from krl.order import ExplicitLattice, PowersetLattice, bits, validate_lattice

from interior_oracles import (alexandroff_interiors, interior_tables,
                              oracle_lattices, subset_scan_interiors)


def brute_force_implications(lattice):
    n = lattice.size
    found = []
    for flat in product(range(n), repeat=n * n):
        table = tuple(tuple(flat[a * n:(a + 1) * n]) for a in range(n))
        good = True
        for a in range(n):
            for a2 in range(n):
                if not lattice.leq(a2, a):
                    continue
                for b in range(n):
                    for b2 in range(n):
                        if lattice.leq(b, b2) and not lattice.leq(
                                table[a][b], table[a2][b2]):
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            found.append(table)
    return found


def test_implication_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        chain = ExplicitLattice.chain(n)
        fast = sorted(enumerate_implications(chain))
        slow = sorted(brute_force_implications(chain))
        assert fast == slow


def test_lattice_enumeration_counts_and_validity():
    counts = {}
    for n in (1, 2, 3, 4, 5, 7, 8):
        lattices = list(enumerate_lattices(n))
        counts[n] = len(lattices)
        for lattice in lattices:
            assert validate_lattice(lattice).ok
    assert counts[1] == 1 and counts[2] == 1 and counts[3] == 1
    # the two shapes on four points: the chain and the diamond
    assert counts[4] == 2
    assert counts[5] == 7
    assert counts[7] == 320 and counts[8] == 3637


def brute_force_lattices(n):
    """Every relation on n order-consistently labeled points, in product
    order, kept when it is transitive, has a top and all binary meets: the
    filter that the pruned generation replaced."""
    names = tuple(f"e{i}" for i in range(n))
    strict = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for choice in product((False, True), repeat=len(strict)):
        up = [1 << i for i in range(n)]
        for (i, j), chosen in zip(strict, choice):
            if chosen:
                up[i] |= 1 << j
        if any(up[i] | up[j] != up[i] for i in range(n) for j in bits(up[i])):
            continue
        lattice = ExplicitLattice(names, tuple(up))
        if (lattice._greatest((1 << n) - 1) is not None
                and all(lattice._greatest(lattice.down[a] & lattice.down[b]) is not None
                        for a in range(n) for b in range(a + 1, n))):
            found.append(lattice)
    return found


def test_lattice_generation_matches_the_filter_in_order_up_to_six():
    for n in range(7):
        assert list(enumerate_lattices(n)) == brute_force_lattices(n)


def memoized_lattices(n):
    """The generator before rows streamed their subsets: every row's
    subsets listed and kept, by the set of free elements."""
    if n == 0:
        return
    names = tuple(f"e{i}" for i in range(n))
    top = 1 << (n - 1)
    up = [(1 << n) - 1] + [top] * (n - 1)
    down = [1] * n
    subsets = {0: [0]}

    def ordered_subsets(free):
        if free not in subsets:
            low = free & -free
            rest = ordered_subsets(free ^ low)
            subsets[free] = rest + [s | low for s in rest]
        return subsets[free]

    def rows(r):
        if r >= n - 1:
            yield ExplicitLattice(names, tuple(up))
            return
        bit = 1 << r
        allowed, below = ~(bit - 1), bit
        for i in range(r):
            if up[i] & bit:
                allowed &= up[i]
                below |= 1 << i
        for a in range(1, r):
            both = below & down[a]
            if down[both.bit_length() - 1] != both:
                return
        down[r] = below
        for row in ordered_subsets(allowed & ~(bit | top)):
            up[r] = row | bit | top
            yield from rows(r + 1)

    yield from rows(1)


def test_streamed_rows_match_the_memoized_generator_up_to_eight():
    for n in range(9):
        assert list(enumerate_lattices(n)) == list(memoized_lattices(n))


def test_the_first_lattice_of_a_large_size_comes_at_once():
    tracemalloc.start()
    try:
        first = next(enumerate_lattices(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every row empty: the bottom, 38 atoms and the top
    assert first.up == ((1 << 40) - 1,) + tuple(1 << r | 1 << 39 for r in range(1, 40))
    assert peak < 4 << 20


def test_lattice_enumeration_reaches_both_four_element_shapes():
    shapes = set()
    for lattice in enumerate_lattices(4):
        comparable = sum(lattice.leq(a, b)
                         for a in range(4) for b in range(4) if a != b)
        shapes.add(comparable)
    assert shapes == {6, 5}  # chain has 6 strict pairs, diamond 5


def test_interior_enumerations_agree():
    for lattice in list(enumerate_lattices(3)) + list(enumerate_lattices(4)):
        via_opens = sorted(op.table for op in enumerate_interiors(lattice))
        via_tables = sorted(op.table for op in interior_tables(lattice))
        assert via_opens == via_tables


def test_interior_generation_matches_the_subset_scan_in_order():
    for lattice in oracle_lattices():
        assert list(enumerate_interiors(lattice)) == list(subset_scan_interiors(lattice))


def test_interior_generation_on_the_16_chain_builds_no_part_and_joins_nothing(monkeypatch):
    counts = {"parts": 0, "joins": 0}
    init, join2 = ClosedPart.__init__, ExplicitLattice.join2

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(ClosedPart, "__init__", counted("parts", init))
    monkeypatch.setattr(ExplicitLattice, "join2", counted("joins", join2))
    found = sum(1 for _ in enumerate_interiors(ExplicitLattice.chain(16)))
    assert found == 2 ** 15
    assert counts == {"parts": 0, "joins": 0}


def test_alexandroff_enumeration_matches_direct_test():
    lattice = PowersetLattice(("a", "b"))
    alex = {op.table for op in alexandroff_interiors(lattice)}
    for op in enumerate_interiors(lattice):
        assert (op.table in alex) == is_alexandroff(op)[0]


def test_monotone_maps_count_on_chains():
    two, three = ExplicitLattice.chain(2), ExplicitLattice.chain(3)
    assert len(list(monotone_maps(two, two))) == 3
    assert len(list(monotone_maps(three, three))) == 10
    assert len(list(monotone_maps(two, three))) == 6


def all_pairs_monotone_maps(src, tgt):
    """The filter over every comparable pair that the cover steps replaced."""
    comparable = [(a, b) for a in src.elements() for b in src.elements()
                  if a != b and src.leq(a, b)]
    return [table for table in product(tgt.elements(), repeat=src.size)
            if all(tgt.leq(table[a], table[b]) for a, b in comparable)]


def test_monotone_maps_match_the_all_pairs_filter_up_to_four():
    # P(2) orders its masks downwards, so its cover steps run both ways
    lattices = [L for n in range(1, 5) for L in enumerate_lattices(n)] + [PowersetLattice("ab")]
    for src, tgt in product(lattices, repeat=2):
        assert list(monotone_maps(src, tgt)) == all_pairs_monotone_maps(src, tgt)


def all_pairs_implications(lattice):
    """Antitone in a over every comparable pair a2 < a that the cover steps
    replaced, with each pair of rows compared pointwise once."""
    rows = all_pairs_monotone_maps(lattice, lattice)
    leq_rows = [[all(map(lattice.leq, r, s)) for s in rows] for r in rows]
    below = [(a2, a) for a in lattice.elements() for a2 in lattice.elements()
             if a != a2 and lattice.leq(a2, a)]
    return [tuple(rows[i] for i in combo)
            for combo in product(range(len(rows)), repeat=lattice.size)
            if all(leq_rows[combo[a]][combo[a2]] for a2, a in below)]


def test_implications_match_the_all_pairs_filter():
    diamond = ExplicitLattice(("bot", "x", "y", "top"), (0b1111, 0b1010, 0b1100, 0b1000))
    for lattice in (ExplicitLattice.chain(2), ExplicitLattice.chain(3), diamond):
        assert list(enumerate_implications(lattice)) == all_pairs_implications(lattice)


def test_the_empty_order_has_one_table_of_each_kind():
    # nothing to force: the one empty operator, like the one empty map
    empty = ExplicitLattice.chain(0)
    assert [op.table for op in enumerate_interiors(empty)] == [()]
    assert list(enumerate_implications(empty)) == [()]
    assert list(monotone_selfmaps(empty)) == [()]
