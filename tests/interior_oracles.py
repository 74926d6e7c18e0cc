"""Brute-force interior enumerations kept as oracles for the tests.

``subset_scan_interiors`` is the scan over all 2^n subsets that forced-join
generation replaced, ``interior_tables`` the filter over all n^n tables,
and ``alexandroff_interiors`` the operators whose opens are also closed
under meets.  ``oracle_lattices`` are the bases they are compared on.
"""

import random
from itertools import product

from krl.enumerators import enumerate_lattices
from krl.interior import ClosedPart, InteriorOperator
from krl.order import ExplicitLattice, PowersetLattice, bits


def relabel(lattice, perm):
    """The same lattice with element a renamed to perm[a]."""
    names, up = [None] * lattice.size, [0] * lattice.size
    for a in lattice.elements():
        names[perm[a]] = lattice.names[a]
        up[perm[a]] = sum(1 << perm[b] for b in bits(lattice.up[a]))
    return ExplicitLattice(names, up)


def oracle_lattices():
    """Every lattice of up to six order-consistently labelled elements, each
    also relabelled by the reversing and by one seeded random permutation,
    then the powersets of 0 to 3 points, which are labelled against the order."""
    rng = random.Random(14)
    found = []
    for n in range(7):
        for lattice in enumerate_lattices(n):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            found += [lattice, relabel(lattice, range(n - 1, -1, -1)),
                      relabel(lattice, shuffled)]
    return found + [PowersetLattice("abc"[:m]) for m in range(4)]


def scan_join_interior(part):
    """The operator of a join-closed part, by the n·|S| scan."""
    L = part.lattice
    return InteriorOperator(L, tuple(
        L.join([b for b in part.members if L.leq(b, a)]) for a in L.elements()))


def subset_scan_interiors(lattice):
    """Every subset in ascending mask order, kept when it is join-closed."""
    elems = list(lattice.elements())
    for m in range(1 << len(elems)):
        part = ClosedPart(lattice, frozenset(elems[i] for i in bits(m)), "P_c")
        if part.validate().ok:
            yield scan_join_interior(part)


def interior_tables(lattice):
    """All interior operators by filtering every table; only sensible on
    very small carriers."""
    n = lattice.size
    for table in product(range(n), repeat=n):
        if not all(lattice.leq(table[a], a) for a in range(n)):
            continue
        if not all(table[table[a]] == table[a] for a in range(n)):
            continue
        if all(lattice.leq(table[a], table[b])
               for a in range(n) for b in range(n) if lattice.leq(a, b)):
            yield InteriorOperator(lattice, table)


def alexandroff_interiors(lattice):
    for op in subset_scan_interiors(lattice):
        if ClosedPart(lattice, frozenset(op.opens()), "P_c_infty").validate().ok:
            yield op
