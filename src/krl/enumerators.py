"""Exhaustive small-model enumeration.

Lattices are enumerated through order-consistent labelings (the order
relation only ever relates i to j when i <= j as integers), so every
finite lattice shows up after relabeling along a linear extension.  They
are generated row by row, transitive by construction and cut as soon as
a meet is missing, so the cost follows the lattices found rather than
the 2^(n(n-1)/2) relations.  Monotone maps and implications are filled
position by position and cut at the first broken cover step.  Each
generator yields exactly what filtering the full ``product`` space would,
in the same order.  Interior operators are generated through their open
sets; the brute-force table filter over them is kept as a cross-check.
"""

from __future__ import annotations

from itertools import product

from .interior import ClosedPart, InteriorOperator, _join_interior
from .order import ExplicitLattice, FiniteLattice, bits


def enumerate_lattices(n: int):
    """All complete lattices on n order-consistently labeled elements, in
    the lexicographic order of the rows ``up[0], up[1], ...`` (within a
    row, element r+1 first, absent before present).

    The rows are fixed in that order.  Row r holds r and the top n-1, and
    ranges over the subsets of every earlier row that holds r, so the
    order is transitive by construction; row 0 is the bottom's, so it is
    full.  Fixing rows 0..r-1 makes the down-set of r final, so the meet
    of r with each earlier a is decided at once: it is the greatest
    element of the down-set down[r] & down[a], which can only be the
    highest index m there, and m is greatest exactly when down[m] is the
    whole set.  A top and every binary meet make a finite order a
    complete lattice.
    """
    if n == 0:
        return
    names = tuple(f"e{i}" for i in range(n))
    top = 1 << (n - 1)
    up = [(1 << n) - 1] + [top] * (n - 1)
    down = [1] * n
    subsets = {0: [0]}

    def ordered_subsets(free):
        # the subsets of free in the lexicographic order of their lowest bits
        if free not in subsets:
            low = free & -free
            rest = ordered_subsets(free ^ low)
            subsets[free] = rest + [s | low for s in rest]
        return subsets[free]

    def rows(r):
        if r >= n - 1:  # row n-1 is the top's alone, and meets with the top hold
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


def monotone_selfmaps(lattice: FiniteLattice):
    """All monotone tables from the lattice to itself."""
    return monotone_maps(lattice, lattice)


def monotone_maps(src: FiniteLattice, tgt: FiniteLattice):
    """All monotone tables, in ``product`` order."""
    above = [sum(1 << w for w in tgt.elements() if tgt.leq(v, w)) for v in tgt.elements()]
    yield from _monotone_tables(src, above)


def enumerate_implications(lattice: FiniteLattice):
    """All implication tables that are antitone on the left and monotone
    on the right, in ``product`` order over the rows; meet-commutation is
    deliberately not imposed.  Rows are the monotone maps, compared
    pointwise once per pair of rows, and a table is a monotone map from
    the lattice to the rows ordered the other way."""
    rows = list(monotone_selfmaps(lattice))
    leq = lattice.leq
    above = [sum(1 << j for j, s in enumerate(rows) if all(map(leq, s, r))) for r in rows]
    for combo in _monotone_tables(lattice, above):
        yield tuple(rows[i] for i in combo)


def _monotone_tables(src: FiniteLattice, above):
    """The tables t on ``src`` with t[lo] <= t[hi] along every cover step,
    where ``above[v]`` is the mask of the values at or above v, in
    ``product`` order.  Positions are filled left to right and a step is
    checked as soon as both of its ends are set; by transitivity the
    steps give every comparable pair."""
    below = [sum(1 << w for w, mask in enumerate(above) if mask >> v & 1)
             for v in range(len(above))]
    # for each position, the earlier positions a step ties it to
    lower, upper = [[] for _ in src.elements()], [[] for _ in src.elements()]
    for lo, hi in src.covers:
        if lo < hi:
            lower[hi].append(lo)
        else:
            upper[lo].append(hi)
    table = [0] * src.size

    def fill(p):
        if p == src.size:
            yield tuple(table)
            return
        values = (1 << len(above)) - 1
        for q in lower[p]:
            values &= above[table[q]]
        for q in upper[p]:
            values &= below[table[q]]
        for v in bits(values):
            table[p] = v
            yield from fill(p + 1)

    return fill(0)


def enumerate_interiors(lattice: FiniteLattice):
    """All interior operators, generated from their open-element sets.

    Open sets are exactly the join-closed subsets, so this enumeration
    is complete and never filters the full table space.
    """
    elems = list(lattice.elements())
    n = len(elems)
    for m in range(1 << n):
        members = frozenset(elems[i] for i in bits(m))
        part = ClosedPart(lattice, members, "P_c")
        if part.validate().ok:
            yield _join_interior(part)


def enumerate_interior_tables(lattice: FiniteLattice):
    """All interior operators by brute-force table filtering; only
    sensible on very small carriers, used to cross-check the open-set
    route."""
    n = lattice.size
    for table in product(range(n), repeat=n):
        if not all(lattice.leq(table[a], a) for a in range(n)):
            continue
        if not all(table[table[a]] == table[a] for a in range(n)):
            continue
        if all(lattice.leq(table[a], table[b])
               for a in range(n) for b in range(n) if lattice.leq(a, b)):
            yield InteriorOperator(lattice, table)


def enumerate_alexandroff(lattice: FiniteLattice):
    for op in enumerate_interiors(lattice):
        members = frozenset(op.opens())
        if ClosedPart(lattice, members, "P_c_infty").validate().ok:
            yield op

