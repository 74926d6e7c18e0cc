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
sets by forced joins: only join-closed sets are built, in the order of
the scan over all 2^n subsets that they replace, and the tests keep that
scan and the brute-force table filter as cross-checks.
"""

from __future__ import annotations

from functools import lru_cache

from .interior import InteriorOperator, _join_tables
from .order import ExplicitLattice, FiniteLattice, bits

# a row of enumerate_lattices lists the subsets of at most this many of
# its free elements and counts through the rest, so a row's memory stays
# bounded at any size
LISTED_BITS = 8


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
    split = lru_cache(maxsize=1024)(_split_digits)

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
        # the subsets of the free elements in listed order: the slow
        # digits are counted in place, the next count setting the highest
        # unset one and clearing the set ones above it
        fixed = bit | top
        slow, inner = split(allowed & ~fixed)
        prefix = fixed
        while True:
            for row in inner:
                up[r] = prefix | row
                yield from rows(r + 1)
            unset = slow & ~prefix
            if not unset:
                break
            h = 1 << (unset.bit_length() - 1)
            prefix = (prefix & (h - 1)) | h | fixed

    yield from rows(1)


def _listed_subsets(free: int) -> tuple[int, ...]:
    """The subsets of free in the lexicographic order of their lowest
    bits: binary counting with the lowest bit of free as the most
    significant digit."""
    if not free:
        return (0,)
    low = free & -free
    rest = _listed_subsets(free ^ low)
    return rest + tuple(s | low for s in rest)


def _split_digits(free: int) -> tuple[int, tuple[int, ...]]:
    """The slow digits of free, counted in place, and the listed subsets
    of its highest ``LISTED_BITS`` elements, the fastest digits of the
    count."""
    fast = 0
    for _ in range(min(LISTED_BITS, free.bit_count())):
        fast |= 1 << ((free & ~fast).bit_length() - 1)
    return free ^ fast, _listed_subsets(fast)


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
    """All interior operators, one per join-closed set of opens, in the
    ascending order of the opens' masks (bit a for element a).

    Only join-closed sets are generated.  Elements are decided from the
    highest index down, each left out before it is taken in, so the masks
    come in ascending order; the bottom starts out forced.  A pair of
    comparable elements joins to one of the two, so when j is taken in
    only the chosen elements incomparable to j can make a new join, and
    all of them sit at higher positions.  A join at a higher position is
    already decided, and if it was left out the branch is cut; a join at
    a lower position is forced in, and a forced position has no absent
    branch.  Each pair of members is checked when the lower of the two
    is taken in, so every set that reaches the end is join-closed, and a
    join-closed set is never cut, since its members force only members.
    Nothing here needs the labels to follow the order.  The branches
    live on an explicit stack, since a recursive ``yield from`` would pay
    for every level on each operator it passes up.
    """
    L = lattice
    n = L.size
    table = _join_tables(L)
    incomparable = [sum(1 << b for b in L.elements() if not (L.leq(a, b) or L.leq(b, a)))
                    for a in L.elements()]
    # only elements above position j are chosen when j is taken in
    joins = [{c: L.join2(j, c) for c in bits(incomparable[j] >> j << j)}
             for j in L.elements()]
    # (next position, chosen, forced); the empty order has nothing to force
    stack = [(n - 1, 0, 1 << L.bottom if n else 0)]
    while stack:
        p, chosen, forced = stack.pop()
        if p < 0:
            yield InteriorOperator(L, table(chosen))
            continue
        bit = 1 << p
        forced_in = forced
        for c in bits(chosen & incomparable[p]):
            k = joins[p][c]
            if k < p:
                forced_in |= 1 << k
            elif not chosen >> k & 1:
                break
        else:  # pushed first, so it is popped after the absent branch
            stack.append((p - 1, chosen | bit, forced_in))
        if not forced & bit:
            stack.append((p - 1, chosen, forced))
