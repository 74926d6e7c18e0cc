"""Exhaustive small-model enumeration.

Lattices are enumerated through order-consistent labelings (the order
relation only ever relates i to j when i <= j as integers), so every
finite lattice shows up after relabeling along a linear extension while
the candidate space stays tiny.  Implications, interior operators, and
candidate morphism tables are filtered from full table spaces, except
that interior operators can also be generated through their open sets,
which is exponentially cheaper on powerset carriers.
"""

from __future__ import annotations

from itertools import product

from .interior import ClosedPart, InteriorOperator, _join_interior
from .order import ExplicitLattice, FiniteLattice, bits


def enumerate_lattices(n: int):
    """All complete lattices on n order-consistently labeled elements."""
    names = tuple(f"e{i}" for i in range(n))
    strict = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in product((False, True), repeat=len(strict)):
        up = [1 << i for i in range(n)]
        for (i, j), chosen in zip(strict, choice):
            if chosen:
                up[i] |= 1 << j
        # transitivity
        if any(up[i] | up[j] != up[i] for i in range(n) for j in bits(up[i])):
            continue
        lattice = ExplicitLattice(names, tuple(up))
        if _is_complete(lattice):
            yield lattice


def _is_complete(lattice: ExplicitLattice) -> bool:
    # a top and all binary meets give every meet and join on a finite carrier
    n = lattice.size
    return (lattice._greatest((1 << n) - 1) is not None
            and all(lattice._greatest(lattice.down[a] & lattice.down[b]) is not None
                    for a in range(n) for b in range(a + 1, n)))


def monotone_selfmaps(lattice: FiniteLattice):
    """All monotone tables from the lattice to itself."""
    return monotone_maps(lattice, lattice)


def monotone_maps(src: FiniteLattice, tgt: FiniteLattice):
    """All monotone tables, tested along the cover steps of ``src``: by
    transitivity they give every comparable pair."""
    covers = src.covers
    for table in product(range(tgt.size), repeat=src.size):
        if all(tgt.leq(table[lo], table[hi]) for lo, hi in covers):
            yield table


def enumerate_implications(lattice: FiniteLattice):
    """All implication tables that are antitone on the left and monotone
    on the right; meet-commutation is deliberately not imposed.  Rows are
    the monotone maps, compared pointwise once per pair of rows, and
    antitone is tested along the cover steps."""
    rows = list(monotone_selfmaps(lattice))
    below = [[all(map(lattice.leq, r, s)) for s in rows] for r in rows]
    for combo in product(range(len(rows)), repeat=lattice.size):
        if all(below[combo[hi]][combo[lo]] for lo, hi in lattice.covers):
            yield tuple(rows[i] for i in combo)


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

