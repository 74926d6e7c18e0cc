"""Finite complete lattices with two interchangeable backends.

Elements are small integers indexing a carrier.  The explicit backend
stores the full order relation as bitmask rows.  The powerset backend
represents subsets of a base set as bitmasks ordered by *reverse*
inclusion, so arbitrary meets are bitwise unions and are never found by
scanning lower bounds.

Two rules hold throughout.  A meet needs a checked order: an explicit
lattice finds its meets and joins only after its order has passed
:func:`validate_lattice`, and raises :class:`~krl.errors.LatticeError`
naming the first failed clause otherwise, while the validators report
those clauses without asking for a meet.  Public names are read-only
(:mod:`krl.lazy`).
"""

from __future__ import annotations

from collections import Counter

from .errors import LatticeError
from .lazy import ReadOnly, lazy
from .report import Report


def bits(mask: int):
    """Yield the positions of the set bits of ``mask``, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def positions_of(names) -> dict[str, int]:
    """Each name's position in ``names``; the first of a repeated name
    wins, as with ``tuple.index``."""
    return dict(zip(reversed(names), range(len(names) - 1, -1, -1)))


class FiniteLattice(ReadOnly):
    """Interface shared by the explicit and powerset backends."""

    size: int

    def leq(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def meet(self, subset) -> int:
        raise NotImplementedError

    def join(self, subset) -> int:
        raise NotImplementedError

    @lazy
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every pair (a, b) where b covers a (b is above a, nothing lies
        strictly between), grouped by a in ascending order.  On a finite
        order, <= is the reflexive-transitive closure of these steps."""
        raise NotImplementedError

    @lazy
    def lower_covers(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each element but the bottom with the elements it covers, along
        a linear extension: an element comes after every element below it."""
        lower = [[] for _ in self.elements()]
        upper = [[] for _ in self.elements()]
        for lo, hi in self.covers:
            lower[hi].append(lo)
            upper[lo].append(hi)
        pending = [len(cs) for cs in lower]
        order = [a for a in self.elements() if not pending[a]]
        for a in order:  # the loop also visits what it appends
            for u in upper[a]:
                pending[u] -= 1
                if not pending[u]:
                    order.append(u)
        return tuple((a, tuple(lower[a])) for a in order if lower[a])

    @lazy
    def verdict(self) -> Report:
        """The report of :func:`validate_lattice`, computed once per lattice
        object.  Read it, do not change it: the validator hands out copies."""
        return _lattice_report(self)

    @lazy
    def order_failures(self) -> tuple:
        """The failed clauses of :func:`validate_lattice`: every validator
        that needs the order, and the first meet or join, read this verdict."""
        return tuple(self.verdict.failures())

    @lazy
    def meet_irreducibles(self) -> tuple[int, ...]:
        """The elements with exactly one upper cover, ascending.  On a
        finite lattice every element but the top is the meet of those
        above it; on a powerset they are the singletons."""
        upper = Counter(lo for lo, _ in self.covers)
        return tuple(a for a in self.elements() if upper[a] == 1)

    @property
    def top(self) -> int:
        return self.meet(())

    @property
    def bottom(self) -> int:
        return self.join(())

    def elements(self) -> range:
        return range(self.size)

    def name(self, a: int) -> str:
        raise NotImplementedError

    def name_set(self, subset) -> str:
        return "{" + ", ".join(sorted(self.name(a) for a in subset)) + "}"


class ExplicitLattice(FiniteLattice):
    """A lattice given by its full order relation.

    ``up[a]`` is the bitmask of elements above ``a`` (inclusive);
    ``down[b]`` the mask of elements below ``b``, built on first use
    unless :meth:`from_pairs` built it with ``up``.

    A meet needs a checked order.  Each meet is one AND-fold of down-sets
    and one lookup in :attr:`greatest_of_down_set`, each join one AND-fold
    of up-sets and one lookup in :attr:`least_of_up_set`.  The first read
    of either table runs the order check, and on an order that fails it
    raises :class:`~krl.errors.LatticeError` naming the first failed
    ``order.*`` clause and its witness.  Its public names are read-only,
    the lazy ones included.
    """

    # The read-only guard makes each store a Python call, and the enumerators
    # build lattices by the ten thousand: __init__ stores past it.
    def __init__(self, names, up_masks):
        names = tuple(names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "up", tuple(up_masks))
        object.__setattr__(self, "size", len(names))

    @property
    def _full(self) -> int:
        return (1 << self.size) - 1

    @lazy
    def down(self) -> tuple[int, ...]:
        down = [0] * self.size
        for a in range(self.size):
            for b in bits(self.up[a]):
                down[b] |= 1 << a
        return tuple(down)

    @classmethod
    def from_pairs(cls, names, pairs) -> "ExplicitLattice":
        """Build from (a, b) pairs meaning a <= b, reflexive pairs implied;
        the down masks are filled in the same loop as the up masks."""
        up = [1 << a for a in range(len(names))]
        down = up[:]
        for a, b in pairs:
            up[a] |= 1 << b
            down[b] |= 1 << a
        lattice = cls(names, up)
        object.__setattr__(lattice, "down", tuple(down))
        return lattice

    @classmethod
    def from_leq(cls, names, leq_fn) -> "ExplicitLattice":
        n = len(names)
        up = [sum(1 << b for b in range(n) if leq_fn(a, b)) for a in range(n)]
        return cls(names, up)

    @classmethod
    def chain(cls, n: int) -> "ExplicitLattice":
        names = [f"e{i}" for i in range(n)]
        return cls.from_leq(names, lambda a, b: a <= b)

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def pairs(self):
        """All (a, b) with a <= b and a != b, in ascending order."""
        return [(a, b) for a in range(self.size) for b in bits(self.up[a]) if a != b]

    @lazy
    def covers(self) -> tuple[tuple[int, int], ...]:
        # b in above(a) is a cover unless some other c in above(a) has b
        # strictly above it, so the covers are above(a) minus every above(c)
        strict = [m & ~(1 << c) for c, m in enumerate(self.up)]
        pairs = []
        for a, above in enumerate(strict):
            beyond = 0
            for c in bits(above):
                beyond |= strict[c]
            pairs.extend((a, b) for b in bits(above & ~beyond))
        return tuple(pairs)

    @lazy
    def greatest_of_down_set(self) -> dict[int, int]:
        """Each principal down-set ``down[m]``, mapped to m, on an order that
        passed its check.  The AND-fold of the down-sets of a family is the
        set of its common lower bounds; x lies below each member exactly
        when it lies below their meet m, so that set is the down-set of m.
        By antisymmetry the principal down-sets are distinct."""
        _require_lattice(self)
        return {mask: m for m, mask in enumerate(self.down)}

    @lazy
    def least_of_up_set(self) -> dict[int, int]:
        """Each principal up-set ``up[m]``, mapped to m, on an order that
        passed its check: the order dual of :attr:`greatest_of_down_set`,
        which joins read."""
        _require_lattice(self)
        return {mask: m for m, mask in enumerate(self.up)}

    def _greatest(self, mask: int) -> int | None:
        # greatest element of the mask, if the mask has one: the scan that
        # the order check keeps for a relation that is not a partial order
        for m in bits(mask):
            if mask & ~self.down[m] == 0:
                return m
        return None

    def meet(self, subset) -> int:
        down, acc = self.down, self._full
        for c in subset:
            acc &= down[c]
        return self.greatest_of_down_set[acc]

    def meet2(self, a: int, b: int) -> int:
        down = self.down
        return self.greatest_of_down_set[down[a] & down[b]]

    def meet_of_mask(self, mask: int) -> int:
        """The meet of the elements of ``mask``."""
        return self.meet(bits(mask))

    def join(self, subset) -> int:
        up, acc = self.up, self._full
        for c in subset:
            acc &= up[c]
        return self.least_of_up_set[acc]

    def join2(self, a: int, b: int) -> int:
        up = self.up
        return self.least_of_up_set[up[a] & up[b]]

    def name(self, a: int) -> str:
        return self.names[a]

    @lazy
    def _positions(self) -> dict[str, int]:
        return positions_of(self.names)

    def index_of(self, name: str) -> int:
        got = self._positions.get(name)
        if got is None:
            raise LatticeError(f"no element named '{name}'")
        return got

    def __eq__(self, other):
        return (isinstance(other, ExplicitLattice)
                and self.names == other.names and self.up == other.up)

    def __hash__(self):
        return hash((self.names, self.up))


class PowersetLattice(FiniteLattice):
    """Subsets of a base set under reverse inclusion.

    Elements are bitmasks over the base.  The order puts smaller sets on
    top: P <= Q exactly when Q is contained in P, so the empty set is
    the top element and the full base is the bottom.
    """

    def __init__(self, base_names):
        base_names = tuple(base_names)
        object.__setattr__(self, "base_names", base_names)
        object.__setattr__(self, "base_size", len(base_names))
        object.__setattr__(self, "size", 1 << len(base_names))
        object.__setattr__(self, "_full", self.size - 1)

    order_failures = ()  # reverse inclusion is a complete lattice by construction

    def leq(self, a: int, b: int) -> bool:
        return b & a == b

    def meet(self, subset) -> int:
        acc = 0
        for m in subset:
            acc |= m
        return acc

    def join(self, subset) -> int:
        acc = self._full
        for m in subset:
            acc &= m
        return acc

    def meet2(self, a: int, b: int) -> int:
        return a | b

    @lazy
    def covers(self) -> tuple[tuple[int, int], ...]:
        # a step up removes one element of the subset
        return tuple((a, a & ~(1 << i)) for a in range(self.size) for i in bits(a))

    def join2(self, a: int, b: int) -> int:
        return a & b

    @property
    def top(self) -> int:
        return 0

    @property
    def bottom(self) -> int:
        return self._full

    def name(self, a: int) -> str:
        return "{" + " ".join(self.base_names[i] for i in bits(a)) + "}"

    def index_of(self, name: str) -> int:
        text = name.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise LatticeError(f"'{name}' is not a subset name")
        positions, mask = self._positions, 0
        for part in text[1:-1].replace(",", " ").split():
            got = positions.get(part)
            if got is None:
                raise LatticeError(f"unknown base element '{part}' in '{name}'")
            mask |= 1 << got
        return mask

    @lazy
    def _positions(self) -> dict[str, int]:
        return positions_of(self.base_names)

    def __eq__(self, other):
        return isinstance(other, PowersetLattice) and self.base_names == other.base_names

    def __hash__(self):
        return hash(self.base_names)


def first_failing_pair(items, holds):
    """The first pair ``(x, y)`` of ``items`` with ``holds(x, y)`` false, or None.

    Pairs come in the order an ascending scan over subset bitmasks meets
    them.  On a finite lattice, preserving the empty meet and every binary
    one is preserving all meets.  When the meet of two items never comes
    later in ``items`` than they do, the first failing pair is the scan's
    first failing family: folding a family's two lowest members into their
    meet gives an earlier family with the same meet.
    """
    return next(((x, y) for j, y in enumerate(items) for x in items[:j]
                 if not holds(x, y)), None)


def up_preimages(lattice: ExplicitLattice, table) -> list[int]:
    """For a table x -> table[x] into ``lattice``, the mask U_y of the
    positions x with y <= table[x], for every element y.

    The fibers of the table come first; then, from the top down, each U_y
    is its fiber joined with the U of each upper cover of y.  On an order
    that passed its checks, <= is the reflexive-transitive closure of the
    cover steps, so that is the preimage of the up-set of y, in n + |covers|
    mask operations.
    """
    masks = [0] * lattice.size
    for x, y in enumerate(table):
        masks[y] |= 1 << x
    # the reverse of a linear extension: every upper cover of a has pushed
    # its final mask into a before a pushes into its own lower covers
    for a, lower in reversed(lattice.lower_covers):
        for lo in lower:
            masks[lo] |= masks[a]
    return masks


def unpreserved_pair(source: FiniteLattice, target: FiniteLattice,
                     table) -> tuple[int, int] | None:
    """The first pair (x, y) of ``source`` elements, in the order of
    :func:`first_failing_pair`, whose meet the map x -> table[x] does not
    carry to the meet of the images, or None.  Like every meet, it needs
    both orders checked.

    Between two powersets, where meets are unions, a map preserves them
    exactly when table[b] = table[b minus its lowest point] | table[its
    lowest point] for every b other than the empty set.  By induction
    table[b] is then the union of table[{}] and the values at the points
    of b, so the value at a union of two sets is the union of their
    values.  That is n checks instead of n^2/2 pairs.

    A map f between two explicit lattices preserves binary meets exactly
    when every nonempty U_y = f^-1(up-set of y) of :func:`up_preimages`
    (on the target) is the up-set of some m in the source, one lookup in
    the source's ``least_of_up_set`` each.  If f preserves binary meets it
    is monotone (x <= x' gives f(x) = f(x) meet f(x') <= f(x')), so U_y is
    an up-set; y <= f(x) and y <= f(x') give y <= f(x) meet f(x') =
    f(x meet x'), so U_y is closed under binary meets, and a nonempty
    finite one holds its meet m, so U_y is the up-set of m.  Conversely,
    if each nonempty U_y is principal, x <= x' puts x' in U_{f(x)}, which
    is an up-set holding x, so f is monotone and f(x meet x') <= y =
    f(x) meet f(x'); and x, x' in U_y, the up-set of some m, give
    m <= x meet x', so y <= f(x meet x').

    Either rule decides; the pair scan runs only to name a failure.
    """
    if isinstance(source, PowersetLattice) and isinstance(target, PowersetLattice):
        if all(table[b] == table[b & (b - 1)] | table[b & -b] for b in range(1, source.size)):
            return None
    elif isinstance(source, ExplicitLattice) and isinstance(target, ExplicitLattice):
        least = source.least_of_up_set
        _require_lattice(target)  # up_preimages reads <= off the target's covers
        if all(not u or u in least for u in up_preimages(target, table)):
            return None
    meet_s, meet_t = source.meet2, target.meet2
    return first_failing_pair(list(source.elements()),
                              lambda x, y: table[meet_s(x, y)] == meet_t(table[x], table[y]))


def unpreserved_meet(source: FiniteLattice, target: FiniteLattice, table) -> str | None:
    """The name of the first family whose meet the map x -> table[x] does
    not carry to the meet of its images, or None: the empty family, then
    the pairs of :func:`unpreserved_pair`.  On a finite lattice every
    nonempty meet is a fold of binary meets, so these decide every family."""
    family = () if table[source.top] != target.top else unpreserved_pair(source, target, table)
    return None if family is None else source.name_set(family)


def upward_closure(lattice: FiniteLattice, subset) -> frozenset:
    """All elements above some member of ``subset``."""
    out = set()
    for a in subset:
        for b in lattice.elements():
            if lattice.leq(a, b):
                out.add(b)
    return frozenset(out)


def validate_lattice(lattice: FiniteLattice) -> Report:
    """Check the order axioms and completeness, with witnesses.

    Powerset backends satisfy everything by construction; the same
    clauses are still emitted so reports stay uniform.  The report is
    computed once per lattice (``FiniteLattice.verdict``); each call
    returns a copy.
    """
    return lattice.verdict.copy()


def _lattice_report(lattice: FiniteLattice) -> Report:
    """The body of :func:`validate_lattice`.

    For completeness, all binary meets plus a greatest element suffice on
    a finite carrier (the empty meet is the top, folds give the rest).  On
    a partial order a set has a greatest element m exactly when it is the
    down-set of m: m lies in it and bounds it, and by transitivity
    everything below m lies below what bounds the set.  So one lookup
    among the principal down-sets decides each pair, and a comparable
    pair meets at its lower member: only the pairs b > a outside
    up[a] | down[a] can fail, and the first of them to fail is the
    scan's.  Any other relation keeps the scan for a greatest element."""
    rep = Report("lattice")
    if isinstance(lattice, PowersetLattice):
        for clause in ("order.reflexive", "order.antisymmetric", "order.transitive",
                       "order.complete"):
            rep.check(clause, True)
        return rep

    nm = lattice.name
    up, down, elems = lattice.up, lattice.down, lattice.elements()
    witness = next((nm(a) for a in elems if not up[a] >> a & 1), None)
    rep.check("order.reflexive", witness is None, witness)

    witness = next((f"({nm(a)}, {nm(next(bits(both)))})" for a in elems
                    if (both := up[a] & down[a] & ~(1 << a))), None)
    rep.check("order.antisymmetric", witness is None, witness)

    witness = next((f"({nm(a)}, {nm(b)}, {nm(next(bits(skipped)))})"
                    for a in elems for b in bits(up[a])
                    if (skipped := up[b] & ~up[a])), None)
    rep.check("order.transitive", witness is None, witness)

    full = lattice._full
    if rep.ok:
        principal = {mask: m for m, mask in enumerate(down)}
        witness = next((lattice.name_set((a, b)) for a in elems
                        for b in bits(full & ~(up[a] | down[a]) & -(2 << a))
                        if (down[a] & down[b]) not in principal), None)
        has_top = full in principal
    else:
        greatest = lattice._greatest
        witness = next((lattice.name_set((a, b))
                        for a in elems for b in range(a + 1, lattice.size)
                        if greatest(down[a] & down[b]) is None), None)
        has_top = greatest(full) is not None
    if witness is None and not has_top:
        witness = "{} (no top element)"
    rep.check("order.complete", witness is None, witness)
    return rep


def _require_lattice(lattice: FiniteLattice) -> None:
    """Raise :class:`LatticeError` naming the first failed ``order.*``
    clause of the lattice and its witness, if its order check fails."""
    for failed in lattice.order_failures:
        raise LatticeError(f"not a complete lattice: {failed.clause} fails at {failed.witness}")
