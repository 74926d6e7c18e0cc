"""Finite complete lattices with two interchangeable backends.

Elements are small integers indexing a carrier.  The explicit backend
stores the full order relation as bitmask rows.  The powerset backend
represents subsets of a base set as bitmasks ordered by *reverse*
inclusion, so arbitrary meets are bitwise unions and are never found by
scanning lower bounds.
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
        that needs the order reads this verdict."""
        return tuple(validate_lattice(self).failures())

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
    Meets and joins scan the shared bound masks for their extremum, with
    binary results cached; once the order check has passed, a meet is one
    lookup among the principal down-sets instead.
    """

    # The read-only guard makes each store a Python call, and the enumerators
    # build lattices by the ten thousand: __init__ stores past it, and the
    # extrema and the full mask are found when first asked for.
    _top = _bottom = None
    _fields = ("names", "up", "size")
    # each principal down-set mapped to its greatest element, kept by the
    # order check once it passes: then a meet is one lookup (see meet2)
    _greatest_of_down_set = None

    def __init__(self, names, up_masks):
        names = tuple(names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "up", tuple(up_masks))
        object.__setattr__(self, "size", len(names))
        object.__setattr__(self, "_meet2", {})
        object.__setattr__(self, "_join2", {})

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
        lattice.down = tuple(down)
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

    @property
    def checked(self) -> bool:
        """Whether the order check has run and passed; asking runs no check."""
        return self._greatest_of_down_set is not None

    @lazy
    def least_of_up_set(self) -> dict[int, int]:
        """Each principal up-set ``up[m]``, mapped to its least element m.
        On an order that passed its checks the masks are distinct, by
        antisymmetry."""
        return {mask: m for m, mask in enumerate(self.up)}

    def meet_of_mask(self, mask: int) -> int:
        """The meet of the elements of a nonempty ``mask``, on an order that
        passed its check: one AND-fold of their down-sets, looked up among
        the principal down-sets.  The fold is the set of common lower bounds
        of the mask.  x lies below each member exactly when it lies below
        their meet m, so that set is the down-set of m, and on a checked
        order the principal down-sets are distinct and mapped to their
        greatest elements."""
        down, acc = self.down, self._full
        for c in bits(mask):
            acc &= down[c]
        return self._greatest_of_down_set[acc]

    def _greatest(self, mask: int) -> int | None:
        # greatest element of the mask, if the mask has one
        for m in bits(mask):
            if mask & ~self.down[m] == 0:
                return m
        return None

    def _least(self, mask: int) -> int | None:
        for m in bits(mask):
            if mask & ~self.up[m] == 0:
                return m
        return None

    def meet(self, subset) -> int:
        subset = tuple(subset)
        if not subset:
            if self._top is None:
                top = self._greatest(self._full)
                if top is None:
                    raise LatticeError("no top element")
                self._top = top
            return self._top
        acc = subset[0]
        for c in subset[1:]:
            acc = self.meet2(acc, c)
        return acc

    def meet2(self, a: int, b: int) -> int:
        principal = self._greatest_of_down_set
        if principal is not None:
            # on an order that passed its checks the common lower bounds are
            # the down-set of the meet
            down = self.down
            return principal[down[a] & down[b]]
        key = (a, b) if a <= b else (b, a)
        got = self._meet2.get(key)
        if got is None:
            got = self._greatest(self.down[a] & self.down[b])
            if got is None:
                raise LatticeError(
                    f"elements {self.names[a]}, {self.names[b]} have no meet"
                )
            self._meet2[key] = got
        return got

    def join(self, subset) -> int:
        subset = tuple(subset)
        if not subset:
            if self._bottom is None:
                bottom = self._least(self._full)
                if bottom is None:
                    raise LatticeError("no bottom element")
                self._bottom = bottom
            return self._bottom
        acc = subset[0]
        for c in subset[1:]:
            acc = self.join2(acc, c)
        return acc

    def join2(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        got = self._join2.get(key)
        if got is None:
            # least upper bound computed as the least common upper bound
            got = self._least(self.up[a] & self.up[b])
            if got is None:
                raise LatticeError(
                    f"elements {self.names[a]}, {self.names[b]} have no join"
                )
            self._join2[key] = got
        return got

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
    _fields = ("base_names", "base_size", "size")

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
    carry to the meet of the images, or None.

    Between two powersets, where meets are unions, a map preserves them
    exactly when table[b] = table[b minus its lowest point] | table[its
    lowest point] for every b other than the empty set.  By induction
    table[b] is then the union of table[{}] and the values at the points
    of b, so the value at a union of two sets is the union of their
    values.  That is n checks instead of n^2/2 pairs.

    A map f from an explicit lattice to itself (or to an equal one) whose
    order has passed its check preserves binary meets exactly when every
    nonempty U_y = f^-1(up-set of y) of :func:`up_preimages` is the up-set
    of some m, one lookup in ``least_of_up_set`` each.  If f preserves
    binary meets it is monotone (x <= x' gives f(x) = f(x) meet f(x') <=
    f(x')), so U_y is an up-set; y <= f(x) and y <= f(x') give y <= f(x)
    meet f(x') = f(x meet x'), so U_y is closed under binary meets, and a
    nonempty finite one holds its meet m, so U_y is the up-set of m.
    Conversely, if each nonempty U_y is principal, x <= x' puts x' in
    U_{f(x)}, which is an up-set holding x, so f is monotone and f(x meet x')
    <= y = f(x) meet f(x'); and x, x' in U_y, the up-set of some m, give
    m <= x meet x', so y <= f(x meet x').  The rule never runs the order
    check itself, and maps between two different lattices keep the scan:
    on the small maps that meet an unchecked order, the check costs more
    than the scan.

    Either rule decides; the pair scan runs only to name a failure.
    """
    if isinstance(source, PowersetLattice) and isinstance(target, PowersetLattice):
        if all(table[b] == table[b & (b - 1)] | table[b & -b] for b in range(1, source.size)):
            return None
    elif isinstance(source, ExplicitLattice) and source.checked and source == target:
        least = source.least_of_up_set
        if all(not u or u in least for u in up_preimages(source, table)):
            return None
    meet_s, meet_t = source.meet2, target.meet2
    return first_failing_pair(list(source.elements()),
                              lambda x, y: table[meet_s(x, y)] == meet_t(table[x], table[y]))


def unpreserved_meet(source: FiniteLattice, target: FiniteLattice, table) -> str | None:
    """The name of the first family whose meet the map x -> table[x] does
    not carry to the meet of its images, or None: the empty family, then
    the pairs of :func:`unpreserved_pair`."""
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
    """The body of :func:`validate_lattice`."""
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

    # completeness: all binary meets plus a greatest element suffice on a
    # finite carrier (the empty meet is the top, folds give the rest).  On
    # a partial order a set has a greatest element m exactly when it is
    # the down-set of m: m lies in it and bounds it, and by transitivity
    # everything below m lies below what bounds the set.  So one lookup
    # among the principal down-sets decides each pair; any other relation
    # keeps the scan for a greatest element.  A lattice keeps the lookup
    # for its meets.
    principal = {mask: m for m, mask in enumerate(down)} if rep.ok else None

    def has_greatest(mask):
        if principal is not None:
            return mask in principal
        return lattice._greatest(mask) is not None
    witness = next((lattice.name_set((a, b))
                    for a in elems for b in range(a + 1, lattice.size)
                    if not has_greatest(down[a] & down[b])), None)
    if witness is None and not has_greatest(lattice._full):
        witness = "{} (no top element)"
    rep.check("order.complete", witness is None, witness)
    if rep.ok:
        lattice._greatest_of_down_set = principal
    return rep
