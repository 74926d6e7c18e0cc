"""Interior operators on finite lattices and implication change.

An interior operator is deflationary, idempotent, and monotone; it is
Alexandroff when it commutes with arbitrary meets.  Operators correspond
bijectively to their sets of open elements, and every operator has a
least Alexandroff operator above it.  An Alexandroff operator that is
compatible with a separator turns an implicative algebra into a new one
on the open elements, with the interior of the old implication as the
new implication; the inclusion back and the corestricted interior map
are both computationally dense, with explicit witnesses.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (HypothesisFailed, InvalidClosedPart, NotAlexandroff,
                     VerificationFailed)
from .implicative import (ImplicativeAlgebra, ImplicativeStructure,
                          combinator_i, combinator_nu, validate_algebra)
from .lazy import ReadOnly, lazy
from .morphism import DensityCertificate, MorphismSpec
from .order import (ExplicitLattice, FiniteLattice, PowersetLattice, bits,
                    first_failing_pair, unpreserved_meet)
from .report import Report


@dataclass(frozen=True)
class InteriorOperator:
    lattice: FiniteLattice
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]

    def opens(self) -> tuple[int, ...]:
        return tuple(a for a in self.lattice.elements() if self.table[a] == a)


def is_topological(op: InteriorOperator):
    """Binary meet commutation plus a fixed top.

    The same test as :func:`is_alexandroff`, so the two always agree; this
    one scans pairs row by row and reports the first as ``(a, b)``, or the
    image of the top.  :func:`validate_interior` calls it only to name that
    witness.
    """
    L, t = op.lattice, op.table
    if t[L.top] != L.top:
        return False, f"top: {L.name(t[L.top])}"
    witness = next((f"({L.name(a)}, {L.name(b)})" for a in L.elements() for b in L.elements()
                    if t[L.meet2(a, b)] != L.meet2(t[a], t[b])), None)
    return witness is None, witness


def is_alexandroff(op: InteriorOperator):
    """Meet commutation over every family: the empty one, then pairs
    (see :func:`~krl.order.unpreserved_meet`)."""
    witness = unpreserved_meet(op.lattice, op.lattice, op.table)
    return witness is None, witness


def validate_interior(op: InteriorOperator) -> Report:
    """The three operator axioms plus the computed class flags; the class
    is "alexandroff" or "plain".  A base order that is not a complete
    lattice gets only its failed ``order.*`` clauses."""
    L = op.lattice
    nm = L.name
    rep = Report("interior")
    rep.checks.extend(L.order_failures)
    if not rep.ok:
        return rep
    witness = next((nm(a) for a in L.elements() if not L.leq(op.table[a], a)), None)
    rep.check("interior.deflationary", witness is None, witness)
    witness = next((nm(a) for a in L.elements()
                    if op.table[op.table[a]] != op.table[a]), None)
    rep.check("interior.idempotent", witness is None, witness)
    # monotone along the cover steps is monotone, by transitivity; the
    # pair scan runs only to name the first failing pair
    witness = None if all(L.leq(op.table[lo], op.table[hi]) for lo, hi in L.covers) else next(
        f"({nm(a)}, {nm(b)})" for a in L.elements() for b in L.elements()
        if L.leq(a, b) and not L.leq(op.table[a], op.table[b]))
    rep.check("interior.monotone", witness is None, witness)
    if rep.ok:
        # the two flags are one theorem; is_topological runs for its witness
        alex, w_alex = is_alexandroff(op)
        rep.flag("topological", alex, None if alex else f"witness {is_topological(op)[1]}")
        rep.flag("alexandroff", alex, None if alex else f"witness family {w_alex}")
        rep.data["class"] = "alexandroff" if alex else "plain"
    return rep


def operator_leq(op1: InteriorOperator, op2: InteriorOperator) -> bool:
    L = op1.lattice
    return all(L.leq(op1.table[a], op2.table[a]) for a in L.elements())


def closure_from_interior(op: InteriorOperator) -> tuple[int, ...]:
    """The closure sending an element to the meet of the open elements
    above it; its fixed points are checked to be exactly the opens."""
    alex, witness = is_alexandroff(op)
    if not alex:
        raise NotAlexandroff(f"meet commutation fails at family {witness}")
    return _alexandroff_closure(op)


def _alexandroff_closure(op: InteriorOperator) -> tuple[int, ...]:
    """:func:`closure_from_interior` for an operator already known to be
    Alexandroff."""
    L = op.lattice
    opens = op.opens()
    table = tuple(
        L.meet([b for b in opens if L.leq(a, b)]) for a in L.elements())
    fixed = tuple(a for a in L.elements() if table[a] == a)
    if fixed != opens:
        raise VerificationFailed("closure fixed points differ from the opens")
    return table


@dataclass(frozen=True)
class ClosedPart:
    """A set of elements closed under ambient joins (and, for the
    alexandroff flavor, ambient meets as well)."""

    lattice: FiniteLattice
    members: frozenset
    flavor: str                  # "P_c" or "P_c_infty"

    def validate(self) -> Report:
        L = self.lattice
        rep = Report("closed-part")
        members = sorted(self.members)

        def failing(unit, op2):
            # the first family whose join (meet) leaves the part
            family = () if unit not in self.members else first_failing_pair(
                members, lambda a, b: op2(a, b) in self.members)
            return None if family is None else L.name_set(family)

        witness = failing(L.bottom, L.join2)
        rep.check("closed.join-closed", witness is None, witness)
        if self.flavor == "P_c_infty":
            witness = failing(L.top, L.meet2)
            rep.check("closed.meet-closed", witness is None, witness)
        return rep


def theta(op: InteriorOperator) -> ClosedPart:
    """The open-element set of an operator, with its computed flavor."""
    L = op.lattice
    members = frozenset(op.opens())
    flavor = "P_c_infty" if is_alexandroff(op)[0] else "P_c"
    return ClosedPart(L, members, flavor)


def theta_inv(part: ClosedPart) -> InteriorOperator:
    """The operator sending an element to the join of the members below
    it; inverse to :func:`theta`."""
    rep = part.validate()
    if not rep.ok:
        first = rep.failures()[0]
        raise InvalidClosedPart(f"{first.clause} at {first.witness}")
    return _join_interior(part.lattice, part.members)


def _join_interior(L: FiniteLattice, members) -> InteriorOperator:
    """:func:`theta_inv` for members already known to be join-closed."""
    return InteriorOperator(L, _join_tables(L)(sum(1 << a for a in members)))


def _join_tables(L: FiniteLattice):
    """The table builder of ``L``: a function from a member mask S (bit a
    for element a) to the table a -> join(S ∩ ↓a).

    It goes along a linear extension and sets t[a] = a when a is in S,
    and otherwise the join of t[c] over the lower covers c of a.  By
    induction along the extension this is join(S ∩ ↓a) for every S: if
    a is in S it is the greatest element of S ∩ ↓a; if not, every element
    strictly below a lies below one of its lower covers (the order is
    finite), so S ∩ ↓a is the union of the S ∩ ↓c and its join is the
    join of their joins.  The bottom has no lower cover and keeps
    itself, the empty join.  For a join-closed S every join(S ∩ ↓a) is a
    member, and the table is the interior operator whose opens are S.
    """
    steps = tuple((1 << a, a, lower[0], lower[1:]) for a, lower in L.lower_covers)
    join2, n = L.join2, L.size

    def table(members: int) -> tuple[int, ...]:
        t = list(range(n))
        for bit, a, first, rest in steps:
            if not members & bit:
                v = t[first]
                for c in rest:
                    v = join2(v, t[c])
                t[a] = v
        return tuple(t)

    return table


def al_approx(op: InteriorOperator) -> InteriorOperator:
    """Least Alexandroff operator above the given one.

    On a powerset backend the approximation acts by unioning the
    interiors of singletons; in general the opens are closed under
    ambient joins and meets and the correspondence inverted.
    """
    L = op.lattice
    if not isinstance(L, PowersetLattice):
        return _al_approx_general(op)
    table = []
    for p in L.elements():
        acc = 0
        for x in bits(p):
            acc |= op.table[1 << x]
        table.append(acc)
    return InteriorOperator(L, tuple(table))


def _al_approx_general(op: InteriorOperator) -> InteriorOperator:
    L = op.lattice
    members = set(op.opens())
    members.add(L.top)
    members.add(L.bottom)
    while True:
        extra = set()
        current = sorted(members)
        for a in current:
            for b in current:
                m = L.meet2(a, b)
                if m not in members:
                    extra.add(m)
                j = L.join2(a, b)
                if j not in members:
                    extra.add(j)
        if not extra:
            break
        members |= extra
    # closed under binary joins and meets by the loop above
    return _join_interior(L, members)


class ChangedAlgebra(ReadOnly):
    """An algebra on the open elements of a compatible operator, built once
    per base algebra and operator (by value) and kept on the base
    (``ImplicativeAlgebra._changes``), so every caller shares one changed
    algebra and one report.

    ``opens`` lists the open elements by their base ids and ``to_sub``, a
    read-only mapping, takes each to its position there; ``algebra`` is the
    induced algebra on the re-indexed open carrier.  ``i_comb`` and ``nu``
    are the base algebra's identity and composition combinators.  It holds the base's structure but not the
    base itself, so that the base keeps no reference back to itself.
    """

    def __init__(self, structure: ImplicativeStructure, iota: InteriorOperator,
                 opens: tuple[int, ...], to_sub: Mapping[int, int], algebra: ImplicativeAlgebra,
                 strong_imp_condition: bool, i_comb: int, nu: int):
        for field, value in dict(structure=structure, iota=iota, opens=opens, to_sub=to_sub,
                                 algebra=algebra, strong_imp_condition=strong_imp_condition,
                                 i_comb=i_comb, nu=nu).items():
            object.__setattr__(self, field, value)

    @lazy
    def closure(self) -> tuple[int, ...]:
        """The closure whose fixed points are the opens
        (:func:`closure_from_interior`)."""
        return _alexandroff_closure(self.iota)

    @lazy
    def report(self) -> Report:
        """The verification of the change: the changed algebra validates,
        and its application is the closure of the base application on every
        open pair.  :func:`change_implication` computes it before it
        returns."""
        st, opens, to_sub = self.structure, self.opens, self.to_sub
        L, closure, algebra = st.lattice, self.closure, self.algebra
        report = validate_algebra(algebra)
        report.name = "changed-algebra"
        witness = next((f"({L.name(a)}, {L.name(b)})" for a in opens for b in opens
                        if opens[algebra.application(to_sub[a], to_sub[b])]
                        != closure[st.application(a, b)]), None)
        report.check("change.application-is-closure", witness is None, witness)
        report.flag("imp-invariance", self.strong_imp_condition)
        return report

    @property
    def k_iota(self) -> int:
        return self.opens[self.algebra.k]

    @property
    def separator_iota(self) -> frozenset:
        return frozenset(self.opens[i] for i in self.algebra.separator)

    def imp_iota(self, a: int, b: int) -> int:
        """The changed implication on base element ids."""
        return self.opens[self.algebra.imp(self.to_sub[a], self.to_sub[b])]


def change_implication(base: ImplicativeAlgebra, iota: InteriorOperator) -> ChangedAlgebra:
    """Build the changed algebra, checking the three hypotheses first, and
    verify it (``ChangedAlgebra.report``).

    The operator must be Alexandroff, compatible with the separator, and
    must dominate the action of the identity combinator; the stronger
    implication-invariance condition is tested first and recorded,
    since it implies the last hypothesis and unlocks the density
    certificate of the corestricted map.
    """
    changed = _changed_algebra(base, iota)
    changed.report  # the verification belongs to this call, not to a later read
    return changed


def _changed_algebra(base: ImplicativeAlgebra, iota: InteriorOperator) -> ChangedAlgebra:
    """:func:`change_implication` without the verification.  The change is
    built once per base and operator (``_build_change``), whichever of
    :func:`change_implication` and :func:`density_certificates` asks first."""
    changed = base._changes.get(iota)
    if changed is None:
        changed = base._changes[iota] = _build_change(base, iota)
    return changed


def _build_change(base: ImplicativeAlgebra, iota: InteriorOperator) -> ChangedAlgebra:
    """Check the three hypotheses and build the changed algebra, whose
    implication is the interior of the base rows at the opens."""
    L = base.lattice
    st = base.structure
    t = iota.table
    alex, witness = is_alexandroff(iota)
    if not alex:
        raise HypothesisFailed("alexandroff", f"family {witness}")
    for s in sorted(base.separator):
        if t[s] not in base.separator:
            raise HypothesisFailed("compatibility", L.name(s))

    strong = _imp_invariant(st, t)

    i_comb = combinator_i(st)
    if not strong:
        for a in L.elements():
            if not L.leq(st.application(i_comb, a), t[a]):
                raise HypothesisFailed("i-bound", L.name(a))

    opens = tuple(a for a in L.elements() if t[a] == a)
    to_sub = {b: i for i, b in enumerate(opens)}
    sub = ExplicitLattice.from_leq([L.name(a) for a in opens],
                                   lambda i, j: L.leq(opens[i], opens[j]))
    rows = st.rows
    sub_imp = tuple(tuple(to_sub[t[rows[a][b]]] for b in opens) for a in opens)
    sub_structure = ImplicativeStructure(sub, sub_imp)
    sub_separator = frozenset(to_sub[t[s]] for s in base.separator)

    nu = combinator_nu(base)
    k_iota = t[st.apply_chain(nu, i_comb, base.k)]
    nu_i = st.application(nu, i_comb)
    s_iota = t[st.apply_chain(nu, st.application(nu_i, nu_i), base.s)]
    algebra = ImplicativeAlgebra(sub_structure, sub_separator,
                                 to_sub[k_iota], to_sub[s_iota])
    return ChangedAlgebra(st, iota, opens, MappingProxyType(to_sub), algebra, strong,
                          i_comb, nu)


def _imp_invariant(st: ImplicativeStructure, table) -> bool:
    """Whether iota(a) -> b = a -> b for every a and b, iota given by its
    table.  Each side reads its first argument x only through its row
    b -> (x -> b), so the row of iota(a) is compared with the row of a, one
    comparison per element instead of one implication per pair."""
    rows = st.rows
    return all(rows[x] == rows[a] for a, x in enumerate(table))


def density_certificates(base: ImplicativeAlgebra, iota: InteriorOperator):
    """The two computationally dense maps around the algebra changed along
    ``iota``, the one :func:`change_implication` builds; it is not verified
    here, as that report is :func:`change_implication`'s.

    Returns ``((inclusion, cert), (corestriction, cert))`` with the literal
    witnesses: the inclusion uses the identity combinator as both realizers
    and the operator itself as the section; the corestricted map uses the
    interiors of the identity combinator and of the composition-combinator
    square.
    """
    changed = _changed_algebra(base, iota)
    if not changed.strong_imp_condition:
        raise HypothesisFailed("imp-invariance",
                               "interior does not leave implications unchanged")
    st, t, to_sub, opens = base.structure, iota.table, changed.to_sub, changed.opens
    i_comb, sub = changed.i_comb, changed.algebra
    inclusion = MorphismSpec("ia", sub, base, opens, "inclusion")
    inc_cert = DensityCertificate.make(i_comb, {b: to_sub[t[b]] for b in base.separator},
                                       i_comb)

    corestriction = MorphismSpec("ia", base, sub,
                                 tuple(to_sub[t[a]] for a in base.lattice.elements()),
                                 "interior-map")
    nu_i = st.application(changed.nu, i_comb)
    cor_cert = DensityCertificate.make(to_sub[t[i_comb]], {i: opens[i] for i in sub.separator},
                                       to_sub[t[st.application(nu_i, nu_i)]])
    return (inclusion, inc_cert), (corestriction, cor_cert)
