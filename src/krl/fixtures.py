"""Canonical finite instances used across tests, the CLI corpus, and docs.

The Krivine structures of size 2 and 3 were found by the deterministic
miner in :mod:`krl.aks` (first hit for their polarity, application
combination cap 64); the tests re-run that search to confirm the frozen
tables.
"""

from __future__ import annotations

from .aks import AbstractKrivineStructure, bar_closure, full_polarity_aks, hat_closure
from .implicative import ImplicativeAlgebra, ImplicativeStructure
from .interior import InteriorOperator
from .order import ExplicitLattice


def l2() -> ImplicativeAlgebra:
    """The two-element Boolean algebra with its classical implication."""
    lattice = ExplicitLattice.chain(2)
    structure = ImplicativeStructure(lattice, ((1, 1), (0, 1)))
    return ImplicativeAlgebra(structure, {1}, k=1, s=1)


def heyting3() -> ImplicativeAlgebra:
    """The three-element chain 0 < m < 1 with its Heyting implication."""
    lattice = ExplicitLattice(("e0", "m", "e1"), (0b111, 0b110, 0b100))
    structure = ImplicativeStructure(
        lattice, lambda a, b: 2 if lattice.leq(a, b) else b)
    return ImplicativeAlgebra(structure, {2}, k=2, s=2)


def diamond() -> ImplicativeAlgebra:
    """The four-element Boolean algebra on bot < x, y < top."""
    names = ("bot", "x", "y", "top")
    lattice = ExplicitLattice(names, (0b1111, 0b1010, 0b1100, 0b1000))
    neg = (3, 2, 1, 0)
    structure = ImplicativeStructure(
        lattice, lambda a, b: lattice.join2(neg[a], b))
    return ImplicativeAlgebra(structure, {3}, k=3, s=3)


def singleton_algebra() -> ImplicativeAlgebra:
    lattice = ExplicitLattice(("e0",), (0b1,))
    structure = ImplicativeStructure(lattice, ((0,),))
    return ImplicativeAlgebra(structure, {0}, k=0, s=0)


def double_diamond() -> ExplicitLattice:
    """bot < u < x, y < top; the smallest lattice whose join-closed parts
    are not all meet-closed, so it carries non-Alexandroff operators."""
    return ExplicitLattice(
        ("bot", "u", "x", "y", "top"),
        (0b11111, 0b11110, 0b10100, 0b11000, 0b10000))


def aks1() -> AbstractKrivineStructure:
    return full_polarity_aks(1)


AKS2_PERP = ((1, 0),)


def aks2() -> AbstractKrivineStructure:
    """Two points where only b is orthogonal to a; mined."""
    return AbstractKrivineStructure(
        names=("a", "b"),
        perp_rows=(0b00, 0b01),
        push=((0, 1), (0, 1)),
        app=((0, 0), (1, 1)),
        qp=0b10, k_elem=1, s_elem=1)


AKS3_PERP = ((0, 0), (1, 0), (1, 1), (2, 0))


def aks3() -> AbstractKrivineStructure:
    """Three points with a strongly compatible polarity; mined.

    Its realizability algebra is consistent, and the two closure
    operators of the polarity disagree, which makes it the workhorse for
    the implication-change fixtures.
    """
    return AbstractKrivineStructure(
        names=("a", "b", "c"),
        perp_rows=(0b001, 0b011, 0b001),
        push=((0, 0, 2), (0, 0, 2), (0, 0, 2)),
        app=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        qp=0b011, k_elem=0, s_elem=0)


def mined_corpus() -> list[AbstractKrivineStructure]:
    return [aks1(), aks2(), aks3()]


def polarity3() -> AbstractKrivineStructure:
    """A bare polarity on three points, used only for the closure and
    specialization operations; its push and application tables are
    placeholders and the structure is not a valid machine."""
    return AbstractKrivineStructure(
        names=("a", "b", "c"),
        perp_rows=(0b001, 0b010, 0b000),
        push=((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        app=((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        qp=0b111, k_elem=0, s_elem=0)


def identity_interior(lattice) -> InteriorOperator:
    return InteriorOperator(lattice, tuple(lattice.elements()))


def diamond_open_x_interior() -> InteriorOperator:
    """Opens bot, x, top on the diamond; sends y to bot."""
    return InteriorOperator(diamond().lattice, (0, 1, 0, 3))


def bar_interior(aks: AbstractKrivineStructure) -> InteriorOperator:
    lattice = aks.powerset
    return InteriorOperator(
        lattice, tuple(bar_closure(aks, m) for m in range(lattice.size)))


def hat_interior(aks: AbstractKrivineStructure) -> InteriorOperator:
    lattice = aks.powerset
    return InteriorOperator(
        lattice, tuple(hat_closure(aks, m) for m in range(lattice.size)))
