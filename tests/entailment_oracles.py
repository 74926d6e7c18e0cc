"""Entailment in an implicative algebra, kept for the tests that state its
preorder laws: a entails b when a -> b lies in the separator, and a family
of pairs entails uniformly when the meet of their implications does.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class EntailmentWitness:
    realizer: int
    lhs: int
    rhs: int


def entails(algebra, a, b):
    """A separator element realizing a |- b, canonically a -> b itself."""
    r = algebra.imp(a, b)
    if r in algebra.separator:
        return EntailmentWitness(r, a, b)
    return None


def uniform_entails(algebra, pairs):
    """The meet of all f(x) -> g(x), when it lies in the separator.

    The meet itself is the canonical uniform realizer: it is below every
    instance by construction.
    """
    m = algebra.lattice.meet([algebra.imp(a, b) for a, b in pairs])
    return m if m in algebra.separator else None
