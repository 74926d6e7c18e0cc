"""The per-mask and per-pair scans that the powerset side now computes once,
kept as oracles:

- ``scanned_perp_lefts``: perp_left of every mask, one mask at a time, for
  ``AbstractKrivineStructure.perp_lefts``;
- ``scanned_imp_invariance``: iota(a) -> b = a -> b by n^2 implications,
  for ``interior._imp_invariant``;
- ``scanned_uniform_failures``: the pair scan of ``cert.r-uniform`` on a
  structure map, for the bound ``MorphismSpec.uniform_bound``.

``mined_by_algebra`` gives the structures they are asked on.
"""

from krl.aks import mine_aks, perp_left
from krl.fixtures import AKS3_PERP


def mined_by_algebra():
    """One of the 8,338 structures of three points the miner finds per
    distinct A(X): A(X) reads X only through its polarity, push,
    quasi-proofs and the perp rows of k and s, so these 96 give every
    answer on A(X) that the others give."""
    found = {}
    for aks in mine_aks(3, AKS3_PERP, max_results=10 ** 9):
        found.setdefault((aks.perp_rows, aks.push, aks.qp, aks.perp_rows[aks.k_elem],
                          aks.perp_rows[aks.s_elem]), aks)
    return list(found.values())


def scanned_perp_lefts(aks):
    return tuple(perp_left(aks, m) for m in range(1 << aks.pi_size))


def scanned_imp_invariance(structure, iota):
    L = structure.lattice
    return all(structure.imp(iota.table[a], b) == structure.imp(a, b)
               for a in L.elements() for b in L.elements())


def scanned_uniform_failures(f, r):
    """The (s, a) at which r f(s) f(a) <= f(sa) fails, named, in scan order."""
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    return [f"(s={la.name(s)}, a={la.name(a)})"
            for s in sorted(A.separator) for a in la.elements()
            if not lb.leq(B.apply_chain(r, f(s), f(a)), f(A.application(s, a)))]
