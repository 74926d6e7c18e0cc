"""The scans that read every application cell, in their per-cell form,
kept as oracles for the scans that index ``ImplicativeStructure.app_rows``:
the applied k and s laws of ``validate_algebra``, the triple scan of
``combinator_nu`` and that of ``check_adjunction``.  Every cell here is
computed on its own, from the supplied closed form or by the defining
meet, so the table is never read.
"""

from itertools import product

from krl import implicative
from krl.report import Report


def cells(structure):
    """x, y -> x y, each cell computed once by this oracle, from the
    supplied closed form or by the defining meet."""
    memo = {}

    def app(a, b):
        got = memo.get((a, b))
        if got is None:
            closed = structure._app
            got = memo[a, b] = (closed(a, b) if closed
                                else structure.application_by_definition(a, b))
        return got
    return app


def chain(app, *elems):
    acc = elems[0]
    for e in elems[1:]:
        acc = app(acc, e)
    return acc


def law_failures(algebra):
    """The named first (a, b) with k a b not below a, and (a, b, c) with
    s a b c not below ac(bc), each None when the law holds: the scans of
    ``validate_algebra``'s ``law.*`` clauses."""
    st, L = algebra.structure, algebra.lattice
    app, nm, E = cells(st), L.name, L.elements()
    k_law = next((f"({nm(a)}, {nm(b)})" for a in E for b in E
                  if not L.leq(chain(app, algebra.k, a, b), a)), None)
    s_law = next((f"({nm(a)}, {nm(b)}, {nm(c)})" for a in E for b in E for c in E
                  if not L.leq(chain(app, algebra.s, a, b, c),
                               app(app(a, c), app(b, c)))), None)
    return k_law, s_law


def nu_outcome(algebra):
    """What ``combinator_nu`` returns, or the message it raises."""
    st, L = algebra.structure, algebra.lattice
    app = cells(st)
    nu = app(app(algebra.s, app(algebra.k, algebra.s)), algebra.k)
    if nu not in algebra.separator:
        return f"composition combinator {L.name(nu)} escaped the separator"
    if st.verdict.ok and implicative._laws_follow(algebra, st.k_bound, st.s_bound):
        return nu
    for a, b, c in product(L.elements(), repeat=3):
        if not L.leq(chain(app, nu, a, b, c), app(a, app(b, c))):
            return ("composition combinator fails nu a b c <= a(bc) at "
                    f"({L.name(a)}, {L.name(b)}, {L.name(c)})")
    return nu


def check_adjunction(structure):
    """The report of ``check_adjunction``: the order failures, or the
    Galois rule, or the triple scan over every (a, b, c)."""
    L = structure.lattice
    nm = L.name
    rep = Report("adjunction")
    rep.checks.extend(L.order_failures)
    if not rep.ok:
        return rep
    half = full = None
    rows, leq, app = structure.rows, L.leq, cells(structure)
    galois = (all(leq(rows[y][lo], rows[y][hi])
                  for lo, hi in L.covers for y in structure.representatives)
              and structure.adjoint)
    if not galois:
        for a, b, c in product(L.elements(), repeat=3):
            lhs, rhs = leq(app(a, b), c), leq(a, rows[b][c])
            if rhs and not lhs and half is None:
                half = f"({nm(a)}, {nm(b)}, {nm(c)})"
            if lhs != rhs and full is None:
                full = f"({nm(a)}, {nm(b)}, {nm(c)})"
    rep.check("adjunction.half", half is None, half)
    rep.check("adjunction.full", full is None, full)
    return rep
