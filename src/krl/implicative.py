"""Implicative structures and algebras.

An implicative structure is a finite complete lattice with an
implication that is antitone on the left, monotone on the right, and
commutes with arbitrary meets in its second argument.  Application is
the left adjoint of implication, the combinators are the usual meets
over element tuples, and a separator picks out the designated truth
values.
"""

from __future__ import annotations

from itertools import product

from .errors import VerificationFailed
from .lazy import ReadOnly, lazy
from .order import (ExplicitLattice, FiniteLattice, unpreserved_pair, up_preimages,
                    upward_closure)
from .report import Report


class ImplicativeStructure(ReadOnly):
    """A lattice together with an implication map.

    ``imp`` may be a full table (tuple of rows) or any callable; an
    optional closed-form application can be supplied for backends where
    the adjoint has a direct formula (AKS powersets), otherwise the
    defining meet is enumerated and cached.
    """

    def __init__(self, lattice: FiniteLattice, imp, app=None):
        object.__setattr__(self, "lattice", lattice)
        if callable(imp):
            self._imp = imp
        else:
            table = self._table = tuple(tuple(row) for row in imp)
            self._imp = lambda a, b: table[a][b]
        self._app = app
        self._imp_cache: dict[tuple[int, int], int] = {}
        self._app_cache: dict[tuple[int, int], int] = {}
        # the whole table (app_rows), once a scan that reads every cell asks
        self._app_rows = None

    # a table given to __init__, which rows reads as it is
    _table = None

    def imp(self, a: int, b: int) -> int:
        key = (a, b)
        got = self._imp_cache.get(key)
        if got is None:
            got = self._imp(a, b)
            self._imp_cache[key] = got
        return got

    def application(self, a: int, b: int) -> int:
        rows = self._app_rows
        if rows is not None:
            return rows[a][b]
        key = (a, b)
        got = self._app_cache.get(key)
        if got is None:
            got = self._app(a, b) if self._app else self.application_by_definition(a, b)
            self._app_cache[key] = got
        return got

    def application_by_definition(self, a: int, b: int) -> int:
        """The meet of every c with a <= b -> c, ignoring any closed form: a
        single cell asked before any scan needs the table.  Like every meet,
        it needs a checked order."""
        L = self.lattice
        return L.meet([c for c in L.elements() if L.leq(a, self.imp(b, c))])

    def apply_chain(self, *elems: int) -> int:
        """Left-associated application of two or more elements."""
        acc = elems[0]
        for e in elems[1:]:
            acc = self.application(acc, e)
        return acc

    @lazy
    def classes(self) -> tuple[int, ...]:
        """For each element a, the least element known to share both its
        row b -> a->b and its application column x -> x a.  Nothing is known
        here, so each a stands for itself; a structure that knows more, such
        as a powerset algebra, says so by overriding this."""
        return tuple(self.lattice.elements())

    @lazy
    def representatives(self) -> tuple[int, ...]:
        """The least element of each class, ascending: a clause that reads a
        only through its row or its column runs once per entry."""
        return tuple(a for a, c in enumerate(self.classes) if a == c)

    @lazy
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The row b -> a->b of every a: the table given to ``__init__``, whose
        classes are the identity, or else computed once per representative."""
        if self._table is not None:
            return self._table
        elems = self.lattice.elements()
        computed = {a: tuple(self.imp(a, b) for b in elems) for a in self.representatives}
        return tuple(computed[c] for c in self.classes)

    @lazy
    def distinct_rows(self) -> dict[tuple[int, ...], int]:
        """Each distinct row b -> a->b, mapped to the first a that has it, in
        order of that a.  A clause that reads a only through its row runs
        once per entry."""
        rows: dict[tuple[int, ...], int] = {}
        for a in self.representatives:
            rows.setdefault(self.rows[a], a)
        return rows

    def imp_table(self):
        return self.rows

    # The verdicts below are computed once per structure, on first read.
    # Read them, do not change them: the validators hand out copies.

    @lazy
    def verdict(self) -> Report:
        """The report of :func:`validate_structure`."""
        return _structure_report(self)

    @lazy
    def k_bound(self) -> int:
        """:func:`combinator_k`: :func:`_k_fold` on an implicative structure."""
        if self.verdict.ok:
            return _k_fold(self)
        L, rows = self.lattice, self.rows
        return L.meet([rows[a][rows[b][a]] for a in L.elements() for b in L.elements()])

    @lazy
    def s_bound(self) -> int:
        """:func:`combinator_s`: :func:`_s_fold` over the meet-irreducibles on
        an implicative structure, over every element otherwise."""
        L = self.lattice
        return _s_fold(self, L.meet_irreducibles if self.verdict.ok else L.elements())

    @lazy
    def cc_bound(self) -> int:
        """:func:`combinator_cc`: :func:`_cc_fold` on an implicative structure."""
        if self.verdict.ok:
            return _cc_fold(self)
        L, rows = self.lattice, self.rows
        acc = L.top
        for a in L.elements():
            for b in L.elements():
                acc = L.meet2(acc, rows[rows[rows[a][b]][a]][a])
        return acc

    @lazy
    def adjoint(self) -> bool:
        """The verdict of :func:`_application_is_adjoint`, on a lattice.

        Without a supplied application it holds by theorem once
        ``imp.meet-commutation`` passes.  Then each row y -> . preserves
        the empty meet and binary meets, so every meet, and x y is the
        meet of U = {c : x <= y -> c}.  So y -> x y is the meet of the
        y -> c over U, each above x (the top when U is empty): x <= y -> x y.
        c lies in {c' : y -> c <= y -> c'}, so (y -> c) y <= c.  And x <= x'
        shrinks U, so x y <= x' y.  Those are the conditions that
        :func:`_application_is_adjoint` checks, so it runs only otherwise.
        On an explicit lattice the whole table (:attr:`app_rows`) is
        read off the masks of the rows first, whichever way the verdict
        goes, so no cell is computed by definition.
        """
        if self._app is None:
            if self._masked:
                self.app_rows  # every cell off the masks, before any is asked
            if any(c.clause == "imp.meet-commutation" and c.passed
                   for c in self.verdict.checks):
                return True
        return _application_is_adjoint(self)

    @property
    def _masked(self) -> bool:
        """Whether the table is read off the masks: an explicit lattice and
        no supplied application."""
        return self._app is None and isinstance(self.lattice, ExplicitLattice)

    @property
    def app_rows(self) -> tuple[tuple[int, ...], ...]:
        """The application table, a b = ``app_rows[a][b]``, built once; from
        then on :meth:`application` reads it.  The scans that read every cell
        index it.

        On an explicit lattice, with no supplied application, b's column is
        read off the masks of b's row (:func:`~krl.order.up_preimages`):
        with U_a the mask of the c with a <= b -> c, a b is the meet of U_a.
        That is the least element of U_a when U_a is a principal up-set, the
        top when U_a is empty, and otherwise one AND-fold of the down-sets of
        U_a (:attr:`~krl.order.ExplicitLattice.greatest_of_down_set`, whose
        docstring proves it).  A column depends on b only through its row,
        so it is read once per distinct row.  Elsewhere the cells are computed one
        by one, row by row, once per class representative b, whose column
        every member of its class shares."""
        rows = self._app_rows
        if rows is None:
            rows = self._app_rows = self._app_table()
            self._app_cache.clear()  # one store: application() reads the table now
        return rows

    def _app_table(self) -> tuple[tuple[int, ...], ...]:
        L = self.lattice
        if self._masked:
            least, top, meet = L.least_of_up_set, L.top, L.meet_of_mask
            columns = {row: [top if not u else least[u] if u in least else meet(u)
                             for u in up_preimages(L, row)]
                       for row in self.distinct_rows}
            return tuple(zip(*(columns[row] for row in self.rows)))
        app, classes = self.application, self.classes
        return tuple(tuple(app(a, c) for c in classes) for a in L.elements())


class ImplicativeAlgebra(ReadOnly):
    """An implicative structure with a separator and designated k, s.

    The stored combinators need not be the canonical meets; validation
    only requires them to sit below the respective bounds.
    """

    def __init__(self, structure: ImplicativeStructure, separator, k: int, s: int):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "separator", frozenset(separator))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)

    @lazy
    def verdict(self) -> Report:
        """The report of :func:`validate_algebra`, computed once per algebra.
        Read it, do not change it: the validator hands out copies."""
        return _algebra_report(self)

    @lazy
    def _changes(self) -> dict:
        # the change of this algebra along each interior operator asked so
        # far, by operator; filled by interior._changed_algebra
        return {}

    @property
    def lattice(self) -> FiniteLattice:
        return self.structure.lattice

    def imp(self, a: int, b: int) -> int:
        return self.structure.imp(a, b)

    def application(self, a: int, b: int) -> int:
        return self.structure.application(a, b)

    def apply_chain(self, *elems: int) -> int:
        return self.structure.apply_chain(*elems)


def validate_structure(structure: ImplicativeStructure) -> Report:
    """Check the implication axioms: variance and meet-commutation.

    A structure whose implication commutes with nonempty meets only is
    flagged quasi-implicative instead of failing outright.  An order that
    is not a complete lattice is reported by its failed ``order.*``
    clauses alone, since no meet clause makes sense on it.  The report is
    computed once per structure (``ImplicativeStructure.verdict``); each
    call returns a copy.
    """
    return structure.verdict.copy()


def _structure_report(structure: ImplicativeStructure) -> Report:
    """The body of :func:`validate_structure`."""
    L = structure.lattice
    nm = L.name
    rep = Report("implicative-structure")
    rep.checks.extend(L.order_failures)
    if not rep.ok:
        return rep

    # meet-commutation reads a only through its row b -> a->b, so it runs once
    # per distinct row; rows come in the order of their first a, so the first
    # failing row names the first failing a.  The empty family B = {} is
    # tracked apart, for the quasi flag.
    rows, leq, top = structure.rows, L.leq, L.top
    witness = empty_witness = None
    for row, a in structure.distinct_rows.items():
        if empty_witness is None and row[top] != top:
            empty_witness = f"a={nm(a)}, B={{}}"
        if witness is None and (pair := unpreserved_pair(L, L, row)) is not None:
            witness = f"a={nm(a)}, B={L.name_set(pair)}"
        if witness and empty_witness:
            break
    binary = witness is None

    # antitone in a, then monotone in b, each along the cover steps lo < hi
    # of the order: transitivity gives a' <= a, b <= b' => a->b <= a'->b'.
    # A row that preserves binary meets is monotone, so the b half can fail
    # only where meet-commutation does.  When it holds, every imp(., x) with
    # x below the top is the meet of the imp(., g) over the meet-irreducibles
    # g above x, so the a half is decided on those g and the top; the full
    # scan runs only to name a failure.
    covers, elems, variance = L.covers, L.elements(), None
    if not binary or any(not leq(rows[hi][x], rows[lo][x])
                         for (lo, hi), x in product(covers, (*L.meet_irreducibles, top))):
        variance = next((f"(a'={nm(lo)}, a={nm(hi)}, b={nm(x)}, b'={nm(x)})"
                         for (lo, hi), x in product(covers, elems)
                         if not leq(rows[hi][x], rows[lo][x])), None)
    if variance is None and not binary:
        variance = next((f"(a'={nm(x)}, a={nm(x)}, b={nm(lo)}, b'={nm(hi)})"
                         for (lo, hi), x in product(covers, elems)
                         if not leq(rows[x][lo], rows[x][hi])), None)
    rep.check("imp.variance", variance is None, variance)
    rep.check("imp.meet-commutation", binary and empty_witness is None,
              witness or empty_witness)
    rep.flag("quasi-implicative", binary and empty_witness is not None,
             f"fails only at B={{}}: {empty_witness}" if empty_witness else None)
    return rep


def check_adjunction(structure: ImplicativeStructure) -> Report:
    """Decide whether application is left adjoint to implication.  The
    half condition (a <= b -> c implies ab <= c) is reported separately
    because it survives even without meet-commutation.  On a lattice, a
    Galois connection (``_application_is_adjoint``, with implication
    monotone in its second argument along the cover steps) passes both
    clauses; otherwise the triple scan decides them and names the
    witnesses.  Monotone in the second argument reads y only through its
    row, so it runs on the representatives.  An order that is not a
    complete lattice is reported by its failed ``order.*`` clauses alone,
    as :func:`validate_structure` does."""
    L = structure.lattice
    nm = L.name
    rep = Report("adjunction")
    rep.checks.extend(L.order_failures)
    if not rep.ok:
        return rep
    half_witness = full_witness = None
    rows, leq, elems = structure.rows, L.leq, L.elements()
    galois = (all(leq(rows[y][lo], rows[y][hi])
                  for lo, hi in L.covers for y in structure.representatives)
              and structure.adjoint)
    if not galois:
        app = structure.app_rows
        for a, b in product(elems, repeat=2):
            ab = app[a][b]
            for c, bc in enumerate(rows[b]):
                lhs = leq(ab, c)
                rhs = leq(a, bc)
                if rhs and not lhs and half_witness is None:
                    half_witness = f"({nm(a)}, {nm(b)}, {nm(c)})"
                if lhs != rhs and full_witness is None:
                    full_witness = f"({nm(a)}, {nm(b)}, {nm(c)})"
    rep.check("adjunction.half", half_witness is None, half_witness)
    rep.check("adjunction.full", full_witness is None, full_witness)
    return rep


def combinator_i(structure: ImplicativeStructure) -> int:
    L = structure.lattice
    return L.meet([structure.imp(a, a) for a in L.elements()])


def combinator_k(structure: ImplicativeStructure) -> int:
    """The meet of every a -> b -> a, computed once per structure
    (``ImplicativeStructure.k_bound``)."""
    return structure.k_bound


def combinator_s(structure: ImplicativeStructure) -> int:
    """The meet of every (a -> b -> c) -> (a -> b) -> a -> c, computed once
    per structure (``ImplicativeStructure.s_bound``)."""
    return structure.s_bound


def _s_fold(structure: ImplicativeStructure, cs) -> int:
    """The meet of f(c) = (a -> b -> c) -> (a -> b) -> a -> c over every a
    and b and each c in ``cs``.  The term reads a only through its row
    b -> a->b, so one a per distinct row is enough.  Its distinct values
    are collected and met once; on an order that passed its checks the
    meet does not depend on the order of the fold.

    On an implicative structure the meet-irreducible c are enough.  Write
    c, other than the top, as the meet of the meet-irreducibles g_i above
    it.  Meet-commutation, applied to a -> c and then to the two outer
    implications, gives f(c) = meet_i (a -> b -> c) -> (a -> b) -> a -> g_i.
    As a -> b -> c <= a -> b -> g_i and implication is antitone in its
    first argument, each of those terms lies above f(g_i), so f(c) is above
    the meet of the f(g_i).  f(top) is the top.  So the meet over every c
    equals the meet over the meet-irreducibles.
    """
    rows = structure.rows
    return structure.lattice.meet({rows[row[rows[b][c]]][rows[ab][row[c]]]
                                   for row in structure.distinct_rows
                                   for b, ab in enumerate(row) for c in cs})


def _k_fold(structure: ImplicativeStructure) -> int:
    """``combinator_k`` on an implicative structure: the meet of
    a -> (top -> a) over every a.  For each a the term a -> (b -> a) is
    least at b = top: b <= top gives top -> a <= b -> a, as implication is
    antitone in its first argument, and a -> . is monotone.  So the meet
    over b is attained at the top."""
    L = structure.lattice
    rows, top = structure.rows, L.top
    return L.meet([rows[a][rows[top][a]] for a in L.elements()])


def _cc_fold(structure: ImplicativeStructure) -> int:
    """``combinator_cc`` on an implicative structure: the meet of
    ((a -> bottom) -> a) -> a over every a.  For each a the Peirce term
    ((a -> b) -> a) -> a is least at b = bottom: bottom <= b gives
    a -> bottom <= a -> b, as a -> . is monotone, and the two antitone
    first arguments turn that twice, so the term at the bottom lies below
    the term at b."""
    L = structure.lattice
    rows, bottom = structure.rows, L.bottom
    return L.meet([rows[rows[rows[a][bottom]][a]][a] for a in L.elements()])


def combinator_cc(structure: ImplicativeStructure) -> int:
    """The Peirce element, the meet of every ((a -> b) -> a) -> a, computed
    once per structure (``ImplicativeStructure.cc_bound``)."""
    return structure.cc_bound


def combinator_nu(algebra: ImplicativeAlgebra) -> int:
    """A composition combinator: nu a b c <= a(bc) for all triples.

    Realized as (s (k s)) k from the algebra's stored combinators, and
    checked to lie in the separator.  Where :func:`_laws_follow` holds on
    an implicative structure, the inequality follows from the applied laws
    k x y <= x and s x y z <= xz(yz), with application monotone on the left:

    - nu a <= (k s) a (k a) <= s (k a), by the s law, then the k law
      (k s) a <= s on the left of (k a);
    - so nu a b c <= s (k a) b c <= (k a) c (b c) <= a(bc), by left
      monotonicity, the s law, then the k law (k a) c <= a;
    - application is monotone on the left because the order is valid and
      the adjoint check holds along its cover steps for every class
      representative, whose column each element of the class shares.

    So the triple scan runs only where the rule does not apply; it names
    the first failing triple.  The structure's verdict and bounds are read,
    not recomputed.
    """
    st = algebra.structure
    L = algebra.lattice
    nu = st.application(st.application(algebra.s, st.application(algebra.k, algebra.s)),
                        algebra.k)
    if nu not in algebra.separator:
        raise VerificationFailed(
            f"composition combinator {L.name(nu)} escaped the separator")
    if st.verdict.ok and _laws_follow(algebra, st.k_bound, st.s_bound):
        return nu
    leq, elems, app = L.leq, L.elements(), st.app_rows
    for a in elems:
        a_row, nu_a_row = app[a], app[app[nu][a]]
        for b in elems:
            b_row, nu_ab_row = app[b], app[nu_a_row[b]]
            for c in elems:
                if not leq(nu_ab_row[c], a_row[b_row[c]]):
                    raise VerificationFailed(
                        "composition combinator fails nu a b c <= a(bc) at "
                        f"({L.name(a)}, {L.name(b)}, {L.name(c)})")
    return nu


def separator_closure(structure: ImplicativeStructure, generators) -> frozenset:
    """Least separator containing the generators.

    Iterates upward closure and modus ponens to a fixpoint, starting
    from the generators plus the canonical k and s.
    """
    L = structure.lattice
    current = set(generators)
    current.add(combinator_k(structure))
    current.add(combinator_s(structure))
    while True:
        grown = set(upward_closure(L, current))
        for a in list(grown):
            for b in L.elements():
                if structure.imp(a, b) in grown:
                    grown.add(b)
        if grown == current:
            return frozenset(current)
        current = grown


def validate_algebra(algebra: ImplicativeAlgebra) -> Report:
    """Full validation: structure axioms, separator axioms, combinator
    bounds, the applied combinator laws, and the classical/consistent
    flags.  The report is computed once per algebra
    (``ImplicativeAlgebra.verdict``); each call returns a copy."""
    return algebra.verdict.copy()


def _algebra_report(algebra: ImplicativeAlgebra) -> Report:
    """The body of :func:`validate_algebra`."""
    st = algebra.structure
    L = algebra.lattice
    nm = L.name
    sep = algebra.separator
    rep = validate_structure(st)
    rep.name = "implicative-algebra"
    if rep.checks[0].clause.startswith("order."):
        return rep
    implicative = rep.ok

    # The order is a lattice from here on, so upward closure along the cover
    # steps is upward closure, by transitivity.  Modus ponens reads a only
    # through its row, so it runs once per distinct row of a separator
    # element.  The scans run only to name a failure.
    elems, rows = L.elements(), st.rows
    witness = None if all(hi in sep for lo, hi in L.covers if lo in sep) else next(
        f"({nm(a)} <= {nm(b)})" for a in sep for b in elems if L.leq(a, b) and b not in sep)
    rep.check("separator.upward-closed", witness is None, witness)

    outside = [b for b in elems if b not in sep]
    sep_rows = {rows[c] for c in {st.classes[a] for a in sep}}
    witness = None if not any(row[b] in sep for row in sep_rows for b in outside) else next(
        f"(a={nm(a)}, b={nm(b)})" for a in sep for b in elems
        if rows[a][b] in sep and b not in sep)
    rep.check("separator.modus-ponens", witness is None, witness)

    rep.check("separator.has-k", algebra.k in sep,
              None if algebra.k in sep else nm(algebra.k))
    rep.check("separator.has-s", algebra.s in sep,
              None if algebra.s in sep else nm(algebra.s))

    k_bound = st.k_bound
    rep.check("k.bound", L.leq(algebra.k, k_bound),
              None if L.leq(algebra.k, k_bound) else f"k={nm(algebra.k)} > {nm(k_bound)}")
    s_bound = st.s_bound
    rep.check("s.bound", L.leq(algebra.s, s_bound),
              None if L.leq(algebra.s, s_bound) else f"s={nm(algebra.s)} > {nm(s_bound)}")

    # The scans run only where the laws do not follow by rule.
    by_rule = implicative and _laws_follow(algebra, k_bound, s_bound)
    k_witness = s_witness = None
    if not by_rule:
        k_witness, s_witness = _applied_law_failures(algebra)
    rep.check("law.k-applied", k_witness is None, k_witness)
    rep.check("law.s-applied", s_witness is None, s_witness)

    _flag_algebra(rep, algebra)
    return rep


_ALGEBRA_CLAUSES = ("separator.upward-closed", "separator.modus-ponens", "separator.has-k",
                    "separator.has-s", "k.bound", "s.bound", "law.k-applied", "law.s-applied")


def _valid_algebra_report(algebra: ImplicativeAlgebra) -> Report:
    """The report of :func:`validate_algebra` on an algebra proven valid
    on an implicative structure: the structure's report, every clause of
    :func:`_algebra_report` passing, and the flags."""
    rep = validate_structure(algebra.structure)
    rep.name = "implicative-algebra"
    for clause in _ALGEBRA_CLAUSES:
        rep.check(clause, True)
    _flag_algebra(rep, algebra)
    return rep


def _flag_algebra(rep: Report, algebra: ImplicativeAlgebra) -> None:
    L, sep = algebra.lattice, algebra.separator
    rep.flag("classical", algebra.structure.cc_bound in sep)
    rep.flag("consistent", L.meet(L.elements()) not in sep)


def _applied_law_failures(algebra: ImplicativeAlgebra) -> tuple[str | None, str | None]:
    """The first (a, b) with k a b not below a, and the first (a, b, c) with
    s a b c not below ac(bc), each named, or None; read off the table."""
    app, L = algebra.structure.app_rows, algebra.lattice
    leq, nm, elems = L.leq, L.name, L.elements()

    def s_failures():
        for a, s_a in zip(elems, app[algebra.s]):
            a_row, s_a_row = app[a], app[s_a]
            for b in elems:
                b_row, s_ab_row = app[b], app[s_a_row[b]]
                for c in elems:
                    if not leq(s_ab_row[c], app[a_row[c]][b_row[c]]):
                        yield f"({nm(a)}, {nm(b)}, {nm(c)})"
    k_witness = next((f"({nm(a)}, {nm(b)})" for a, k_a in zip(elems, app[algebra.k])
                      for b, k_ab in enumerate(app[k_a]) if not leq(k_ab, a)), None)
    return k_witness, next(s_failures(), None)


def _laws_follow(algebra: ImplicativeAlgebra, k_bound: int, s_bound: int) -> bool:
    """Whether, on an implicative structure with these combinator bounds,
    the applied laws k a b <= a and s a b c <= ac(bc) hold by rule:
    application is the left adjoint of implication
    (:func:`_application_is_adjoint`) and k and s lie below their bounds.
    Then k <= a -> b -> a gives k a b <= a, and s below the instance
    (c -> bc -> z) -> (c -> bc) -> c -> z, z = ac(bc), which lies below
    a -> b -> c -> z, gives s a b c <= ac(bc).  :func:`combinator_nu`
    derives its composition law from the same condition."""
    L = algebra.lattice
    return (L.leq(algebra.k, k_bound) and L.leq(algebra.s, s_bound)
            and algebra.structure.adjoint)


def _application_is_adjoint(st: ImplicativeStructure) -> bool:
    """Whether x y <= c exactly when x <= y -> c, for an implication that
    is monotone in its second argument on a lattice.  A pair monotone in x
    and in c with x <= y -> x y and (y -> c) y <= c is a Galois connection:
    x y <= c gives x <= y -> x y <= y -> c, and x <= y -> c gives
    x y <= (y -> c) y <= c.  Monotone in x is checked along the cover steps
    of the order.  Each condition reads y only through its row y -> . and
    its column . y, so one y per class, its representative, is enough."""
    L, app, rows, leq = st.lattice, st.application, st.rows, st.lattice.leq
    elems, reps = L.elements(), st.representatives
    return (all(leq(app(lo, y), app(hi, y)) for lo, hi in L.covers for y in reps)
            and all(leq(x, rows[y][app(x, y)]) and leq(app(rows[y][x], y), x)
                    for x in elems for y in reps))
