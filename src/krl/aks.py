"""Abstract Krivine structures.

The carrier is a finite set of terms-and-stacks with a polarity
relation, push and application tables, a quasi-proof set, and two
distinguished elements driving the k/s axioms.  Subsets of the carrier
are bitmasks throughout, the polarity is stored as row and column
masks, and the perp of a set is an intersection of matrix lines, which
keeps every derived operation word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import UnknownElement
from .lazy import lazy
from .order import PowersetLattice, bits, positions_of
from .report import Report


@dataclass(frozen=True)
class AbstractKrivineStructure:
    names: tuple[str, ...]
    perp_rows: tuple[int, ...]     # perp_rows[t] = mask of stacks orthogonal to t
    push: tuple[tuple[int, ...], ...]
    app: tuple[tuple[int, ...], ...]
    qp: int                        # quasi-proof set, as a mask
    k_elem: int
    s_elem: int

    @property
    def pi_size(self) -> int:
        return len(self.names)

    @lazy
    def perp_cols(self) -> tuple[int, ...]:
        cols = [0] * self.pi_size
        for t, row in enumerate(self.perp_rows):
            for pi in bits(row):
                cols[pi] |= 1 << t
        return tuple(cols)

    @lazy
    def powerset(self) -> PowersetLattice:
        """The subsets of the carrier under reverse inclusion: the lattice of
        A(X), of operators on it and of a carrier map's density tables.  One
        per structure, so its covers and meet-irreducibles are built once."""
        return PowersetLattice(self.names)

    @lazy
    def full(self) -> int:
        return (1 << self.pi_size) - 1

    def perp(self, t: int, pi: int) -> bool:
        return bool(self.perp_rows[t] >> pi & 1)

    def name(self, x: int) -> str:
        return self.names[x]

    def name_mask(self, mask: int) -> str:
        return "{" + " ".join(self.names[i] for i in bits(mask)) + "}"

    @lazy
    def _positions(self) -> dict[str, int]:
        return positions_of(self.names)

    def index_of(self, name: str) -> int:
        got = self._positions.get(name)
        if got is None:
            raise UnknownElement(name, "the carrier")
        return got

    @lazy
    def closed_masks(self) -> tuple[int, ...]:
        """The bar-closed subsets, in ascending order: perp_right of every
        set perp_left(P).  Those sets are the intersections of the
        polarity's columns, found by closing the full carrier under them
        without listing the subsets."""
        classes, todo = {self.full}, [self.full]
        while todo:
            c = todo.pop()
            for col in self.perp_cols:
                if c & col not in classes:
                    classes.add(c & col)
                    todo.append(c & col)
        return tuple(sorted(perp_right(self, c) for c in classes))

    @lazy
    def class_points(self) -> dict[int, tuple[int, ...]]:
        """The point table of each perp class c met so far: at each point
        pi, the mask of every t.pi with t in c.  Filled by
        :func:`class_table`."""
        return {}

    @lazy
    def mask_points(self) -> dict[int, tuple[int, ...]]:
        """The point table of the perp class of each mask met so far, so
        that a mask asked again needs no perp_left.  Filled by
        :func:`_class_table`."""
        return {}

    @lazy
    def verdict(self) -> Report:
        """The report of :func:`validate_aks`, computed once per structure.
        Read it, do not change it: the validator hands out copies."""
        return _aks_report(self)

    @lazy
    def perp_lefts(self) -> tuple[int, ...]:
        """perp_left of every mask, by mask: each one AND away from the
        mask without its lowest point.  The loops over every mask read it;
        :func:`perp_left` stays for single masks, as the carrier of a K(L)
        may be too large to list its subsets."""
        cols, out = self.perp_cols, [self.full]
        for m in range(1, 1 << self.pi_size):
            low = m & -m
            out.append(out[m ^ low] & cols[low.bit_length() - 1])
        return tuple(out)

    @lazy
    def separator_masks(self) -> tuple[int, ...]:
        """The separator of the realizability algebra, in ascending order:
        every subset that some quasi-proof is orthogonal to."""
        qp = self.qp
        return tuple(m for m, left in enumerate(self.perp_lefts) if left & qp)


def perp_left(aks: AbstractKrivineStructure, right_mask: int) -> int:
    """All t orthogonal to every stack in the mask; the full carrier on {}."""
    acc = aks.full
    for pi in bits(right_mask):
        acc &= aks.perp_cols[pi]
    return acc


def perp_right(aks: AbstractKrivineStructure, left_mask: int) -> int:
    acc = aks.full
    for t in bits(left_mask):
        acc &= aks.perp_rows[t]
    return acc


def bar_closure(aks: AbstractKrivineStructure, mask: int) -> int:
    """Double-perp closure; extensive, idempotent, monotone for inclusion."""
    return perp_right(aks, perp_left(aks, mask))


def hat_closure(aks: AbstractKrivineStructure, mask: int) -> int:
    """Union of the bar closures of the singletons of the set."""
    acc = 0
    for pi in bits(mask):
        acc |= bar_closure(aks, 1 << pi)
    return acc


def spec_preorder(aks: AbstractKrivineStructure, sigma: int, pi: int) -> bool:
    """sigma precedes pi when pi lies in the bar closure of {sigma}."""
    return bool(bar_closure(aks, 1 << sigma) >> pi & 1)


def class_table(aks: AbstractKrivineStructure, c: int) -> tuple[int, ...]:
    """The point table of the perp class c, a set of terms: entry pi is
    the mask of every t.pi with t in c.  Built once per class and
    structure."""
    table = aks.class_points.get(c)
    if table is None:
        table = []
        for pi in range(aks.pi_size):
            acc = 0
            for t in bits(c):
                acc |= 1 << aks.push[t][pi]
            table.append(acc)
        table = aks.class_points[c] = tuple(table)
    return table


def _class_table(aks: AbstractKrivineStructure, mask: int) -> tuple[int, ...]:
    """The point table of the perp class of the mask, perp_left(mask),
    looked up once per mask and structure."""
    table = aks.mask_points.get(mask)
    if table is None:
        table = aks.mask_points[mask] = class_table(aks, perp_left(aks, mask))
    return table


def imp_sets(aks: AbstractKrivineStructure, p: int, q: int) -> int:
    """The implication on subsets: everything of the form t.pi with t
    orthogonal to p and pi in q, the union of the point table of p's perp
    class over the points of q."""
    return union_over(_class_table(aks, p), q)


def union_over(table, q: int) -> int:
    """The union of the entries of a point table at the points of q."""
    out = 0
    for pi in bits(q):
        out |= table[pi]
    return out


def app_sets(aks: AbstractKrivineStructure, p: int, q: int) -> int:
    """The adjoint application on subsets: stacks pi with t.pi in p for
    every t orthogonal to q, the points whose entry in the point table of
    q's perp class lies within p."""
    out = 0
    for pi, reached in enumerate(_class_table(aks, q)):
        if not reached & ~p:
            out |= 1 << pi
    return out


def validate_aks(aks: AbstractKrivineStructure) -> Report:
    """Per-axiom validation with witness tuples.

    Strong compatibility (the biconditional form) is recorded as a flag
    rather than an axiom; the degenerate full polarity passes everything.
    Each axiom is decided by masks of points (``_aks_report``), n^3 word
    operations, and names the witness the per-point scan would name first.
    The report is computed once per structure
    (``AbstractKrivineStructure.verdict``); each call returns a copy.
    """
    return aks.verdict.copy()


def _aks_report(aks: AbstractKrivineStructure) -> Report:
    """The body of :func:`validate_aks`, decided by masks in n^3 word
    operations.  Write R_t for the perp row of t and pre_s(M) for the
    points pi with s.pi in M.  Then, for every t, s and u:

    - compatibility at (t, s) reads pre_s(R_t) within R_(ts), as pi lies in
      pre_s(R_t) exactly when t is orthogonal to s.pi; strong compatibility
      asks for equality at every (t, s);
    - with G_t = pre_t(R_k), the w with k orthogonal to t.w, the k axiom
      at t reads R_t within the meet of the pre_s(G_t) over s;
    - with G_t = pre_t(R_s) and H = pre_s(G_t), the v at which the s
      element is orthogonal to t.(s.v), the s axiom at (t, u, s) reads R_x
      within pre_u(H) for
      x = (tu)(su), that is, the image of R_x under u.(.) within H.  That
      image is computed once per (u, x).

    The tuples are visited in the order of the per-point scans, and the
    lowest failing point of the first failing tuple (for the k axiom, then
    the first s it fails at) is the witness those scans name first."""
    rep = Report("aks")
    nm = aks.name
    n = aks.pi_size
    rows, push, app = aks.perp_rows, aks.push, aks.app
    preimages: dict[tuple[int, int], int] = {}

    def pre(s, mask):
        key = (s, mask)
        got = preimages.get(key)
        if got is None:
            got = preimages[key] = _preimage(push[s], mask)
        return got

    witness = None
    strong = True
    for t in range(n):
        for s in range(n):
            fwd, back = pre(s, rows[t]), rows[app[t][s]]
            if fwd != back:
                strong = False
                if witness is None and fwd & ~back:
                    witness = f"(t={nm(t)}, s={nm(s)}, pi={nm(_lowest(fwd & ~back))})"
    rep.check("aks.compatibility", witness is None, witness)
    rep.flag("strong-compatibility", strong and witness is None)

    witness = next((f"(t={nm(t)}, s={nm(s)})" for t in bits(aks.qp) for s in bits(aks.qp)
                    if not aks.qp >> aks.app[t][s] & 1), None)
    rep.check("aks.qp-application-closed", witness is None, witness)
    has_k = bool(aks.qp >> aks.k_elem & 1)
    rep.check("aks.qp-has-k", has_k, None if has_k else nm(aks.k_elem))
    has_s = bool(aks.qp >> aks.s_elem & 1)
    rep.check("aks.qp-has-s", has_s, None if has_s else nm(aks.s_elem))

    witness = next(_k_axiom_failures(aks, pre), None)
    rep.check("aks.k-axiom", witness is None, witness)
    witness = next(_s_axiom_failures(aks, pre), None)
    rep.check("aks.s-axiom", witness is None, witness)
    return rep


def _preimage(row, mask: int) -> int:
    """The points pi with row[pi] in the mask."""
    out = 0
    for pi, x in enumerate(row):
        if mask >> x & 1:
            out |= 1 << pi
    return out


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _k_axiom_failures(aks: AbstractKrivineStructure, pre):
    """The named (t, s, pi) at which the k axiom fails, in scan order."""
    nm, rows, push, n = aks.name, aks.perp_rows, aks.push, aks.pi_size
    for t in range(n):
        g = pre(t, rows[aks.k_elem])
        h = aks.full
        for s in range(n):
            h &= pre(s, g)
        bad = rows[t] & ~h
        if bad:
            pi = _lowest(bad)
            s = next(s for s in range(n) if not g >> push[s][pi] & 1)
            yield f"(t={nm(t)}, s={nm(s)}, pi={nm(pi)})"


def _s_axiom_failures(aks: AbstractKrivineStructure, pre):
    """The named (t, s, u, pi) at which the s axiom fails, in scan order."""
    nm, rows, push, app, n = aks.name, aks.perp_rows, aks.push, aks.app, aks.pi_size
    columns = [[app[s][u] for s in range(n)] for u in range(n)]
    images: list[dict[int, int]] = [{} for _ in range(n)]
    for t in range(n):
        g = pre(t, rows[aks.s_elem])
        h = [pre(s, g) for s in range(n)]
        for u in range(n):
            tu_row, column, image = app[app[t][u]], columns[u], images[u]
            for s in range(n):
                x = tu_row[column[s]]
                got = image.get(x)
                if got is None:
                    got = image[x] = _image(push[u], rows[x])
                if got & ~h[s]:
                    pi = _lowest(rows[x] & ~_preimage(push[u], h[s]))
                    yield f"(t={nm(t)}, s={nm(s)}, u={nm(u)}, pi={nm(pi)})"


def _image(row, mask: int) -> int:
    """The points row[pi] for pi in the mask."""
    out = 0
    for pi in bits(mask):
        out |= 1 << row[pi]
    return out


def app_closure(aks_app, members: int) -> int:
    """Close a mask under the application table."""
    current = members
    while True:
        grown = current
        for t in bits(current):
            row = aks_app[t]
            for s in bits(current):
                grown |= 1 << row[s]
        if grown == current:
            return current
        current = grown


def full_polarity_aks(n: int, names=None) -> AbstractKrivineStructure:
    """The degenerate structure where everything is orthogonal to
    everything; valid for any tables, with the whole carrier as
    quasi-proofs."""
    names = tuple(names) if names else tuple(chr(ord("a") + i) for i in range(n))
    full = (1 << n) - 1
    table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return AbstractKrivineStructure(
        names=names, perp_rows=(full,) * n, push=table, app=table,
        qp=full, k_elem=0, s_elem=0)


def mine_aks(pi_size, perp_pairs, *, max_results=1, app_combo_cap=4096,
             names=None):
    """Deterministic exhaustive search for valid structures over a fixed
    polarity.

    Push tables are scanned in lexicographic order.  For each, the
    compatibility axiom leaves an independent candidate set per
    application cell; the cells are filled from those products, then the
    k/s elements are read off their axiom constraints and the quasi-proof
    set is the application closure of the chosen pair.  Results come out
    in a stable order, so the first hit is a reproducible fixture.
    """
    names = tuple(names) if names else tuple(chr(ord("a") + i) for i in range(pi_size))
    n = pi_size
    rows = [0] * n
    for t, pi in perp_pairs:
        rows[t] |= 1 << pi
    rows = tuple(rows)
    left_perp = partial(perp_left, AbstractKrivineStructure(names, rows, (), (), 0, 0, 0))
    perp_elems = [(t, pi) for t in range(n) for pi in bits(rows[t])]

    results = []
    for push_flat in product(range(n), repeat=n * n):
        push = tuple(tuple(push_flat[s * n:(s + 1) * n]) for s in range(n))

        # app(t, s) must be orthogonal to every pi with t perp push(s, pi)
        cand = [[0] * n for _ in range(n)]
        feasible = True
        for t in range(n):
            for s in range(n):
                need = 0
                for pi in range(n):
                    if rows[t] >> push[s][pi] & 1:
                        need |= 1 << pi
                c = left_perp(need)
                if not c:
                    feasible = False
                    break
                cand[t][s] = c
            if not feasible:
                break
        if not feasible:
            continue

        dk = 0
        for t, pi in perp_elems:
            for s in range(n):
                dk |= 1 << push[t][push[s][pi]]
        k_cands = left_perp(dk)
        if not k_cands:
            continue

        cells = [list(bits(cand[t][s])) for t in range(n) for s in range(n)]
        combos = 0
        for app_flat in product(*cells):
            combos += 1
            if combos > app_combo_cap:
                break
            app = tuple(tuple(app_flat[t * n + s] for s in range(n)) for t in range(n))
            ds = 0
            for t in range(n):
                for u in range(n):
                    tu = app[t][u]
                    for s in range(n):
                        lhs = app[tu][app[s][u]]
                        for pi in bits(rows[lhs]):
                            ds |= 1 << push[t][push[s][push[u][pi]]]
            s_cands = left_perp(ds)
            if not s_cands:
                continue
            for k_el in bits(k_cands):
                for s_el in bits(s_cands):
                    qp = app_closure(app, (1 << k_el) | (1 << s_el))
                    found = AbstractKrivineStructure(
                        names=names, perp_rows=rows, push=push, app=app,
                        qp=qp, k_elem=k_el, s_elem=s_el)
                    results.append(found)
                    if len(results) >= max_results:
                        return results
    return results
