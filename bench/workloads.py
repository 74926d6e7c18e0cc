"""The three workloads: their seeded inputs and their fixed op lists.

Inputs are plain tables and document texts made from the seed and from
the finite pools in ``pools.json``; krl only ever sees the structures
and documents built from them.  Each pass builds every structure afresh,
so the library's caches fill within one structure and start cold on the
next, as in a library session.

``setup(workload, seed)`` does the generation (timed as set-up);
``run_pass(inputs, session)`` runs one pass through the workload's op
list.  With ``full=True`` the inputs cover every pool item instead of a
seeded sample; the reference answers are recorded that way.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import krl
import krl.cli
import krl.enumerators
import krl.fixtures
from answers import CliResult, ok
from krl.order import bits

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("explicit", "powerset", "cli")

# Seeded samples are drawn per stratum (implication variant, base lattice,
# structure pair), so that every seed gives a pass of about the same cost.
EXPLICIT_SAMPLE = 4        # per implication variant and chain or not, of the 39
                           # six-element lattices
INTERIOR_SAMPLE = 2        # per base (H6, B8, DD5), of its join-closed sets
MAP_SAMPLE = 3             # per structure pair and applicativity, of the carrier maps
AKS3_MAP_SAMPLE = 6        # of the 27 self-maps of aks3, as documents
CLI_LATTICE_SAMPLE = 10    # per implication variant and chain or not, as documents
CLI_INTERIOR_SAMPLE = 8    # per base (H6, B8), of the join-closed sets, as documents
CLI_APPLY_SAMPLE = 30      # of the element pairs of H24
MUTATION_SAMPLE = 60       # of the one-token mutations of the corpus


def load_pools() -> dict:
    with open(BENCH / "pools.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------- lattice tables


def lattice_table(L):
    """The plain table of a krl ``ExplicitLattice``."""
    return {"names": list(L.names), "up": list(L.up), "down": list(L.down)}


def _greatest(lat, mask):
    return next(m for m in bits(mask) if mask & ~lat["down"][m] == 0)


def leq(lat, a, b):
    return bool(lat["up"][a] >> b & 1)


def chain(n):
    return lattice_table(krl.ExplicitLattice.chain(n))


def boolean(k):
    size = 1 << k
    up = [sum(1 << b for b in range(size) if a & b == a) for a in range(size)]
    return lattice_table(krl.ExplicitLattice([f"s{a}" for a in range(size)], up))


def heyting_table(lat):
    """a -> b is the greatest c whose meet with a lies below b; the
    lattices given to it are distributive, so this is an implication."""
    n = len(lat["names"])
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            mask = sum(1 << c for c in range(n)
                       if leq(lat, _greatest(lat, lat["down"][c] & lat["down"][a]), b))
            row.append(_greatest(lat, mask))
        table.append(row)
    return table


def algebra_data(key, lat, table, separator, k, s):
    return {"key": key, "lat": lat, "imp": table, "sep": sorted(separator),
            "k": k, "s": s}


def heyting_algebra_data(key, lat):
    top = _greatest(lat, (1 << len(lat["names"])) - 1)
    return algebra_data(key, lat, heyting_table(lat), [top], top, top)


def heyting_chain_data(n):
    top = n - 1
    table = [[top if a <= b else b for b in range(n)] for a in range(n)]
    return algebra_data(f"H{n}", chain(n), table, [top], top, top)


def boolean_data(k):
    lat = boolean(k)
    full = (1 << k) - 1
    table = [[(full & ~a) | b for b in range(1 << k)] for a in range(1 << k)]
    return algebra_data(f"B{1 << k}", lat, table, [full], full, full)


def interior_bases():
    """The algebras whose join-closed sets become interior operators."""
    return {"H6": heyting_chain_data(6), "B8": boolean_data(3),
            "DD5": heyting_algebra_data("DD5", lattice_table(krl.fixtures.double_diamond()))}


def lattice6_data(index, up, variant):
    """A six-element lattice (labels follow the order, so e0 is bottom and
    e5 top) with the dummy implication a -> b = b, valid with the whole
    lattice as separator, or with 'top if a <= b else b', which fails on
    non-chains."""
    lat = lattice_table(krl.ExplicitLattice([f"e{i}" for i in range(6)], up))
    if variant == "dummy":
        table = [[b for b in range(6)] for _ in range(6)]
        return algebra_data(f"L6.{index}.dummy", lat, table, range(6), 0, 0)
    table = [[5 if leq(lat, a, b) else b for b in range(6)] for a in range(6)]
    return algebra_data(f"L6.{index}.tle", lat, table, [5], 5, 5)


def build_algebra(data):
    lat = data["lat"]
    L = krl.ExplicitLattice(lat["names"], lat["up"])
    st = krl.ImplicativeStructure(L, data["imp"])
    return krl.ImplicativeAlgebra(st, data["sep"], data["k"], data["s"])


def l2_algebra():
    return build_algebra(heyting_chain_data(2))


# --------------------------------------------------- Krivine structures


def full_polarity(m):
    names = [chr(ord("a") + i) for i in range(m)]
    full = (1 << m) - 1
    zero = [[0] * m for _ in range(m)]
    return {"names": names, "perp_rows": [full] * m, "push": zero, "app": zero,
            "qp": full, "k": 0, "s": 0}


def build_aks(data):
    return krl.AbstractKrivineStructure(
        tuple(data["names"]), tuple(data["perp_rows"]),
        tuple(map(tuple, data["push"])), tuple(map(tuple, data["app"])),
        data["qp"], data["k"], data["s"])


def powerset_structures(pools):
    out = {key: pools["aks"][key] for key in ("aks1", "aks2", "aks3")}
    for m in (2, 3, 4):
        out[f"full{m}"] = full_polarity(m)
    for n in (3, 4):
        out[f"KH{n}"] = pools["kchain"][str(n)]
    return out


# validate_algebra and al_approx on the 4-point structures, and the
# adjunction on the 3-point ones, take 0.2 to 1 s an op, three quarters of
# a pass in all: with them a run gets only about nine samples of each op,
# too few to ride out the host's slow spells.  The ladders
# validate_algebra.a_full, al_approx.id_full and adjunction.kchain time
# those sizes.
ALGEBRA_MAX_M = 3
ADJUNCTION_MAX_M = 2

MAP_PAIRS = (("aks2", "aks3"), ("aks3", "aks3"), ("aks3", "aks2"), ("KH3", "aks3"),
             ("aks3", "KH3"), ("full2", "aks3"), ("aks3", "full3"), ("KH3", "KH3"))


def map_key(item):
    src, tgt, carrier = item
    return f"{src}.{tgt}.{''.join(map(str, carrier))}"


def map_pool(structures):
    pool = []
    for src, tgt in MAP_PAIRS:
        m, k = len(structures[src]["names"]), len(structures[tgt]["names"])
        for carrier in product(range(k), repeat=m):
            pool.append((src, tgt, list(carrier)))
    return pool


# ------------------------------------------------------------ documents


def doc_ia(name, data):
    nm = data["lat"]["names"]
    up = data["lat"]["up"]
    n = len(nm)
    order = [f"{nm[a]} <= {nm[b]}" for a in range(n) for b in bits(up[a]) if a != b]
    imp = [f"{nm[a]} {nm[b]} -> {nm[data['imp'][a][b]]}"
           for a in range(n) for b in range(n)]
    return "\n".join([
        f'structure ia "{name}"',
        "elements: " + " ".join(nm),
        "order: " + " ; ".join(order),
        "imp: " + " ; ".join(imp),
        "separator: " + " ".join(nm[x] for x in data["sep"]),
        f"k: {nm[data['k']]}",
        f"s: {nm[data['s']]}",
    ]) + "\n"


def doc_aks(name, data, kind="aks"):
    nm = data["names"]
    n = len(nm)
    perp = [f"{nm[t]} {nm[p]}" for t in range(n) for p in bits(data["perp_rows"][t])]

    def table(key):
        return " ; ".join(f"{nm[a]} {nm[b]} -> {nm[data[key][a][b]]}"
                          for a in range(n) for b in range(n))

    return "\n".join([
        f'structure {kind} "{name}"',
        "pi: " + " ".join(nm),
        "perp: " + " ; ".join(perp),
        "push: " + table("push"),
        "app: " + table("app"),
        "qp: " + " ".join(nm[x] for x in bits(data["qp"])),
        f"K: {nm[data['k']]}",
        f"S: {nm[data['s']]}",
    ]) + "\n"


def subset_name(names, mask):
    return "{" + " ".join(names[i] for i in bits(mask)) + "}"


def doc_kop(base, names, table):
    rows = " ; ".join(f"{subset_name(names, a)} -> {subset_name(names, b)}"
                      for a, b in enumerate(table))
    return f'interior on "{base}"\nmap: {rows}\n'


def doc_kop_explicit(base, data, members):
    """The interior of a join-closed set: each element goes to the
    greatest member below it."""
    lat = data["lat"]
    nm = lat["names"]
    below = [sum(1 << m for m in members if leq(lat, m, a)) for a in range(len(nm))]
    rows = " ; ".join(f"{nm[a]} -> {nm[_greatest(lat, below[a])]}" for a in range(len(nm)))
    return f'interior on "{base}"\nmap: {rows}\n'


def doc_kmap(kind, name, src, tgt, rows, hints=None):
    lines = [f'morphism {kind} "{name}" from "{src}" to "{tgt}"',
             "map: " + " ; ".join(f"{a} -> {b}" for a, b in rows)]
    for key, value in (hints or {}).items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def mutation_pool(docs):
    """One-token mutations of corpus documents that leave them malformed:
    an entry's first name replaced by an unknown name, or one entry
    dropped from a complete table."""
    pool = []
    for fname in ("l2.krl", "heyting3.krl", "diamond.krl", "aks2.krl", "aks3.krl"):
        lines = docs[fname].splitlines()
        for li in range(1, len(lines)):
            key, payload = lines[li].split(":", 1)
            sep = " " if key in ("elements", "pi", "separator", "qp") else " ; "
            entries = payload.strip().split(sep)
            for ei in range(len(entries)):
                kinds = ["unknown"] + (["drop"] if key in ("imp", "push", "app") else [])
                for kind in kinds:
                    pool.append((fname, li, ei, kind))
    return pool


def mutate(docs, item):
    fname, li, ei, kind = item
    lines = docs[fname].splitlines()
    key, payload = lines[li].split(":", 1)
    sep = " " if key in ("elements", "pi", "separator", "qp") else " ; "
    entries = payload.strip().split(sep)
    if kind == "drop":
        del entries[ei]
    else:
        entries[ei] = " ".join(["zz"] + entries[ei].split()[1:])
    lines[li] = f"{key}: " + sep.join(entries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- setup


def variant_stratum(variant):
    """A six-element lattice variant's implication, and whether the
    lattice is the chain: 'top if a <= b else b' is valid only there, and
    only a valid algebra goes on to the costly checks."""
    _, up, implication = variant
    return implication, all(up[a] >> b & 1 or up[b] >> a & 1
                            for a in range(6) for b in range(6))


def setup(workload: str, seed: int, full: bool = False, workdir: Path | None = None):
    """Generate the inputs of one workload from the seed.

    The cli workload writes its documents into ``workdir`` (which must
    exist and is where its commands run).
    """
    pools = load_pools()
    rng = random.Random(f"{workload}:{seed}")

    def sample(items, k, stratum=lambda item: None):
        """Up to k items of each stratum; every item when full."""
        groups: dict = {}
        for item in items:
            groups.setdefault(stratum(item), []).append(item)
        if full:
            return [item for group in groups.values() for item in group]
        return [item for group in groups.values()
                for item in rng.sample(group, min(k, len(group)))]

    if workload == "explicit":
        variants = [(i, up, v) for i, up in enumerate(pools["lattice6"])
                    for v in ("dummy", "tle")]
        algebras = [heyting_chain_data(n) for n in (3, 6, 9, 12)]
        algebras += [boolean_data(2), boolean_data(3)]
        algebras += [lattice6_data(*item)
                     for item in sample(variants, EXPLICIT_SAMPLE, variant_stratum)]
        bases = interior_bases()
        parts = [(key, i, members) for key in bases
                 for i, members in enumerate(pools["join_closed"][key])]
        return {"workload": workload, "algebras": algebras, "bases": bases,
                "interiors": sample(parts, INTERIOR_SAMPLE, lambda p: p[0])}

    if workload == "powerset":
        structures = powerset_structures(pools)
        applicative = set(pools["applicative_maps"])
        return {"workload": workload, "structures": structures,
                "maps": sample(map_pool(structures), MAP_SAMPLE,
                               lambda m: (m[0], m[1], map_key(m) in applicative))}

    if workload == "cli":
        return _cli_setup(pools, sample, workdir)
    raise ValueError(f"unknown workload {workload}")


def _cli_setup(pools, sample, workdir: Path):
    docs = dict(pools["docs"])
    for n in (8, 16, 24):
        docs[f"H{n}.krl"] = doc_ia(f"H{n}", heyting_chain_data(n))
    kchain = range(2, 9)
    for n in kchain:
        docs[f"KH{n}.krl"] = doc_aks(f"KH{n}", pools["kchain"][str(n)])
    full3 = full_polarity(3)
    docs["full3.krl"] = doc_aks("full3", full3)
    docs["full3-id.kop"] = doc_kop("full3", full3["names"], list(range(8)))
    h3 = ("collapse", "H3", "L2-classical",
          [("e0", "e0"), ("e1", "e1"), ("m", "e1")])
    docs["h3-to-l2-search.kmap"] = doc_kmap("ia", *h3)
    collapse8 = [(f"e{a}", "e1" if a == 7 else "e0") for a in range(8)]
    docs["h8-to-l2.kmap"] = doc_kmap("ia", "collapse8", "H8", "L2-classical", collapse8,
                                     {"hint-h": "e1 -> e7", "hint-t": "e1", "hint-r": "e1"})
    docs["h8-to-l2-search.kmap"] = doc_kmap("ia", "collapse8", "H8", "L2-classical",
                                            collapse8)
    aks3_id = [(x, x) for x in "abc"]
    docs["aks3-id.kmap"] = doc_kmap("aks", "id3", "aks3", "aks3", aks3_id)
    aks3_maps = [(src, tgt, carrier) for src, tgt, carrier
                 in map_pool(powerset_structures(pools)) if (src, tgt) == ("aks3", "aks3")]
    maps = sample(range(len(aks3_maps)), AKS3_MAP_SAMPLE)
    for i in maps:
        rows = [(x, "abc"[c]) for x, c in zip("abc", aks3_maps[i][2])]
        docs[f"aks3-map{i}.kmap"] = doc_kmap("aks", f"map{i}", "aks3", "aks3", rows)
    # malformed documents; the known defects below are the inputs that
    # do not exit 1 or 2 cleanly at the time the benchmark was written
    docs["bad-missing-imp.krl"] = docs["l2.krl"].replace(" ; e1 e1 -> e1", "")
    docs["bad-unknown-order.krl"] = docs["l2.krl"].replace("order: e0 <= e1",
                                                           "order: e0 <= e9")
    docs["bad-header.krl"] = docs["l2.krl"].replace("structure ia", "structure ix")
    docs["bad-dup.kop"] = docs["diamond-open-x.kop"].replace("y -> bot", "y -> bot ; x -> x")
    docs["bad-aks-name.kmap"] = doc_kmap("aks", "bad", "aks3", "aks3",
                                         [("a", "a"), ("b", "zz"), ("c", "c")])
    docs["bad-dup-rows.kmap"] = doc_kmap("ia", "dup", "L2-classical", "L2-classical",
                                         [("e0", "e0"), ("e1", "e1"), ("e1", "e0")])
    # a five-chain with e1 <= e3 left out: every meet exists, transitivity fails
    five = [f"e{i}" for i in range(5)]
    docs["bad-nontransitive.krl"] = "\n".join([
        'structure ia "nontransitive"', "elements: " + " ".join(five),
        "order: " + " ; ".join(f"e{a} <= e{b}" for a in range(5) for b in range(a + 1, 5)
                               if (a, b) != (1, 3)),
        "imp: " + " ; ".join(f"e{a} e{b} -> " + ("e4" if a <= b else f"e{b}")
                             for a in range(5) for b in range(5)),
        "separator: e4", "k: e4", "s: e4"]) + "\n"
    three = ["e0", "e1", "e2"]
    docs["bad-no-top.krl"] = "\n".join([
        'structure ia "notop"', "elements: e0 e1 e2", "order: e0 <= e1 ; e0 <= e2",
        "imp: " + " ; ".join(f"{a} {b} -> e1" for a in three for b in three),
        "separator: e1", "k: e1", "s: e1"]) + "\n"
    variants = [(i, up, v) for i, up in enumerate(pools["lattice6"])
                for v in ("dummy", "tle")]
    lattices = sample(range(len(variants)), CLI_LATTICE_SAMPLE,
                      lambda i: variant_stratum(variants[i]))
    for i in lattices:
        data = lattice6_data(*variants[i])
        docs[f"L6-{i}.krl"] = doc_ia(data["key"], data)
    bases = {"H6": heyting_chain_data(6), "B8": boolean_data(3)}
    for key, data in bases.items():
        docs[f"{key}.krl"] = doc_ia(key, data)
    parts = [(key, i) for key in bases for i in range(len(pools["join_closed"][key]))]
    interiors = sample(parts, CLI_INTERIOR_SAMPLE, lambda p: p[0])
    for key, i in interiors:
        docs[f"{key}-jc{i}.kop"] = doc_kop_explicit(key, bases[key],
                                                    pools["join_closed"][key][i])
    applies = sample(product(range(24), repeat=2), CLI_APPLY_SAMPLE)
    mutations = sample(mutation_pool(pools["docs"]), MUTATION_SAMPLE)
    for item in mutations:
        docs[mutation_file(item)] = mutate(pools["docs"], item)
    for fname, text in docs.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return {"workload": "cli", "kchain": list(kchain), "maps": maps, "lattices": lattices,
            "interiors": interiors, "applies": applies, "mutations": mutations}


def mutation_file(item):
    fname, li, ei, kind = item
    return f"mut-{fname.split('.')[0]}-{li}-{ei}-{kind}.krl"


# -------------------------------------------------------------- passes


def run_pass(inputs, s) -> None:
    {"explicit": _explicit_pass, "powerset": _powerset_pass,
     "cli": _cli_pass}[inputs["workload"]](inputs, s)


def _morphism_ops(s, p, f):
    rep = s.op(p + "check_applicative", krl.check_applicative, f)
    cert = s.op(p + "search", krl.check_comp_dense, f)
    if ok(cert):
        s.op(p + "verify", krl.verify_certificate, f, cert)
    return rep, cert


def _explicit_pass(inp, s):
    for data in inp["algebras"]:
        A = build_algebra(data)
        st, L = A.structure, A.lattice
        p = f"explicit/{data['key']}/"
        s.op(p + "validate_lattice", krl.validate_lattice, L)
        s.op(p + "validate_algebra", krl.validate_algebra, A)
        s.op(p + "check_adjunction", krl.check_adjunction, st)
        for c in ("i", "k", "s", "cc"):
            s.op(p + "combinator_" + c, getattr(krl, "combinator_" + c), st)
        s.op(p + "combinator_nu", krl.combinator_nu, A)
        s.op(p + "separator_closure", krl.separator_closure, st, A.separator)
        if L.size <= 6:
            s.op(p + "functor_K", krl.functor_K_obj, A)
            s.op(p + "composite_AK", krl.composite_AK_check, A)
        _morphism_ops(s, p + "id/", krl.identity_morphism(A, "ia"))
        collapse = krl.MorphismSpec(
            "ia", A, l2_algebra(), [1 if a in A.separator else 0 for a in L.elements()],
            "collapse")
        _morphism_ops(s, p + "collapse/", collapse)

    for key, i, members in inp["interiors"]:
        A = build_algebra(inp["bases"][key])
        p = f"explicit/interior.{key}.{i}/"
        part = krl.ClosedPart(A.lattice, frozenset(members), "P_c")
        op = s.op(p + "theta_inv", krl.theta_inv, part)
        if not ok(op):
            continue
        s.op(p + "validate_interior", krl.validate_interior, op)
        s.op(p + "al_approx", krl.al_approx, op)
        _change_ops(s, p, A, op)

    s.op("explicit/enumerate_lattices.5",
         lambda: [lat.up for lat in krl.enumerators.enumerate_lattices(5)])
    H3 = build_algebra(heyting_chain_data(3))
    s.op("explicit/enumerate_implications.H3",
         lambda: list(krl.enumerators.enumerate_implications(H3.lattice)))
    H8 = build_algebra(heyting_chain_data(8))
    s.op("explicit/enumerate_interiors.H8",
         lambda: [op.table for op in krl.enumerators.enumerate_interiors(H8.lattice)])


def _change_ops(s, p, A, op):
    changed = s.op(p + "change", krl.change_implication, A, op)
    if not ok(changed):
        return
    certs = s.op(p + "density_certificates", krl.density_certificates, A, op)
    if ok(certs):
        for (f, cert), label in zip(certs, ("inclusion", "corestriction")):
            s.op(p + f"verify.{label}", krl.verify_certificate, f, cert)


def _powerset_pass(inp, s):
    structures = inp["structures"]
    for key, data in structures.items():
        X = build_aks(data)
        m = X.pi_size
        p = f"powerset/{key}/"
        s.op(p + "validate_aks", krl.validate_aks, X)
        image = s.op(p + "functor_A", krl.functor_A_obj, X)
        if not ok(image):
            continue
        A = image.algebra
        if m <= ALGEBRA_MAX_M:
            s.op(p + "validate_algebra", krl.validate_algebra, A)
        for c in ("i", "k", "s", "cc"):
            s.op(p + "combinator_" + c, getattr(krl, "combinator_" + c), A.structure)
        s.op(p + "combinator_nu", krl.combinator_nu, A)
        size = 1 << m
        bar = s.op(p + "bar", lambda: [krl.bar_closure(X, q) for q in range(size)])
        hat = s.op(p + "hat", lambda: [krl.hat_closure(X, q) for q in range(size)])
        s.op(p + "spec_preorder", lambda: [[krl.spec_preorder(X, a, b) for b in range(m)]
                                           for a in range(m)])
        _aks_morphism_ops(s, p + "id/", krl.identity_morphism(X, "aks"))
        if m <= 3:
            s.op(p + "composite_KA", krl.composite_KA_check, X)
        if m <= ADJUNCTION_MAX_M:
            s.op(p + "adjunction", krl.check_adjunction_instance, A, X)
        for label, table in (("bar", bar), ("hat", hat), ("id", list(range(size)))):
            op = krl.InteriorOperator(krl.PowersetLattice(X.names), tuple(table))
            q = p + f"interior.{label}/"
            s.op(q + "validate_interior", krl.validate_interior, op)
            if m <= ALGEBRA_MAX_M:
                s.op(q + "al_approx", krl.al_approx, op)
            if m <= 3:
                _change_ops(s, q, A, op)

    for src, tgt, carrier in inp["maps"]:
        f = krl.MorphismSpec("aks", build_aks(structures[src]), build_aks(structures[tgt]),
                             carrier, "g")
        p = f"powerset/map.{map_key((src, tgt, carrier))}/"
        _aks_morphism_ops(s, p, f)


def _aks_morphism_ops(s, p, f):
    rep, cert = _morphism_ops(s, p, f)
    if not (ok(rep) and rep.ok):
        return
    image = s.op(p + "functor_A_mor", krl.functor_A_mor, f)
    if not (ok(image) and ok(cert)):
        return
    cert_a = s.op(p + "transport_A", krl.transport_density_A, f, cert, image)
    # K(A(X)) has 2^m points; beyond m = 2 its applicativity scan takes seconds
    if f.source.pi_size <= 2 and f.target.pi_size <= 2 and ok(cert_a):
        k_image = s.op(p + "functor_K_mor", krl.functor_K_mor, image)
        if ok(k_image):
            s.op(p + "transport_K", krl.transport_density_K, image, cert_a, k_image)


# ------------------------------------------------------------------ cli


def cli_call(argv, env=None, output=None):
    """``run_cli`` in-process, with its output captured and any written
    file read back and removed."""
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in env or {}}
    os.environ.update(env or {})
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = krl.cli.run_cli(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    written = None
    if output is not None and os.path.exists(output):
        with open(output, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(output)
    return CliResult(code, out.getvalue(), err.getvalue(), written)


def exits(*codes):
    return lambda r: r.code in codes


GOLDEN = (
    (0, ["validate", "l2.krl"]),
    (0, ["validate", "aks3.krl", "aks3-hat.kop"]),
    (0, ["adjunction", "l2.krl"]),
    (0, ["adjunction", "aks2.krl"]),
    (0, ["combinators", "heyting3.krl"]),
    (0, ["apply", "l2.krl", "e1", "e0"]),
    (0, ["morphism", "check", "--dense", "h3-to-l2.kmap", "heyting3.krl", "l2.krl"]),
    (0, ["interior", "change", "aks3.krl", "aks3-hat.kop"]),
    (1, ["interior", "change", "diamond.krl", "diamond-open-x.kop"]),
    (1, ["validate", "bad-antisym.krl"]),
    (2, ["validate", "bad-imp.krl"]),
    (0, ["enumerate", "--kind", "lattice", "--size", "4"]),
)

READS = (
    ("validate.H8", 0, ["validate", "H8.krl"]),
    ("validate.H8.json", 0, ["--json", "validate", "H8.krl"]),
    ("combinators.H8", 0, ["combinators", "H8.krl"]),
    ("combinators.H16", 0, ["combinators", "H16.krl"]),
    ("combinators.H24.json", 0, ["--json", "combinators", "H24.krl"]),
    ("apply.H8", 0, ["apply", "H8.krl", "e3", "e5"]),
    ("apply.H16", 0, ["apply", "H16.krl", "e7", "e2"]),
    ("apply.H24", 0, ["apply", "H24.krl", "e20", "e11"]),
)

WRITES = (
    ("functor.K.H8", 0, ["functor", "K", "H8.krl", "-o", "out.krl"], "out.krl"),
    ("functor.K.l2", 0, ["functor", "K", "l2.krl", "-o", "out.krl"], "out.krl"),
    ("functor.A.aks3", 0, ["functor", "A", "aks3.krl", "-o", "out.krl"], "out.krl"),
    ("change.aks3.hat", 0,
     ["interior", "change", "aks3.krl", "aks3-hat.kop", "-o", "changed.krl"], "changed.krl"),
    ("approx.aks3.hat", 0, ["interior", "approx", "aks3.krl", "aks3-hat.kop"], None),
    ("approx.full3.id", 0, ["interior", "approx", "full3.krl", "full3-id.kop"], None),
)

MORPHISMS = (
    ("dense.h3-l2.search", 0,
     ["morphism", "check", "--dense", "h3-to-l2-search.kmap", "heyting3.krl", "l2.krl"]),
    ("dense.id-l2.verify", 0, ["morphism", "check", "--dense", "id-l2.kmap", "l2.krl"]),
    ("dense.h8-l2.verify", 0,
     ["morphism", "check", "--dense", "h8-to-l2.kmap", "H8.krl", "l2.krl"]),
    ("dense.h8-l2.search", 0,
     ["morphism", "check", "--dense", "h8-to-l2-search.kmap", "H8.krl", "l2.krl"]),
    ("dense.aks3-id.search", 0, ["morphism", "check", "--dense", "aks3-id.kmap", "aks3.krl"]),
)

MALFORMED = (
    ("missing-imp-row", (2,), ["validate", "bad-missing-imp.krl"], None),
    ("unknown-order-name", (2,), ["validate", "bad-unknown-order.krl"], None),
    ("bad-header", (2,), ["validate", "bad-header.krl"], None),
    ("interior-duplicate-row", (2,), ["validate", "diamond.krl", "bad-dup.kop"], None),
    ("unknown-apply-name", (2,), ["apply", "l2.krl", "e1", "e7"], None),
    ("bad-enumerate-kind", (2,), ["enumerate", "--kind", "bogus", "--size", "3"], None),
    ("search-budget-zero", (2,),
     ["morphism", "check", "--dense", "h3-to-l2-search.kmap", "heyting3.krl", "l2.krl"],
     {"KRL_SEARCH_BUDGET": "0"}),
)

# Inputs that should exit 1 or 2 cleanly but do not in this version
# (unknown names in aks morphisms, a non-numeric search budget, duplicate
# morphism rows, order axioms skipped on ia documents, negative sizes).
KNOWN_DEFECTS = (
    ("aks-morphism-unknown-name", exits(2),
     ["morphism", "check", "bad-aks-name.kmap", "aks3.krl"], None),
    ("search-budget-abc", exits(2),
     ["morphism", "check", "--dense", "h3-to-l2-search.kmap", "heyting3.krl", "l2.krl"],
     {"KRL_SEARCH_BUDGET": "abc"}),
    ("morphism-duplicate-rows", exits(2),
     ["morphism", "check", "bad-dup-rows.kmap", "l2.krl"], None),
    ("ia-nontransitive-order",
     lambda r: r.code == 1 and "FAIL order.transitive" in r.out,
     ["validate", "bad-nontransitive.krl"], None),
    ("ia-nontransitive-combinators", exits(1, 2),
     ["combinators", "bad-nontransitive.krl"], None),
    ("ia-no-top", lambda r: r.code == 1 and "FAIL" in r.out,
     ["validate", "bad-no-top.krl"], None),
    ("enumerate-negative-size", exits(2),
     ["enumerate", "--kind", "imp", "--size", "-1"], None),
)


def _cli_pass(inp, s):
    for i, (code, argv) in enumerate(GOLDEN, start=1):
        s.op(f"cli/golden.{i:02d}", cli_call, argv, expect=exits(code))
    for name, code, argv in READS:
        s.op(f"cli/read.{name}", cli_call, argv, expect=exits(code))
    for n in inp["kchain"]:
        p = f"cli/KH{n}/"
        doc = f"KH{n}.krl"
        s.op(p + "validate", cli_call, ["validate", doc], expect=exits(0))
        s.op(p + "apply", cli_call, ["apply", doc, "{e0}", "{e1}"], expect=exits(0))
        if n <= 4:
            s.op(p + "combinators.json", cli_call, ["--json", "combinators", doc],
                 expect=exits(0))
        s.op(p + "functor.A", cli_call, ["functor", "A", doc, "-o", "out.krl"], None,
             "out.krl", expect=exits(0))
    for name, code, argv, output in WRITES:
        s.op(f"cli/write.{name}", cli_call, argv, None, output, expect=exits(code))
    for name, code, argv in MORPHISMS:
        s.op(f"cli/{name}", cli_call, argv, expect=exits(code))
    for i in inp["maps"]:
        s.op(f"cli/dense.aks3-map{i}", cli_call,
             ["morphism", "check", "--dense", f"aks3-map{i}.kmap", "aks3.krl"],
             expect=exits(0, 1))
    for i in inp["lattices"]:
        doc = f"L6-{i}.krl"
        s.op(f"cli/{doc}/validate", cli_call, ["validate", doc], expect=exits(0, 1))
        s.op(f"cli/{doc}/combinators", cli_call, ["combinators", doc],
             expect=exits(0, 1, 2))
    for key, i in inp["interiors"]:
        s.op(f"cli/{key}-jc{i}/approx", cli_call,
             ["interior", "approx", f"{key}.krl", f"{key}-jc{i}.kop"], expect=exits(0))
    for a, b in inp["applies"]:
        s.op(f"cli/apply.H24.e{a}.e{b}", cli_call, ["apply", "H24.krl", f"e{a}", f"e{b}"],
             expect=exits(0))
    for name, codes, argv, env in MALFORMED:
        s.op(f"cli/malformed.{name}", cli_call, argv, env, expect=exits(*codes))
    for item in inp["mutations"]:
        s.op(f"cli/mutation.{mutation_file(item)}", cli_call,
             ["validate", mutation_file(item)], expect=exits(1, 2))
    for name, spec, argv, env in KNOWN_DEFECTS:
        s.op(f"cli/defect.{name}", cli_call, argv, env, expect=spec, known_defect=name)
