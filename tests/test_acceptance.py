"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line (visible
under ``pytest -s`` or in captured output) and enforces its time bound.
Everything here is exact: no tolerances, all comparisons are equalities
or lattice inequalities over exhaustively enumerated finite models.
"""

import time
from itertools import product
from pathlib import Path

from krl.aks import full_polarity_aks, validate_aks
from krl.bridge import (check_adjunction_instance,
                        composite_AK_check, composite_KA_check, functor_A_mor,
                        functor_A_obj, functor_K_mor, functor_K_obj,
                        transport_density_A, transport_density_K)
from krl.cli import run_cli
from krl.enumerators import (enumerate_implications, enumerate_interiors,
                             enumerate_lattices)
from krl.errors import HypothesisFailed
from krl.fixtures import (aks2, aks3, diamond, diamond_open_x_interior,
                          hat_interior, heyting3, l2, mined_corpus,
                          singleton_algebra)
from krl.implicative import (ImplicativeStructure, check_adjunction,
                             combinator_k, combinator_nu, combinator_s,
                             validate_algebra, validate_structure)
from krl.interior import (InteriorOperator, al_approx, change_implication,
                          density_certificates, operator_leq, theta, theta_inv)
from krl.morphism import (MorphismSpec, check_applicative, check_comp_dense,
                          compose, identity_morphism, verify_certificate)
from krl.order import ExplicitLattice, PowersetLattice, bits
from krl.specfile import Workspace, emit_spec, parse_spec

from condition2_oracles import check_condition2_equiv
from interior_oracles import alexandroff_interiors, interior_tables

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def conclude(number, description, ok, started, bound):
    elapsed = time.time() - started
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {number} {verdict} ({elapsed:.1f}s < {bound}s) {description}")
    assert ok, f"criterion {number}: {description}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def fixture_algebras():
    return [l2(), heyting3(), singleton_algebra(), diamond()]


def corpus_algebras():
    return ([l2(), heyting3()]
            + [functor_A_obj(aks).algebra for aks in mined_corpus()])


def test_criterion_1_adjunction_iff_meet_commutation():
    started = time.time()
    ok = True
    for n in (2, 3):
        chain = ExplicitLattice.chain(n)
        count = 0
        for table in enumerate_implications(chain):
            count += 1
            st = ImplicativeStructure(chain, table)
            adj = check_adjunction(st)
            half = next(c for c in adj.checks if c.clause == "adjunction.half")
            full = next(c for c in adj.checks if c.clause == "adjunction.full")
            meets = next(c for c in validate_structure(st).checks
                         if c.clause == "imp.meet-commutation")
            ok = ok and half.passed and (full.passed == meets.passed)
        ok = ok and count > 0
    conclude(1, "full adjunction iff meet-commutation, half always", ok,
             started, 10)


def test_criterion_2_foca_laws_on_all_fixtures():
    started = time.time()
    ok = True
    for algebra in corpus_algebras():
        st = algebra.structure
        L = st.lattice
        nu = combinator_nu(algebra)
        for a in L.elements():
            for b in L.elements():
                ok = ok and L.leq(st.apply_chain(algebra.k, a, b), a)
                ok = ok and L.leq(a, st.imp(b, st.application(a, b)))
                ok = ok and L.leq(st.application(st.imp(a, b), a), b)
                for c in L.elements():
                    sabc = st.apply_chain(algebra.s, a, b, c)
                    ok = ok and L.leq(sabc, st.application(
                        st.application(a, c), st.application(b, c)))
                    nuabc = st.apply_chain(nu, a, b, c)
                    ok = ok and L.leq(nuabc, st.application(a, st.application(b, c)))
        if not ok:
            break
    conclude(2, "k/s/nu and unit/counit laws on every fixture algebra", ok,
             started, 30)


def test_criterion_3_functor_soundness_and_composites():
    started = time.time()
    ok = True
    for aks in mined_corpus() + [full_polarity_aks(2)]:
        ok = ok and validate_algebra(functor_A_obj(aks).algebra).ok
    for algebra in fixture_algebras():
        ok = ok and validate_aks(functor_K_obj(algebra).aks).ok
        ok = ok and composite_AK_check(algebra).ok
    for aks in (full_polarity_aks(1), full_polarity_aks(2), aks2()):
        ok = ok and composite_KA_check(aks).ok
    conclude(3, "functor outputs validate; composites match closed forms", ok,
             started, 60)


def naturality_corpus():
    collapse = MorphismSpec("ia", heyting3(), l2(), (0, 1, 1), "collapse")
    embed = MorphismSpec("ia", l2(), heyting3(), (0, 2), "embed")
    gs = [MorphismSpec("aks", aks2(), aks3(), t, f"g{t}")
          for t in product(range(3), repeat=2)
          if check_applicative(MorphismSpec("aks", aks2(), aks3(), t)).ok]
    return [collapse, embed, identity_morphism(l2(), "ia")], gs


def test_criterion_4_adjunction_theorem():
    started = time.time()
    ok = True
    ia_corpus, aks_corpus = naturality_corpus()
    pairs = [(l2(), aks3()), (heyting3(), aks2()),
             (diamond(), full_polarity_aks(1)), (singleton_algebra(), aks2())]
    for algebra, aks in pairs:
        rep = check_adjunction_instance(algebra, aks, ia_corpus, aks_corpus)
        ok = ok and rep.ok
    conclude(4, "triangle identities, unit/counit certificates, naturality",
             ok, started, 60)


def test_criterion_5_morphism_theory():
    started = time.time()
    ok = True
    small = [l2(), heyting3(), singleton_algebra()]
    dense_ia = []
    for src in small:
        for tgt in small:
            for table in product(range(tgt.lattice.size),
                                 repeat=src.lattice.size):
                f = MorphismSpec("ia", src, tgt, table)
                rep = check_applicative(f)
                by = {c.clause: c.passed for c in rep.checks}
                if not (by["morphism.separator-preservation"]
                        and by["morphism.meet-preservation"]):
                    continue
                eq = check_condition2_equiv(f)
                ok = ok and next(c for c in eq.checks
                                 if c.clause == "condition2.equivalence").passed
                if rep.ok:
                    cert = check_comp_dense(f)
                    if cert is not None:
                        dense_ia.append((f, cert))
    ok = ok and len(dense_ia) > 0

    # composed certificates re-verify
    for f, cf in dense_ia:
        for g, cg in dense_ia:
            if f.target.lattice.size != len(g.carrier) or f.target is not g.source:
                continue
            composed, cert = compose(f, g, cf, cg)
            ok = ok and cert is not None and verify_certificate(composed, cert).ok

    # functor images of dense morphisms are dense, via transported witnesses
    for f, cf in dense_ia:
        if f.source.lattice.size > 3 or f.target.lattice.size > 3:
            continue
        image = functor_K_mor(f)
        ok = ok and verify_certificate(image, transport_density_K(f, cf, image)).ok
    dense_aks = []
    a2, a3 = aks2(), aks3()
    for table in product(range(3), repeat=2):
        f = MorphismSpec("aks", a2, a3, table)
        if check_applicative(f).ok:
            cert = check_comp_dense(f)
            if cert is not None:
                dense_aks.append((f, cert))
    for aks in (a2, a3, *mined_corpus()):
        f = identity_morphism(aks, "aks")
        dense_aks.append((f, check_comp_dense(f)))
    for f, cf in dense_aks:
        image = functor_A_mor(f)
        ok = ok and cf is not None
        ok = ok and verify_certificate(image, transport_density_A(f, cf, image)).ok

    # carrier-map composition also carries certificates
    composed = 0
    for f, cf in dense_aks:
        for g, cg in dense_aks:
            if g.source is not f.target:
                continue
            gf, cert = compose(f, g, cf, cg)
            ok = ok and cert is not None and verify_certificate(gf, cert).ok
            composed += 1
    # at least one non-identity composite must have been exercised
    ok = ok and composed > len(dense_aks)
    conclude(5, "both uniformity forms agree; composites and images stay dense",
             ok, started, 60)


def test_criterion_6_interior_correspondence_and_approximation():
    started = time.time()
    ok = True
    for n in (1, 2, 3, 4):
        for lattice in enumerate_lattices(n):
            # the open-set route really does reach every interior operator
            ok = ok and (sorted(op.table for op in enumerate_interiors(lattice))
                         == sorted(op.table
                                   for op in interior_tables(lattice)))
            alexandroffs = [k.table for k in alexandroff_interiors(lattice)]
            for op in enumerate_interiors(lattice):
                ok = ok and theta_inv(theta(op)).table == op.table
                approx = al_approx(op)
                candidates = [t for t in alexandroffs
                              if operator_leq(op, InteriorOperator(lattice, t))]
                least = min(
                    (t for t in candidates
                     if all(operator_leq(InteriorOperator(lattice, t),
                                         InteriorOperator(lattice, u))
                            for u in candidates)),
                    default=None)
                ok = ok and approx.table == least
    for base in (1, 2, 3):
        names = tuple(chr(ord("a") + i) for i in range(base))
        lattice = PowersetLattice(names)
        for op in enumerate_interiors(lattice):
            kappa = tuple(
                # union of the interiors of the singletons of each subset
                _fold_or(op.table[1 << x] for x in bits(p))
                for p in lattice.elements())
            ok = ok and al_approx(op).table == kappa
    conclude(6, "open-set correspondence bijective; approximation is least",
             ok, started, 120)


def _fold_or(values):
    acc = 0
    for v in values:
        acc |= v
    return acc


def test_criterion_7_implication_change():
    started = time.time()
    ok = True
    algebra = functor_A_obj(aks3()).algebra
    hat = hat_interior(aks3())
    changed = change_implication(algebra, hat)
    ok = ok and changed.report.ok
    # the changed application is the closure of the original on all opens
    L = algebra.lattice
    for a in changed.opens:
        for b in changed.opens:
            got = changed.opens[changed.algebra.application(
                changed.to_sub[a], changed.to_sub[b])]
            ok = ok and got == changed.closure[algebra.application(a, b)]
    # designated combinator bounds inside the changed algebra
    sub = changed.algebra
    ok = ok and sub.lattice.leq(sub.k, combinator_k(sub.structure))
    ok = ok and sub.lattice.leq(sub.s, combinator_s(sub.structure))
    (inc, inc_cert), (cor, cor_cert) = density_certificates(algebra, hat)
    ok = ok and verify_certificate(inc, inc_cert).ok
    ok = ok and verify_certificate(cor, cor_cert).ok
    try:
        change_implication(diamond(), diamond_open_x_interior())
        ok = False
    except HypothesisFailed as exc:
        ok = ok and exc.clause == "i-bound" and exc.witness == "y"
    conclude(7, "changed algebra laws, density certificates, failure witness",
             ok, started, 30)


def test_criterion_8_frontend_roundtrip_and_golden_cli(capsys):
    started = time.time()
    ok = True
    for path in sorted(FIX.iterdir()):
        text = path.read_text()
        doc = parse_spec(text)
        ok = ok and emit_spec(doc) == text and parse_spec(emit_spec(doc)) == doc
    ws = Workspace()
    for path in sorted(FIX.iterdir()):
        ws.add_path(path)
    ws.resolve()

    golden = [
        (0, ["validate", str(FIX / "l2.krl")]),
        (0, ["validate", str(FIX / "aks3.krl"), str(FIX / "aks3-hat.kop")]),
        (0, ["adjunction", str(FIX / "l2.krl")]),
        (0, ["adjunction", str(FIX / "aks2.krl")]),
        (0, ["combinators", str(FIX / "heyting3.krl")]),
        (0, ["apply", str(FIX / "l2.krl"), "e1", "e0"]),
        (0, ["morphism", "check", "--dense", str(FIX / "h3-to-l2.kmap"),
             str(FIX / "heyting3.krl"), str(FIX / "l2.krl")]),
        (0, ["interior", "change", str(FIX / "aks3.krl"),
             str(FIX / "aks3-hat.kop")]),
        (1, ["interior", "change", str(FIX / "diamond.krl"),
             str(FIX / "diamond-open-x.kop")]),
        (1, ["validate", str(Path(__file__).parent / "data" / "bad-antisym.krl")]),
        (2, ["validate", str(Path(__file__).parent / "data" / "bad-imp.krl")]),
        (0, ["enumerate", "--kind", "lattice", "--size", "4"]),
    ]
    for expected, argv in golden:
        code = run_cli(argv)
        ok = ok and code == expected
    capsys.readouterr()
    conclude(8, "round-trips on the corpus; golden exit codes", ok, started, 5)
