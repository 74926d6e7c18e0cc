"""One verdict per object.

A lattice, an implicative structure, an algebra, a Krivine structure and a
map each compute their validator's report once; an implicative structure
also keeps its combinator bounds and its adjoint verdict.  The validators
hand out copies, and every answer equals the answer on a freshly built
object, whichever question comes first.
"""

import dataclasses
import gc
import sys
from collections import Counter
from functools import cached_property
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from krl import aks as aks_module
from krl import implicative, interior, morphism, order, report
from krl.aks import full_polarity_aks, validate_aks
from krl.bridge import (PowersetStructure, check_adjunction_instance, composite_AK_check,
                        composite_KA_check, functor_A_mor, functor_A_obj, functor_K_obj,
                        transport_density_A)
from krl.errors import HypothesisFailed, VerificationFailed
from krl.fixtures import (aks2, aks3, bar_interior, diamond, hat_interior, heyting3,
                          identity_interior, l2, mined_corpus, singleton_algebra)
from krl.implicative import (ImplicativeAlgebra, ImplicativeStructure, check_adjunction,
                             combinator_cc, combinator_i, combinator_k, combinator_nu,
                             combinator_s, separator_closure, validate_algebra,
                             validate_structure)
from krl.interior import change_implication, density_certificates
from krl.lazy import lazy
from krl.morphism import (DensityCertificate, MorphismSpec, check_applicative,
                          check_comp_dense, identity_morphism, verify_certificate)
from krl.order import ExplicitLattice, PowersetLattice, validate_lattice
from krl.report import CheckResult, Report

from powerset_oracles import mined_by_algebra
from test_implicative import law_algebras, principal_algebras

BODIES = (order._lattice_report, implicative._structure_report,
          implicative._algebra_report, implicative._k_fold, implicative._s_fold,
          implicative._cc_fold, implicative._application_is_adjoint,
          aks_module._aks_report, morphism._applicative_ia, morphism._applicative_aks,
          morphism._applicative_realizer)


def assert_once_per_object(counts, *ran):
    assert counts.per_object and max(counts.per_object.values()) == 1
    assert set(ran) <= set(counts), counts


# ------------------------------------------------------ (a) one body run


# the explicit algebras supply no application, so meet-commutation decides
# their adjoint verdict by theorem; A(aks2) holds its structure report and
# its adjoint verdict by construction, and reads its algebra report off the
# verdict of aks2, which functor_A_obj computed when it built the algebra
EXPLICIT_CHAIN = ("_lattice_report", "_structure_report", "_algebra_report", "_k_fold", "_s_fold",
                  "_cc_fold")


@pytest.mark.parametrize("algebra,ran", [
    (l2(), EXPLICIT_CHAIN), (heyting3(), EXPLICIT_CHAIN), (diamond(), EXPLICIT_CHAIN),
    (singleton_algebra(), EXPLICIT_CHAIN),
    (functor_A_obj(aks2()).algebra, ("_k_fold", "_s_fold", "_cc_fold")),
], ids=["l2", "heyting3", "diamond", "singleton", "A(aks2)"])
def test_the_algebra_chain_computes_each_verdict_once(algebra, ran, count_calls):
    counts = count_calls(*BODIES)
    assert validate_algebra(algebra).ok
    functor_K_obj(algebra)
    assert composite_AK_check(algebra).ok
    combinator_nu(algebra)
    assert check_adjunction(algebra.structure).ok
    assert_once_per_object(counts, *ran)
    assert set(counts) == set(ran), counts
    # the functor builds K(L) unvalidated, and the composite decides it
    # valid from L's adjoint verdict; no adjoint scan runs
    assert counts["_application_is_adjoint"] == 0


@pytest.mark.parametrize("aks", mined_corpus() + [full_polarity_aks(m) for m in (1, 2, 3)])
def test_the_structure_chain_computes_each_verdict_once(aks, count_calls):
    counts = count_calls(*BODIES)
    assert validate_aks(aks).ok
    image = functor_A_obj(aks).algebra
    assert composite_KA_check(aks).ok
    assert check_adjunction_instance(image, aks).ok
    assert_once_per_object(counts, "_aks_report")
    # X once; A(X), the instance's algebra, reads its report off X's verdict
    # and computes only its classical flag's bound
    assert counts == {"_aks_report": 1, "_cc_fold": 1}, counts


def applicative_maps():
    return [MorphismSpec("aks", src, tgt, carrier)
            for src, tgt in product((aks2(), aks3()), repeat=2)
            for carrier in product(range(tgt.pi_size), repeat=src.pi_size)
            if check_applicative(MorphismSpec("aks", src, tgt, carrier)).ok]


def test_the_map_chain_computes_each_verdict_once(count_calls):
    maps = applicative_maps()
    counts = count_calls(*BODIES)
    dense = 0
    for f in maps:
        assert check_applicative(f).ok
        cert = check_comp_dense(f)
        image = functor_A_mor(f)
        if cert is not None:
            dense += 1
            assert transport_density_A(f, cert, image).r == check_applicative(image).data[
                "realizer"]
    assert dense and counts["_applicative_aks"] == counts["_applicative_ia"] == len(maps)
    # the image's realizer is searched once, by its applicativity check
    assert_once_per_object(counts, "_applicative_aks", "_applicative_ia",
                           "_applicative_realizer")


@pytest.mark.parametrize("base,iota", [
    (heyting3(), identity_interior(heyting3().lattice)),
    (functor_A_obj(aks3()).algebra, hat_interior(aks3())),
], ids=["heyting3-id", "A(aks3)-hat"])
def test_density_certificates_leave_the_changed_algebra_unvalidated(base, iota, count_calls):
    counts = count_calls(implicative.validate_algebra, implicative._algebra_report)
    assert change_implication(base, iota).report.ok
    assert counts == {"validate_algebra": 1, "_algebra_report": 1}
    counts.clear()
    density_certificates(base, iota)
    assert not counts


# ----------------------------------------- (b) the same answers, any order


def rebuilt(algebra):
    """The algebra built afresh from the same data: new lattice, structure
    and, for a powerset algebra, Krivine structure, with nothing computed."""
    st = algebra.structure
    if isinstance(st, PowersetStructure):
        st = PowersetStructure(dataclasses.replace(st.aks))
    else:
        L = algebra.lattice
        st = ImplicativeStructure(ExplicitLattice(L.names, L.up), st._imp, app=st._app)
    return ImplicativeAlgebra(st, algebra.separator, algebra.k, algebra.s)


def as_data(answer):
    if hasattr(answer, "checks"):
        return answer.name, answer.checks, answer.flags, answer.data
    return answer


def nu_outcome(algebra):
    try:
        return combinator_nu(algebra)
    except VerificationFailed as exc:
        return str(exc)


def application_cells(structure):
    """Every cell, each asked on its own: before any scan builds the
    table they are single lookups, after it they read it."""
    elems = structure.lattice.elements()
    return tuple(structure.application(a, b) for a in elems for b in elems)


STRUCTURE_QUESTIONS = (
    lambda A: application_cells(A.structure),
    lambda A: validate_lattice(A.lattice),
    lambda A: validate_structure(A.structure),
    lambda A: check_adjunction(A.structure),
    lambda A: combinator_i(A.structure),
    lambda A: combinator_k(A.structure),
    lambda A: combinator_s(A.structure),
    lambda A: combinator_cc(A.structure),
)
ALGEBRA_QUESTIONS = (
    nu_outcome,
    lambda A: separator_closure(A.structure, A.separator),
    validate_algebra,
)
QUESTIONS = STRUCTURE_QUESTIONS + ALGEBRA_QUESTIONS


def structure_key(algebra):
    """What the structure questions read: the order, the implication and
    any closed-form application, as tables."""
    st, L = algebra.structure, algebra.lattice
    if isinstance(st, PowersetStructure):
        return st.aks
    pairs = list(product(L.elements(), repeat=2))
    return (L.names, L.up, tuple(st._imp(a, b) for a, b in pairs),
            st._app and tuple(st._app(a, b) for a, b in pairs))


def answers_in_every_order(algebra, asked_alone):
    """Each answer on an object of its own, then every answer on one object
    with the validators asked first, then with the combinators first.  The
    answers to the structure questions on their own are kept in
    ``asked_alone`` by :func:`structure_key`."""
    key = structure_key(algebra)
    if key not in asked_alone:
        asked_alone[key] = [as_data(q(rebuilt(algebra))) for q in STRUCTURE_QUESTIONS]
    alone = asked_alone[key] + [as_data(q(rebuilt(algebra))) for q in ALGEBRA_QUESTIONS]
    first, last = rebuilt(algebra), rebuilt(algebra)
    validators_first = [as_data(q(first)) for q in QUESTIONS[::-1]][::-1]
    combinators_first = [as_data(q(last)) for q in QUESTIONS]
    return alone, validators_first, combinators_first


def every_corpus_algebra():
    yield from (l2(), heyting3(), diamond(), singleton_algebra())
    yield from (functor_A_obj(aks).algebra for aks in mined_corpus())
    yield from law_algebras()
    yield from principal_algebras()


def test_answers_do_not_depend_on_what_was_asked_before():
    asked, asked_alone = 0, {}
    for algebra in every_corpus_algebra():
        alone, validators_first, combinators_first = answers_in_every_order(
            algebra, asked_alone)
        assert alone == validators_first == combinators_first
        asked += 1
    assert asked > 2481 + 752


@pytest.mark.parametrize("aks", mined_corpus() + [aks2(), full_polarity_aks(2)])
def test_structure_and_map_answers_do_not_depend_on_the_order(aks):
    questions = (validate_aks, lambda X: check_applicative(identity_morphism(X, "aks")))
    alone = [as_data(q(dataclasses.replace(aks))) for q in questions]
    for order in (questions, questions[::-1]):
        X = dataclasses.replace(aks)
        asked = {q: as_data(q(X)) for q in order}
        assert [asked[q] for q in questions] == alone


def fresh_map(f):
    """f on source and target objects built afresh, with nothing computed."""
    if f.kind == "aks":
        src = dataclasses.replace(f.source)
        tgt = src if f.target is f.source else dataclasses.replace(f.target)
    else:
        src = rebuilt(f.source)
        tgt = src if f.target is f.source else rebuilt(f.target)
    return MorphismSpec(f.kind, src, tgt, f.carrier, f.name)


def corpus_maps():
    """Identities of the explicit fixtures and of A(aks2), every map from H3
    to L2, and every carrier map between aks2 and aks3, applicative or not."""
    yield from (identity_morphism(A, "ia") for A in (l2(), heyting3(), diamond(),
                                                     functor_A_obj(aks2()).algebra))
    H3, L2 = heyting3(), l2()
    yield from (MorphismSpec("ia", H3, L2, c) for c in product(range(2), repeat=3))
    for src, tgt in product((aks2(), aks3()), repeat=2):
        yield from (MorphismSpec("aks", src, tgt, c)
                    for c in product(range(tgt.pi_size), repeat=src.pi_size))


def map_questions(f):
    """check_applicative, check_comp_dense, and verify_certificate of the
    found certificate (or of a total table) with each realizer or none as r."""
    found = check_comp_dense(fresh_map(f))
    real = (sorted(f.target.separator) if f.kind == "ia"
            else list(order.bits(f.target.qp)))
    if found is None:
        sep_a = (sorted(f.source.separator) if f.kind == "ia"
                 else list(f.source.separator_masks))
        sep_b = (sorted(f.target.separator) if f.kind == "ia"
                 else list(f.target.separator_masks))
        found = DensityCertificate.make(real[0], {b: sep_a[0] for b in sep_b})
    certs = [DensityCertificate(found.t, found.h, r) for r in real + [None]]
    return ([lambda g: as_data(check_applicative(g)), check_comp_dense]
            + [lambda g, c=c: as_data(verify_certificate(g, c)) for c in certs])


def test_map_answers_do_not_depend_on_what_was_asked_before():
    asked = reused = 0
    for f in corpus_maps():
        questions = map_questions(f)
        alone = [q(fresh_map(f)) for q in questions]
        for order_ in (questions, questions[::-1]):
            g = fresh_map(f)
            answers = {q: q(g) for q in order_}
            assert [answers[q] for q in questions] == alone
            reused += bool(g.uniform_realizers)
        asked += 1
    assert (asked, reused) == (60, 72)


def outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisFailed as exc:
        return str(exc)


def change_answers(A, iota, change_first, verify_first):
    """change_implication, density_certificates and, on each dense map they
    return, check_applicative and verify_certificate, asked on A in the
    given orders."""
    def change():
        got = outcome(change_implication, A, iota)
        return got if isinstance(got, str) else (got.opens, got.closure, as_data(got.report))

    def certs():
        return outcome(density_certificates, A, iota)
    first, second = (change, certs) if change_first else (certs, change)
    answers = {first: first(), second: second()}
    found = answers[certs]
    if isinstance(found, str):
        return answers[change], found
    maps = []
    for f, cert in found:
        questions = [lambda: as_data(check_applicative(f)),
                     lambda: as_data(verify_certificate(f, cert))]
        got = [q() for q in (questions[::-1] if verify_first else questions)]
        maps.append((f.carrier, f.name, cert, *(got[::-1] if verify_first else got)))
    return answers[change], maps


def test_change_answers_do_not_depend_on_the_order(count_calls):
    # on fresh objects built from the bar, hat and identity operators of
    # every structure of three points the miner finds, aks3 among them
    structures = mined_by_algebra()
    assert len(structures) == 96 and aks3() in structures
    counts = count_calls(interior._build_change)
    outcomes = Counter()
    for aks in structures:
        for iota in (bar_interior(aks), hat_interior(aks),
                     identity_interior(PowersetLattice(aks.names))):
            answers = []
            for orders in product((True, False), repeat=2):
                A = functor_A_obj(dataclasses.replace(aks)).algebra
                answers.append(change_answers(A, iota, *orders))
                # the changed algebra is built once per algebra and operator
                built = not isinstance(answers[-1][0], str)
                assert len(A._changes) == built
                assert not built or counts.per_object["_build_change", id(A)] == 1
            assert all(got == answers[0] for got in answers)
            outcomes[built, isinstance(answers[0][1], str)] += 1
    # changes, each with its dense maps, and refused changes
    assert set(outcomes) == {(True, False), (False, True)}, outcomes


# ------------------------------------------------ (c) callers get copies


def reports_of(algebra, X):
    f = identity_morphism(algebra, "ia")
    g = identity_morphism(X, "aks")
    return [
        lambda: validate_lattice(algebra.lattice),
        lambda: validate_lattice(PowersetLattice(X.names)),
        lambda: validate_structure(algebra.structure),
        lambda: validate_algebra(algebra),
        lambda: validate_aks(X),
        lambda: check_applicative(f),
        lambda: check_applicative(g),
    ]


QUASI = ImplicativeAlgebra(  # its structure report carries a flag note
    ImplicativeStructure(ExplicitLattice.chain(2), ((0, 0), (0, 0))), {1}, 1, 1)


@pytest.mark.parametrize("algebra,X", [(heyting3(), aks3()), (l2(), aks2()),
                                       (QUASI, full_polarity_aks(2))])
def test_changing_a_returned_report_leaves_the_next_one_alone(algebra, X):
    for ask in reports_of(algebra, X):
        before = as_data(ask())
        rep = ask()
        rep.name = "renamed"
        rep.check("extra.clause", False, "w")
        rep.flag("extra-flag", True, "a note")
        rep.data["realizer"] = -1
        rep.extend(validate_algebra(diamond()))
        assert as_data(ask()) == before


# --------------------------------------- what carries a verdict is frozen


def assert_read_only(obj, changes):
    """Assigning each field of ``changes`` its new value and deleting it
    both raise, and leave the field as it was; ``changes`` names every
    public field the object holds that is not lazy."""
    lazy_fields = {attr for cls in type(obj).__mro__ for attr, v in vars(cls).items()
                   if isinstance(v, lazy)}
    assert {field for field, _ in changes} == {
        field for field in vars(obj) if not field.startswith("_")} - lazy_fields
    for field, value in changes:
        before = getattr(obj, field)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, value)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, field)
        assert getattr(obj, field) is before


def test_what_carries_a_verdict_cannot_be_reassigned():
    algebra = heyting3()
    assert_read_only(algebra, (("separator", frozenset({0})), ("k", 0), ("s", 0),
                               ("structure", l2().structure)))
    # no underscore store stands behind a field
    structure = algebra.structure
    for field in ("_separator", "_structure", "_k", "_s"):
        setattr(algebra, field, frozenset({0}))
    assert (algebra.structure, algebra.separator) == (structure, frozenset({2}))
    assert (algebra.k, algebra.s) == (heyting3().k, heyting3().s)
    base, iota = functor_A_obj(aks3()).algebra, hat_interior(aks3())
    changed = change_implication(base, iota)
    assert change_implication(base, iota) is changed
    assert_read_only(changed, (("structure", l2().structure), ("iota", iota), ("opens", ()),
                               ("to_sub", {}), ("algebra", l2()),
                               ("strong_imp_condition", False), ("i_comb", 0), ("nu", 0)))
    assert changed.report.ok
    f = identity_morphism(algebra, "ia")
    for field, value in (("kind", "aks"), ("source", l2()), ("target", l2()),
                         ("carrier", (0, 0, 0)), ("name", "g")):
        with pytest.raises(FrozenInstanceError):
            setattr(f, field, value)
    assert validate_algebra(algebra).ok and check_applicative(f).ok


def test_a_validated_lattice_and_structure_cannot_be_reassigned():
    L = ExplicitLattice.chain(3)
    assert validate_lattice(L).ok
    assert_read_only(L, (("up", (1, 2, 4)), ("names", ("x", "y", "z")), ("size", 5)))
    assert (L.names, L.up, L.size) == (("e0", "e1", "e2"), ExplicitLattice.chain(3).up, 3)
    assert validate_lattice(L).ok
    structure = heyting3().structure
    assert_read_only(structure, (("lattice", L),))
    assert validate_structure(structure).ok
    P = PowersetLattice(aks3().names)
    assert validate_lattice(P).ok
    assert_read_only(P, (("base_names", ("x",)), ("base_size", 1), ("size", 2)))
    assert (P.base_names, P.base_size, P.size) == (("a", "b", "c"), 3, 8)
    assert validate_lattice(P).ok
    powerset = PowersetStructure(aks3())
    assert validate_structure(powerset).ok
    assert_read_only(powerset, (("aks", aks2()), ("lattice", L)))
    assert powerset.aks.names == aks3().names and validate_structure(powerset).ok


def test_lazy_fields_and_kept_values_are_read_only():
    # a public name is read-only whether __init__ set it or lazy computed it
    L = ExplicitLattice.chain(3)
    assert validate_lattice(L).ok and L.meet2(1, 2) == 1
    algebra = heyting3()
    assert validate_algebra(algebra).ok
    st = algebra.structure
    rows, verdict = st.rows, algebra.verdict
    for store in (lambda: setattr(L, "down", (7, 7, 7)),
                  lambda: setattr(L, "greatest_of_down_set", {}),
                  lambda: setattr(L, "least_of_up_set", {}),
                  lambda: setattr(st, "rows", ((0, 0, 0),) * 3),
                  lambda: setattr(algebra, "verdict", None),
                  lambda: delattr(algebra, "verdict"),
                  lambda: delattr(L, "down")):
        with pytest.raises(FrozenInstanceError):
            store()
    assert L.down == (1, 3, 7) and L.meet2(1, 2) == 1 and validate_lattice(L).ok
    assert st.rows is rows and algebra.verdict is verdict
    # a lazy field may be stored by from_pairs before its first read
    fork = ExplicitLattice.from_pairs(["e0", "e1", "e2"], [(0, 1), (0, 2)])
    assert fork.down == (1, 3, 5)
    with pytest.raises(FrozenInstanceError):
        fork.down = (1, 1, 1)
    # a kept change hands out a read-only index of its opens
    base, iota = functor_A_obj(aks3()).algebra, hat_interior(aks3())
    changed = change_implication(base, iota)
    opens = changed.opens
    with pytest.raises(TypeError):
        changed.to_sub[opens[0]] = 1
    assert [changed.to_sub[b] for b in opens] == list(range(len(opens)))


def test_every_cached_field_is_lazy():
    # stored with object.__setattr__, past the read-only guard and frozen
    # dataclasses, once per object; functools.cached_property is gone
    classes = {v for key, m in sys.modules.items() if key.startswith("krl.")
               for v in vars(m).values() if isinstance(v, type) and v.__module__ == key}
    fields = {(cls.__name__, attr) for cls in classes for attr, v in vars(cls).items()
              if isinstance(v, lazy)}
    assert not any(isinstance(v, cached_property) for cls in classes
                   for v in vars(cls).values())
    assert len(fields) == 45 and {("AbstractKrivineStructure", "perp_lefts"),
                                  ("AbstractKrivineStructure", "powerset"),
                                  ("MorphismSpec", "uniform_bound"),
                                  ("MorphismSpec", "separators"),
                                  ("ImplicativeAlgebra", "_changes"),
                                  ("ExplicitLattice", "greatest_of_down_set")} <= fields
    X = dataclasses.replace(aks3())
    assert X.perp_lefts is X.perp_lefts and X.perp_lefts == (7, 7, 2, 2, 0, 0, 0, 0)
    assert X.powerset is X.powerset and X.powerset == PowersetLattice(X.names)
    L = ExplicitLattice.chain(3)
    assert L.covers is L.covers and L.covers == ((0, 1), (1, 2))


def test_a_certificate_search_leaves_no_reference_cycle():
    # a verdict lives as long as its object, and no cycle keeps a map alive
    gc.collect()
    gc.disable()
    try:
        for f in (identity_morphism(heyting3(), "ia"), identity_morphism(aks3(), "aks")):
            assert check_comp_dense(f) is not None
        del f
        # a change is kept on its base, and each dense map around it verified
        base, iota = functor_A_obj(aks3()).algebra, hat_interior(aks3())
        assert change_implication(base, iota).report.ok
        for f, cert in density_certificates(base, iota):
            assert verify_certificate(f, cert).ok
        # a carrier map searched, verified and carried to A, each reading
        # the separators kept on the map
        f = next(MorphismSpec("aks", aks2(), aks3(), t, "g") for t in product(range(3), repeat=2)
                 if check_applicative(MorphismSpec("aks", aks2(), aks3(), t)).ok)
        cert = check_comp_dense(f)
        assert cert is not None and verify_certificate(f, cert).ok
        image = functor_A_mor(f)
        assert f.separators and image.separators
        del base, f, cert, image
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------- a passing clause is shared


def test_a_passing_clause_without_witness_or_note_is_one_shared_result():
    first, second = Report("first"), Report("second")
    for rep in (first, second):
        assert rep.check("shared.pass", True)
        assert rep.check("shared.truthy", 1)
        assert not rep.check("shared.fail", False)
        assert rep.check("shared.noted", True, note="kept")
        assert rep.check("shared.witnessed", True, witness=3)
        assert not rep.check("shared.fail-witnessed", 0, "w")
    assert first.checks == second.checks == [
        CheckResult("shared.pass", True), CheckResult("shared.truthy", True),
        CheckResult("shared.fail", False), CheckResult("shared.noted", True, None, "kept"),
        CheckResult("shared.witnessed", True, "3"),
        CheckResult("shared.fail-witnessed", False, "w")]
    same = [a is b for a, b in zip(first.checks, second.checks)]
    assert same == [True, True, False, False, False, False]
    assert second.to_json() == {**first.to_json(), "name": "second"}


def test_the_shared_results_stay_at_their_bound():
    for i in range(5000):
        assert Report("many").check(f"shared.clause-{i}", True)
    info = report._passed.cache_info()
    assert info.currsize == info.maxsize == 1024
