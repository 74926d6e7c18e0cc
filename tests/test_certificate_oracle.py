"""``verify_certificate`` against the per-kind verifiers it replaced, on
every carrier map between small fixtures, each with its found
certificate and seeded corruptions of it."""

import dataclasses
import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from certificate_oracles import verify_certificate_aks, verify_certificate_ia
from krl.bridge import functor_A_obj
from krl.cli import run_cli
from krl.enumerators import enumerate_implications
from krl.fixtures import (aks1, aks2, aks3, diamond, hat_interior, heyting3,
                          identity_interior, l2)
from krl.implicative import ImplicativeAlgebra, ImplicativeStructure
from krl.interior import density_certificates
from krl.morphism import (DensityCertificate, MorphismSpec, check_applicative,
                          search_certificate, table_lattices, verify_certificate)
from krl.order import ExplicitLattice, PowersetLattice, bits
from krl.specfile import document_for, emit_spec

FIX = Path(__file__).resolve().parent.parent / "fixtures"

CLAUSES = ("cert.r-uniform", "cert.h-total", "cert.h-into-source-separator",
           "cert.h-monotone", "cert.density")


def chain3_algebras():
    """Seeded implications on the 3-chain with separator {e1, e2}, so two
    realizers compete and the application is not always the meet."""
    chain = ExplicitLattice.chain(3)
    tables = list(enumerate_implications(chain))
    return [ImplicativeAlgebra(ImplicativeStructure(chain, table), {1, 2}, 2, 2)
            for table in random.Random(15).sample(tables, 4)]


def carrier_size(kind, obj):
    return obj.lattice.size if kind == "ia" else obj.pi_size


def carrier_maps(kind, objects):
    for src, tgt in product(objects, repeat=2):
        for carrier in product(range(carrier_size(kind, tgt)),
                               repeat=carrier_size(kind, src)):
            yield MorphismSpec(kind, src, tgt, carrier)


def realizers(f):
    B = f.target
    return sorted(B.separator) if f.kind == "ia" else list(bits(B.qp))


def separators(f):
    """The target and source separators, as the table's elements."""
    if f.kind == "ia":
        return sorted(f.target.separator), sorted(f.source.separator)
    return list(f.target.separator_masks), list(f.source.separator_masks)


def certificates(f, rng):
    """The found certificate (or a total table when none is found) and its
    corruptions: every realizer as t and as r, r missing, t and r outside
    the realizers, a dropped and a stray entry, a value outside the source
    separator, a non-monotone pair, and two seeded random tables."""
    lt, ls = table_lattices(f)
    sep_b, sep_a = separators(f)
    real = realizers(f)
    outside = [x for x in range(carrier_size(f.kind, f.target)) if x not in real]
    found = search_certificate(f, real[0])
    base = found or DensityCertificate.make(real[0], {b: sep_a[0] for b in sep_b}, real[0])
    h = base.h_map
    out = [base, DensityCertificate(base.t, base.h, None)]
    out += [DensityCertificate(x, base.h, base.r) for x in real + outside[:1]]
    out += [DensityCertificate(base.t, base.h, x) for x in real + outside[:1]]
    if h:
        out.append(DensityCertificate.make(base.t, dict(list(h.items())[1:]), base.r))
    extra = next((b for b in lt.elements() if b not in h), None)
    if extra is not None:
        out.append(DensityCertificate.make(base.t, {**h, extra: sep_a[-1]}, base.r))
    off = next((s for s in ls.elements() if s not in sep_a), None)
    if off is not None and h:
        out.append(DensityCertificate.make(base.t, {**h, sep_b[-1]: off}, base.r))
    pair = next(((b1, b2, s) for b1 in sep_b for b2 in sep_b for s in sep_a
                 if b1 != b2 and lt.leq(b1, b2) and not ls.leq(h[b1], s)), None)
    if pair is not None:
        b1, b2, s = pair
        out.append(DensityCertificate.make(base.t, {**h, b2: s}, base.r))
    for _ in range(2):
        table = {b: rng.choice(ls.elements()) for b in lt.elements() if rng.random() < 0.6}
        out.append(DensityCertificate.make(rng.choice(real), table, rng.choice(real)))
    return out


def compare(kind, objects, oracle):
    """Every report's rendering against the oracle's, and the number of
    times each clause fails."""
    rng = random.Random(15)
    failed = Counter()
    count = 0
    for f in carrier_maps(kind, objects):
        for cert in certificates(f, rng):
            rep = verify_certificate(f, cert)
            assert rep.render() == oracle(f, cert).render(), (f.carrier, cert)
            failed.update(c.clause for c in rep.failures())
            count += 1
    return count, failed


def test_chain3_algebras_apply_other_than_by_meet():
    assert any(A.application(a, b) != A.lattice.meet2(a, b)
               for A in chain3_algebras() for a in range(3) for b in range(3))


def test_verify_matches_the_ia_oracle():
    count, failed = compare("ia", [l2(), heyting3(), diamond()] + chain3_algebras(),
                            verify_certificate_ia)
    assert count > 1000
    for clause in ("cert.t-in-separator", "cert.r-in-separator") + CLAUSES:
        assert failed[clause], clause


def test_verify_matches_the_aks_oracle():
    count, failed = compare("aks", [aks1(), aks2(), aks3()], verify_certificate_aks)
    assert count > 500
    for clause in ("cert.t-is-quasi-proof", "cert.r-is-quasi-proof") + CLAUSES:
        assert failed[clause], clause


# ------------------------------------------ the verdict decides r-uniform


def oracle_of(f):
    return verify_certificate_ia if f.kind == "ia" else verify_certificate_aks


def verified_with_the_verdict(f, cert):
    """The rendered report on three fresh copies of f: its applicativity
    verdict never computed, computed before, and computed between two
    calls (the second one is kept); and whether the verdict decided
    ``cert.r-uniform``."""
    never = verify_certificate(dataclasses.replace(f), cert)
    before = dataclasses.replace(f)
    check_applicative(before)
    decided = cert.r in before.uniform_realizers
    after = dataclasses.replace(f)
    verify_certificate(after, cert)
    check_applicative(after)
    return {verify_certificate(g, cert).render() for g in (before, after)} | {
        never.render()}, decided


@pytest.mark.parametrize("kind,objects", [
    ("ia", [l2(), heyting3(), diamond()] + chain3_algebras()),
    ("aks", [aks1(), aks2(), aks3()]),
])
def test_the_verdict_gives_the_oracle_report_whenever_it_was_computed(kind, objects):
    rng = random.Random(22)
    decided = Counter()
    for i, f in enumerate(carrier_maps(kind, objects)):
        if kind == "ia" and i % 3:
            continue  # a third of the ia maps: the realizers vary within each
        for cert in certificates(f, rng):
            renders, by_verdict = verified_with_the_verdict(f, cert)
            assert renders == {oracle_of(f)(f, cert).render()}, (f.carrier, cert)
            least = check_applicative(f).data.get("realizer")
            decided[by_verdict, cert.r is None or cert.r == least] += 1
    # the verdict decides the least realizer, and on carrier maps others too;
    # the rest go through the scan
    assert decided[True, True] and decided[False, False]
    assert bool(decided[True, False]) == (kind == "aks")


def density_inputs():
    return [(heyting3(), identity_interior(heyting3().lattice)),
            (diamond(), identity_interior(diamond().lattice)),
            (functor_A_obj(aks2()).algebra, hat_interior(aks2())),
            (functor_A_obj(aks3()).algebra, hat_interior(aks3())),
            (functor_A_obj(aks3()).algebra, identity_interior(PowersetLattice(aks3().names)))]


@pytest.mark.parametrize("base,iota", density_inputs(), ids=[
    "heyting3-id", "diamond-id", "A(aks2)-hat", "A(aks3)-hat", "A(aks3)-id"])
def test_the_density_certificates_verify_as_the_oracle_says(base, iota):
    for f, cert in density_certificates(base, iota):
        renders, _ = verified_with_the_verdict(f, cert)
        assert renders == {verify_certificate_ia(f, cert).render()}
        assert verify_certificate(f, cert).ok


def test_the_separators_kept_on_each_map_are_the_per_call_ones():
    maps = [*carrier_maps("ia", [l2(), heyting3(), diamond()] + chain3_algebras()),
            *carrier_maps("aks", [aks1(), aks2(), aks3()]),
            *(f for base, iota in density_inputs() for f, _ in density_certificates(base, iota)),
            *(f for f, _, _ in hinted_maps())]
    for f in maps:
        sep_b, sep_a = separators(f)
        assert f.separators == (tuple(sep_b), tuple(sep_a))
        assert f.separators is f.separators
    assert len(maps) > 1800


def hinted_maps():
    """Every self-map of aks3 and every map from H3 to L2, with the names
    of its source and target and the fixtures that define them."""
    X, H3, L2 = aks3(), heyting3(), l2()
    for carrier in product(range(3), repeat=3):
        yield MorphismSpec("aks", X, X, carrier), ("aks3", "aks3"), ["aks3.krl"]
    for carrier in product(range(2), repeat=3):
        yield (MorphismSpec("ia", H3, L2, carrier), ("H3", "L2-classical"),
               ["heyting3.krl", "l2.krl"])


def hinted_documents(tmp_path):
    """Each of :func:`hinted_maps` that has a certificate, hinted with its
    found t and h and each realizer or none as r, written as a document;
    with the files to check it with."""
    for j, (f, (src, tgt), fixtures) in enumerate(hinted_maps()):
        real = realizers(f)
        found = search_certificate(f, real[0])
        if found is None:
            continue
        for r in real + [None]:
            cert = DensityCertificate(found.t, found.h, r)
            doc = document_for(f, f"m{j}", cert=cert, source_name=src, target_name=tgt)
            path = tmp_path / f"m{j}-{r}.kmap"
            path.write_text(emit_spec(doc), encoding="utf-8")
            yield f, cert, [path] + [FIX / name for name in fixtures]


def test_hinted_certificates_report_as_the_oracle_says(tmp_path, capsys):
    checked = 0
    for f, cert, files in hinted_documents(tmp_path):
        code = run_cli(["morphism", "check", "--dense", *map(str, files)])
        out = capsys.readouterr().out.splitlines()
        expected = oracle_of(f)(f, cert).render().splitlines()[1:]
        assert out[-len(expected):] == expected
        assert code == (0 if oracle_of(f)(f, cert).ok and check_applicative(f).ok else 1)
        checked += 1
    assert checked > 20
