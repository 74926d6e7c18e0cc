"""``verify_certificate`` against the per-kind verifiers it replaced, on
every carrier map between small fixtures, each with its found
certificate and seeded corruptions of it."""

import random
from collections import Counter
from itertools import product

from certificate_oracles import verify_certificate_aks, verify_certificate_ia
from krl.enumerators import enumerate_implications
from krl.fixtures import aks1, aks2, aks3, diamond, heyting3, l2
from krl.implicative import ImplicativeAlgebra, ImplicativeStructure
from krl.morphism import (DensityCertificate, MorphismSpec, search_certificate,
                          table_lattices, verify_certificate)
from krl.order import ExplicitLattice, bits

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
