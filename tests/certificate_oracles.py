"""The density-certificate verifiers written once per kind, kept as
oracles for ``verify_certificate``: ``verify_certificate_ia`` for maps
between implicative algebras, ``verify_certificate_aks`` for carrier maps
between Krivine structures.  Each states its clauses on its own kind's
data, with no shared density table.
"""

from krl import aks as aksmod
from krl.morphism import _uniform_family
from krl.report import Report


def verify_certificate_ia(f, cert):
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    rep = Report(f"certificate({f.name})")
    h = cert.h_map

    ok = cert.t in B.separator
    rep.check("cert.t-in-separator", ok, None if ok else lb.name(cert.t))
    ok = cert.r is not None and cert.r in B.separator
    rep.check("cert.r-in-separator", ok,
              None if ok else "missing" if cert.r is None else lb.name(cert.r))
    if cert.r is not None:
        witness = next((f"(s={la.name(s)}, a={la.name(a)})"
                        for s in sorted(A.separator) for a in la.elements()
                        if not lb.leq(B.apply_chain(cert.r, f(s), f(a)),
                                      f(A.application(s, a)))), None)
        rep.check("cert.r-uniform", witness is None, witness)

    missing = sorted(b for b in B.separator if b not in h)
    rep.check("cert.h-total", not missing,
              lb.name_set(missing) if missing else None)
    stray = sorted(b for b in h if h[b] not in A.separator)
    rep.check("cert.h-into-source-separator", not stray,
              lb.name_set(stray) if stray else None)
    witness = next((f"({lb.name(b1)} <= {lb.name(b2)})" for b1 in h for b2 in h
                    if lb.leq(b1, b2) and not la.leq(h[b1], h[b2])), None)
    rep.check("cert.h-monotone", witness is None, witness)
    if not missing:
        witness = next((lb.name(b) for b in sorted(B.separator)
                        if not lb.leq(B.application(cert.t, f(h[b])), b)), None)
        rep.check("cert.density", witness is None, witness)
    return rep


def _contains(x, y):
    """Reverse inclusion of masks, the order of separator subsets."""
    return y & x == y


def verify_certificate_aks(f, cert):
    A, B = f.source, f.target
    rep = Report(f"certificate({f.name})")
    h = cert.h_map
    sep_a = set(A.separator_masks)

    ok = bool(B.qp >> cert.t & 1)
    rep.check("cert.t-is-quasi-proof", ok, None if ok else B.name(cert.t))
    ok = cert.r is not None and bool(B.qp >> cert.r & 1)
    rep.check("cert.r-is-quasi-proof", ok,
              None if ok else "missing" if cert.r is None else B.name(cert.r))
    if cert.r is not None:
        witness = next((f"(P'={A.name_mask(p2)}, P={A.name_mask(p)})"
                        for p2, p, realizers in _uniform_family(f)
                        if not realizers >> cert.r & 1), None)
        rep.check("cert.r-uniform", witness is None, witness)

    missing = [b for b in B.separator_masks if b not in h]
    rep.check("cert.h-total", not missing,
              B.name_mask(missing[0]) if missing else None)
    stray = sorted(b for b in h if h[b] not in sep_a)
    rep.check("cert.h-into-source-separator", not stray,
              B.name_mask(stray[0]) if stray else None)
    witness = next((f"({B.name_mask(b1)} <= {B.name_mask(b2)})" for b1 in h for b2 in h
                    if _contains(b1, b2) and not _contains(h[b1], h[b2])), None)
    rep.check("cert.h-monotone", witness is None, witness)
    if not missing:
        witness = next((B.name_mask(b) for b in B.separator_masks
                        if not aksmod.perp_left(B, aksmod.imp_sets(B, f.image_mask(h[b]), b))
                        >> cert.t & 1), None)
        rep.check("cert.density", witness is None, witness)
    return rep
