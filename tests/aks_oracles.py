"""The per-point scans that ``validate_aks`` decided before its mask
rules, kept as its oracle: every (t, s, pi) for compatibility and the k
axiom, every (t, u, s, pi) for the s axiom, in the order that names the
first witness."""

from krl.order import bits
from krl.report import Report


def scanned_validate_aks(aks):
    rep = Report("aks")
    nm = aks.name
    n = aks.pi_size

    witness = None
    strong = True
    for t in range(n):
        for s in range(n):
            ts = aks.app[t][s]
            for pi in range(n):
                fwd = aks.perp(t, aks.push[s][pi])
                back = aks.perp(ts, pi)
                if fwd and not back and witness is None:
                    witness = f"(t={nm(t)}, s={nm(s)}, pi={nm(pi)})"
                if fwd != back:
                    strong = False
    rep.check("aks.compatibility", witness is None, witness)
    rep.flag("strong-compatibility", strong and witness is None)

    witness = next((f"(t={nm(t)}, s={nm(s)})" for t in bits(aks.qp) for s in bits(aks.qp)
                    if not aks.qp >> aks.app[t][s] & 1), None)
    rep.check("aks.qp-application-closed", witness is None, witness)
    has_k = bool(aks.qp >> aks.k_elem & 1)
    rep.check("aks.qp-has-k", has_k, None if has_k else nm(aks.k_elem))
    has_s = bool(aks.qp >> aks.s_elem & 1)
    rep.check("aks.qp-has-s", has_s, None if has_s else nm(aks.s_elem))

    witness = next((f"(t={nm(t)}, s={nm(s)}, pi={nm(pi)})"
                    for t in range(n) for pi in bits(aks.perp_rows[t]) for s in range(n)
                    if not aks.perp(aks.k_elem, aks.push[t][aks.push[s][pi]])), None)
    rep.check("aks.k-axiom", witness is None, witness)

    witness = next((f"(t={nm(t)}, s={nm(s)}, u={nm(u)}, pi={nm(pi)})"
                    for t in range(n) for u in range(n) for s in range(n)
                    for pi in bits(aks.perp_rows[aks.app[aks.app[t][u]][aks.app[s][u]]])
                    if not aks.perp(aks.s_elem, aks.push[t][aks.push[s][aks.push[u][pi]]])),
                   None)
    rep.check("aks.s-axiom", witness is None, witness)
    return rep
