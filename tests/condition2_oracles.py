"""The implication form of the uniformity condition, kept as an oracle for
``check_applicative`` on structure maps.  The library searches the
application form, a realizer r with r f(s) f(a) <= f(sa); the paper
states it as r <= f(a -> a') -> f(a) -> f(a') whenever a -> a' is in the
source separator.  ``check_condition2_equiv`` decides both forms apart and
asserts that they agree.
"""

from krl.morphism import _applicative_realizer
from krl.report import Report


def _implication_realizer(f):
    """Least r with r <= f(a -> a') -> f(a) -> f(a') whenever a -> a' is
    in the source separator."""
    A, B = f.source, f.target
    la, lb = A.lattice, B.lattice
    bounds = []
    for a in la.elements():
        for a2 in la.elements():
            if A.imp(a, a2) in A.separator:
                bounds.append(B.imp(f(A.imp(a, a2)), B.imp(f(a), f(a2))))
    for r in sorted(B.separator):
        if all(lb.leq(r, x) for x in bounds):
            return r
    return None


def check_condition2_equiv(f):
    """Decide the implication form and the application form of the
    uniformity condition independently and assert they agree."""
    rep = Report(f"condition2({f.name})")
    r_imp = _implication_realizer(f)
    r_app = _applicative_realizer(f)
    rep.check("condition2.implication-form", r_imp is not None,
              None if r_imp is not None else "no uniform realizer")
    rep.check("condition2.application-form", r_app is not None,
              None if r_app is not None else "no uniform realizer")
    rep.check("condition2.equivalence", (r_imp is None) == (r_app is None),
              f"implication-form={r_imp}, application-form={r_app}")
    rep.data["realizer_implication"] = r_imp
    rep.data["realizer_application"] = r_app
    return rep
