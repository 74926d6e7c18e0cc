"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a check fails
(the report goes to standard output), 2 for usage, parse, or resolution
errors.  ``KRL_SEARCH_BUDGET`` bounds certificate-search nodes; an
exhausted budget is reported as inconclusive and exits 2, since it is
neither a pass nor a definitive failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bridge, interior, morphism
from .aks import AbstractKrivineStructure, validate_aks
from .bridge import PowersetStructure, functor_A_obj, functor_K_obj
from .enumerators import (enumerate_implications, enumerate_interiors,
                          enumerate_lattices)
from .errors import (HypothesisFailed, InvalidSource, KrlError,
                     SearchBudgetExceeded, SpecFileError)
from .implicative import (ImplicativeAlgebra, combinator_cc, combinator_i,
                          combinator_k, combinator_nu, combinator_s,
                          validate_algebra)
from .interior import InteriorOperator, al_approx, validate_interior
from .morphism import MorphismSpec, check_applicative
from .order import ExplicitLattice, validate_lattice
from .report import Report
from .specfile import Workspace, document_for, emit_spec


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krl",
        description="Validate and transform finite realizability structures.")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit reports as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate every document in the files")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("combinators", help="print i, k, s, cc (and nu) of a structure")
    p.add_argument("file")

    p = sub.add_parser("apply", help="apply one element to another")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("functor", help="apply a functor to a structure")
    p.add_argument("direction", choices=("A", "K"))
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("adjunction", help="check the adjunction data on a structure")
    p.add_argument("file")

    p = sub.add_parser("morphism", help="morphism checks")
    msub = p.add_subparsers(dest="subcommand", required=True)
    mp = msub.add_parser("check", help="check a morphism document")
    mp.add_argument("--dense", action="store_true")
    mp.add_argument("files", nargs="+",
                    help="the .kmap file plus the documents it references")

    p = sub.add_parser("interior", help="interior-operator constructions")
    isub = p.add_subparsers(dest="subcommand", required=True)
    ip = isub.add_parser("approx", help="least Alexandroff operator above the input")
    ip.add_argument("file")
    ip.add_argument("opfile")
    ip = isub.add_parser("change", help="change the implication along an operator")
    ip.add_argument("file")
    ip.add_argument("opfile")
    ip.add_argument("-o", "--output")

    p = sub.add_parser("enumerate", help="enumerate small models")
    p.add_argument("--kind", choices=("lattice", "imp", "interior"), required=True)
    p.add_argument("--size", type=int, required=True)
    return parser


def _load(files) -> Workspace:
    ws = Workspace()
    for path in files:
        ws.add_path(path)
    ws.resolve()
    return ws


def _print_reports(reports, as_json) -> None:
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        print("\n".join(r.render() for r in reports))


def _validate_object(name, obj) -> list[Report]:
    if isinstance(obj, ExplicitLattice):
        reports = [validate_lattice(obj)]
    elif isinstance(obj, ImplicativeAlgebra):
        powerset = isinstance(obj.structure, PowersetStructure)
        reports = [validate_aks(obj.structure.aks)] if powerset else []
        reports.append(validate_algebra(obj))
    elif isinstance(obj, AbstractKrivineStructure):
        reports = [validate_aks(obj)]
    elif isinstance(obj, InteriorOperator):
        reports = [validate_interior(obj)]
    elif isinstance(obj, MorphismSpec):
        reports = [check_applicative(obj)]
    else:
        raise SpecFileError(f"no validator for '{name}'")
    for rep in reports:
        rep.name = f"{name}:{rep.name}"
    return reports


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _dispatch(args)
    except SearchBudgetExceeded as exc:
        print(json.dumps({"inconclusive": str(exc)}) if args.as_json
              else f"INCONCLUSIVE {exc}")
        return 2
    except HypothesisFailed as exc:
        if args.as_json:
            rep = Report("change")
            rep.check("change.hypothesis", False, exc.witness, str(exc))
            _print_reports([rep], True)
        else:
            print(f"FAIL change.hypothesis witness={exc.witness} ({exc})")
        return 1
    except InvalidSource as exc:
        if exc.report is not None:
            _print_reports([exc.report], args.as_json)
        if not args.as_json:
            print(f"FAIL {exc}")
        return 1
    except (KrlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _single_object(ws: Workspace):
    if len(ws.documents) != 1:
        raise SpecFileError("expected exactly one document")
    name = next(iter(ws.documents))
    return name, ws.objects[name]


def _denoted_algebra(name, obj) -> ImplicativeAlgebra:
    """The algebra a document denotes, its order not yet checked."""
    if isinstance(obj, AbstractKrivineStructure):
        obj = functor_A_obj(obj, validate=False).algebra
    if not isinstance(obj, ImplicativeAlgebra):
        raise SpecFileError(f"'{name}' does not describe an algebra")
    return obj


def _as_algebra(name, obj) -> ImplicativeAlgebra:
    algebra = _denoted_algebra(name, obj)
    if algebra.lattice.order_failures:
        raise InvalidSource(f"'{name}' is not ordered as a complete lattice",
                            validate_lattice(algebra.lattice))
    return algebra


def _dispatch(args) -> int:
    if args.command == "validate":
        ws = _load(args.files)
        reports = []
        for name in ws.documents:
            reports.extend(_validate_object(name, ws.objects[name]))
        _print_reports(reports, args.as_json)
        return 0 if all(r.ok for r in reports) else 1

    if args.command == "combinators":
        ws = _load([args.file])
        name, obj = _single_object(ws)
        algebra = _as_algebra(name, obj)
        st = algebra.structure
        L = algebra.lattice
        values = {
            "i": combinator_i(st), "k": combinator_k(st),
            "s": combinator_s(st), "cc": combinator_cc(st),
            "nu": combinator_nu(algebra),
        }
        if args.as_json:
            print(json.dumps({key: L.name(v) for key, v in values.items()}))
        else:
            for key, v in values.items():
                print(f"{key} = {L.name(v)}")
        return 0

    if args.command == "apply":
        ws = _load([args.file])
        name, obj = _single_object(ws)
        algebra = _as_algebra(name, obj)
        L = algebra.lattice
        result = L.name(algebra.application(L.index_of(args.a), L.index_of(args.b)))
        print(json.dumps(result) if args.as_json else result)
        return 0

    if args.command == "functor":
        ws = _load([args.file])
        name, obj = _single_object(ws)
        if args.direction == "A":
            if not isinstance(obj, AbstractKrivineStructure):
                raise SpecFileError(
                    f"functor A expects a Krivine structure, '{name}' is not one")
            doc = document_for(functor_A_obj(obj).algebra, f"A({name})")
        else:
            if not isinstance(obj, ImplicativeAlgebra):
                raise SpecFileError(
                    f"functor K expects an implicative algebra, '{name}' is not one")
            doc = document_for(functor_K_obj(obj).aks, f"K({name})")
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_spec(doc))
        print(json.dumps({"wrote": args.output}) if args.as_json else f"wrote {args.output}")
        return 0

    if args.command == "adjunction":
        ws = _load([args.file])
        name, obj = _single_object(ws)
        # the other side is built unchecked and unlimited, since
        # check_adjunction_instance validates both sides, the structure
        # first; a powerset algebra is paired with the X it carries
        if isinstance(obj, AbstractKrivineStructure):
            algebra, aks = bridge.powerset_algebra(obj), obj
        elif isinstance(obj, ImplicativeAlgebra):
            algebra = _as_algebra(name, obj)
            powerset = isinstance(algebra.structure, PowersetStructure)
            aks = algebra.structure.aks if powerset else bridge.krivine_structure(algebra)
        else:
            raise SpecFileError(
                f"adjunction expects an algebra or a Krivine structure, "
                f"'{name}' is neither")
        rep = bridge.check_adjunction_instance(algebra, aks)
        _print_reports([rep], args.as_json)
        return 0 if rep.ok else 1

    if args.command == "morphism":
        ws = _load(args.files)
        specs = [(n, o) for n, o in ws.objects.items() if isinstance(o, MorphismSpec)]
        if len(specs) != 1:
            raise SpecFileError("expected exactly one morphism document")
        name, spec = specs[0]
        reports = [check_applicative(spec)]
        if args.dense:
            hint = ws.morphism_hints.get(name)
            if hint is None:
                cert = morphism.check_comp_dense(spec)
                cert_rep = None if cert is None else morphism.verify_certificate(spec, cert)
            else:
                # a hinted certificate is verified search-free, once
                cert_rep = morphism.verify_certificate(spec, hint)
                cert = hint if cert_rep.ok else None
            rep = Report(f"dense({name})")
            failure = ("no certificate found" if hint is None
                       else "hinted certificate fails verification")
            rep.check("morphism.computationally-dense", cert is not None,
                      None if cert else failure)
            if cert_rep is not None:
                rep.extend(cert_rep)
            reports.append(rep)
        _print_reports(reports, args.as_json)
        return 0 if all(r.ok for r in reports) else 1

    if args.command == "interior":
        ws = _load([args.file, args.opfile])
        ops = [(n, o) for n, o in ws.objects.items() if isinstance(o, InteriorOperator)]
        if len(ops) != 1:
            raise SpecFileError("expected exactly one interior document")
        op_name, op = ops[0]
        rep = validate_interior(op)
        if not rep.ok:
            _print_reports([rep], args.as_json)
            return 1
        if args.subcommand == "approx":
            approx, base = al_approx(op), _base_name(ws, op_name)
            name, L = f"approx({op_name})", approx.lattice
            if args.as_json:
                print(json.dumps({"name": name, "base": base, "map": {
                    L.name(a): L.name(approx(a)) for a in L.elements()}}))
            else:
                print(emit_spec(document_for(approx, base, op_name=name)), end="")
            return 0
        # validate_interior has checked the order of the base
        base_name = _base_name(ws, op_name)
        algebra = _denoted_algebra(base_name, ws.objects[base_name])
        changed = interior.change_implication(algebra, op)
        reports = [changed.report]
        if changed.strong_imp_condition:  # else density_certificates refuses
            reports += [morphism.verify_certificate(f, cert)
                        for f, cert in interior.density_certificates(algebra, op)]
        _print_reports(reports, args.as_json)
        if args.output:
            doc = document_for(changed.algebra, f"changed({base_name})")
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(emit_spec(doc))
            # under --json standard output holds the reports alone
            print(f"wrote {args.output}", file=sys.stderr if args.as_json else sys.stdout)
        return 0 if all(r.ok for r in reports) else 1

    if args.command == "enumerate":
        if args.size < 0:
            raise KrlError(f"--size must not be negative, got {args.size}")
        count = 0
        if args.as_json:
            # one object, written as the models stream
            print(f'{{"kind": {json.dumps(args.kind)}, "models": [', end="")
            for count, row in enumerate(_enumerated_rows(args.kind, args.size), start=1):
                print(("," if count > 1 else "") + "\n  " + json.dumps(row), end="")
            print(f'\n], "total": {count}}}')
            return 0
        for count, row in enumerate(_enumerated_rows(args.kind, args.size), start=1):
            print(f"{args.kind} {count}: {row}")
        print(f"total: {count}")
        return 0

    raise SpecFileError(f"unknown command {args.command}")


def _enumerated_rows(kind: str, n: int):
    """The text of each model that ``krl enumerate`` lists, in order.  No
    complete lattice has 0 elements, so every kind lists none at size 0."""
    if n == 0:
        return
    if kind == "lattice":
        for lattice in enumerate_lattices(n):
            nm = lattice.names
            pairs = " ; ".join(f"{nm[a]} <= {nm[b]}" for a, b in lattice.pairs())
            yield pairs or "(discrete order)"
        return
    chain = ExplicitLattice.chain(n)
    nm = chain.names
    if kind == "imp":
        for table in enumerate_implications(chain):
            yield " ; ".join(f"{nm[a]} {nm[b]} -> {nm[table[a][b]]}"
                             for a in range(n) for b in range(n))
    else:
        for op in enumerate_interiors(chain):
            yield " ; ".join(f"{nm[a]} -> {nm[op.table[a]]}" for a in range(n))


def _base_name(ws: Workspace, op_name: str) -> str:
    return ws.documents[op_name].base


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
