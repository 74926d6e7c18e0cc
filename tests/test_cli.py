"""Golden command-line invocations: exit codes and report shapes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from krl import aks, bridge, implicative, interior, morphism, order
from krl.cli import run_cli
from krl.fixtures import aks2, aks3
from krl.interior import change_implication
from krl.specfile import Workspace, document_for, emit_spec

from test_interior import non_invariant_change

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = run_cli([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_l2_passes(capsys):
    code, out, _ = run(capsys, "validate", FIX / "l2.krl")
    assert code == 0
    assert "PASS separator.modus-ponens" in out
    assert "FLAG classical=yes" in out


def test_validate_aks3_passes(capsys):
    code, out, _ = run(capsys, "validate", FIX / "aks3.krl")
    assert code == 0 and "PASS aks.s-axiom" in out


def test_validate_broken_lattice_fails(capsys):
    code, out, _ = run(capsys, "validate", DATA / "bad-antisym.krl")
    assert code == 1
    assert "FAIL order.antisymmetric witness=(e0, e1)" in out


def test_validate_nontransitive_ia_order_reports_the_order(capsys):
    # a five-chain missing e1 <= e3: every meet exists, transitivity fails
    code, out, _ = run(capsys, "validate", DATA / "bad-nontransitive.krl")
    assert code == 1
    assert out == ("report nontransitive:implicative-algebra: FAIL\n"
                   "FAIL order.transitive witness=(e1, e2, e3)\n")


def test_combinators_on_a_nontransitive_order_fail(capsys):
    code, out, _ = run(capsys, "combinators", DATA / "bad-nontransitive.krl")
    assert code == 1
    assert "FAIL order.transitive witness=(e1, e2, e3)" in out
    assert "i = " not in out


def test_ia_order_without_top_fails_cleanly(capsys):
    code, out, err = run(capsys, "validate", DATA / "bad-no-top.krl")
    assert (code, err) == (1, "")
    assert "FAIL order.complete witness={} (no top element)" in out
    code, out, err = run(capsys, "combinators", DATA / "bad-no-top.krl")
    assert (code, err) == (1, "")
    assert "FAIL order.complete" in out


def test_validate_incomplete_table_is_usage_error(capsys):
    code, out, err = run(capsys, "validate", DATA / "bad-imp.krl")
    assert code == 2
    assert "e0 e0" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", FIX / "missing.krl")
    assert code == 2


def test_adjunction_on_l2(capsys):
    code, out, _ = run(capsys, "adjunction", FIX / "l2.krl")
    assert code == 0
    assert "PASS adjunction.triangle-K" in out
    assert "PASS adjunction.triangle-A" in out


def test_adjunction_on_aks3(capsys):
    code, out, _ = run(capsys, "adjunction", FIX / "aks3.krl")
    assert code == 0 and "PASS adjunction.unit-certificate" in out


def test_interior_change_diamond_detects_hypothesis_failure(capsys):
    code, out, _ = run(capsys, "interior", "change", FIX / "diamond.krl",
                       FIX / "diamond-open-x.kop")
    assert code == 1
    assert "HypothesisFailed" in out and "witness=y" in out


def test_interior_change_aks3_hat_passes(capsys, tmp_path):
    out_path = tmp_path / "changed.krl"
    code, out, _ = run(capsys, "interior", "change", FIX / "aks3.krl",
                       FIX / "aks3-hat.kop", "-o", out_path)
    assert code == 0
    assert "PASS change.application-is-closure" in out
    assert "PASS cert.density" in out
    code, out, _ = run(capsys, "validate", out_path)
    assert code == 0


def test_interior_change_without_imp_invariance_passes(capsys, tmp_path):
    # the change verifies, so its report alone is printed, the density
    # certificates (which need imp-invariance) are not, and -o writes it
    base, iota = non_invariant_change()
    (tmp_path / "base.krl").write_text(emit_spec(document_for(base, "base")))
    (tmp_path / "iota.kop").write_text(emit_spec(document_for(iota, "base", op_name="iota")))
    out_path = tmp_path / "changed.krl"
    files = (tmp_path / "base.krl", tmp_path / "iota.kop", "-o", out_path)
    code, out, err = run(capsys, "interior", "change", *files)
    assert (code, err) == (0, "")
    clauses = ("imp.variance", "imp.meet-commutation", "separator.upward-closed",
               "separator.modus-ponens", "separator.has-k", "separator.has-s", "k.bound",
               "s.bound", "law.k-applied", "law.s-applied", "change.application-is-closure")
    flags = {"quasi-implicative": False, "classical": True, "consistent": True,
             "imp-invariance": False}
    assert out == "".join(
        ["report changed-algebra: PASS\n"] + [f"PASS {c}\n" for c in clauses]
        + [f"FLAG {f}={'yes' if v else 'no'}\n" for f, v in flags.items()]
        + [f"wrote {out_path}\n"])
    written = out_path.read_text()
    assert written == emit_spec(document_for(change_implication(base, iota).algebra,
                                             "changed(base)"))
    out_path.unlink()
    code, out, err = run(capsys, "--json", "interior", "change", *files)
    assert (code, err) == (0, f"wrote {out_path}\n")
    [report] = json.loads(out)
    assert (report["name"], report["ok"], report["flags"]) == ("changed-algebra", True, flags)
    assert [(c["clause"], c["passed"]) for c in report["checks"]] == [(c, True) for c in clauses]
    assert out_path.read_text() == written
    code, _, _ = run(capsys, "validate", out_path)
    assert code == 0


def test_interior_approx_prints_operator(capsys):
    code, out, _ = run(capsys, "interior", "approx", FIX / "aks3.krl",
                       FIX / "aks3-hat.kop")
    assert code == 0 and out.startswith("interior")


def test_interior_approx_json_carries_the_operator(capsys):
    # the name, base and map of the operator document the text form prints
    files = (FIX / "aks3.krl", FIX / "aks3-hat.kop")
    code, out, _ = run(capsys, "--json", "interior", "approx", *files)
    assert code == 0
    _, text, _ = run(capsys, "interior", "approx", *files)
    ws = Workspace()
    ws.add_path(files[0])
    name = ws.add_text(text).display_name
    ws.resolve()
    op = ws.objects[name]
    L = op.lattice
    assert json.loads(out) == {"name": "approx(aks3:interior)", "base": "aks3",
                               "map": {L.name(a): L.name(op(a)) for a in L.elements()}}


def test_morphism_check_dense(capsys):
    code, out, _ = run(capsys, "morphism", "check", "--dense",
                       FIX / "h3-to-l2.kmap", FIX / "heyting3.krl", FIX / "l2.krl")
    assert code == 0
    assert "PASS morphism.computationally-dense" in out


def test_morphism_check_without_dense(capsys):
    code, out, _ = run(capsys, "morphism", "check",
                       FIX / "id-l2.kmap", FIX / "l2.krl")
    assert code == 0 and "PASS morphism.uniform-realizer" in out


def test_functor_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "a3.krl"
    code, out, _ = run(capsys, "functor", "A", FIX / "aks3.krl", "-o", out_path)
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "validate", out_path)
    assert code == 0
    code, out, _ = run(capsys, "functor", "K", FIX / "l2.krl", "-o", tmp_path / "k.krl")
    assert code == 0
    code, out, _ = run(capsys, "validate", tmp_path / "k.krl")
    assert code == 0


def test_apply_on_powerset_algebra(capsys, tmp_path):
    out_path = tmp_path / "a3.krl"
    run(capsys, "functor", "A", FIX / "aks3.krl", "-o", out_path)
    code, out, _ = run(capsys, "apply", out_path, "{a}", "{a b}")
    assert code == 0 and out.strip() == "{a b}"


def test_apply_on_l2(capsys):
    code, out, _ = run(capsys, "apply", FIX / "l2.krl", "e1", "e0")
    assert code == 0 and out.strip() == "e0"


def test_combinators_heyting3(capsys):
    code, out, _ = run(capsys, "combinators", FIX / "heyting3.krl")
    assert code == 0
    assert "cc = m" in out and "i = e1" in out


def test_combinators_json(capsys):
    code, out, _ = run(capsys, "--json", "combinators", FIX / "l2.krl")
    assert code == 0
    assert json.loads(out) == {"i": "e1", "k": "e1", "s": "e1",
                               "cc": "e1", "nu": "e1"}


def test_enumerate_lattices(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "lattice", "--size", "4")
    assert code == 0 and "total: 2" in out
    code, out, _ = run(capsys, "enumerate", "--kind", "lattice", "--size", "8")
    assert code == 0 and out.endswith("total: 3637\n")


def test_enumerate_implications(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "imp", "--size", "2")
    assert code == 0 and "total: 6" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_validate_json_output(capsys):
    code, out, _ = run(capsys, "--json", "validate", FIX / "l2.krl")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["ok"] is True
    assert any(c["clause"] == "imp.meet-commutation" for c in payload[0]["checks"])


def test_search_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "0")
    code, out, _ = run(capsys, "morphism", "check", "--dense",
                       FIX / "h3-to-l2.kmap", FIX / "heyting3.krl", FIX / "l2.krl")
    # the hint certificate is verified without search, so the budget does
    # not bite here
    assert code == 0
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "1")
    ident = FIX / "id-l2.kmap"
    code, out, _ = run(capsys, "morphism", "check", "--dense",
                       ident, FIX / "l2.krl")
    assert code == 0  # hinted as well


def test_interior_change_builds_the_changed_algebra_once(capsys, count_calls):
    # the base is a powerset, whose order needs no check (validate_interior
    # and combinator_nu read it); the changed algebra's is checked once
    counts = count_calls(interior.change_implication, implicative.validate_algebra,
                         implicative.combinator_nu, interior.is_alexandroff,
                         order._lattice_report)
    code, out, _ = run(capsys, "interior", "change",
                       FIX / "aks3.krl", FIX / "aks3-hat.kop")
    assert code == 0 and "report changed-algebra: PASS" in out
    assert counts == {"change_implication": 1, "validate_algebra": 1,
                      "combinator_nu": 1, "is_alexandroff": 2, "_lattice_report": 1}


def test_interior_change_checks_the_base_order_once(capsys, count_calls):
    counts = count_calls(order._lattice_report)
    code, _, _ = run(capsys, "interior", "change",
                     FIX / "diamond.krl", FIX / "diamond-open-x.kop")
    assert code == 1
    assert counts == {"_lattice_report": 1}


def test_each_order_is_checked_once_on_an_explicit_base(capsys, count_calls, tmp_path):
    # validate_interior and combinator_nu read the base order, validate_algebra
    # the changed algebra's; `combinators` reads it in _as_algebra and nu
    kop = tmp_path / "h3-id.kop"
    kop.write_text('interior on "H3"\nmap: e0 -> e0 ; m -> m ; e1 -> e1\n')
    counts = count_calls(order._lattice_report, implicative.combinator_nu)
    code, out, _ = run(capsys, "interior", "change", FIX / "heyting3.krl", kop)
    assert code == 0 and "report changed-algebra: PASS" in out
    assert counts == {"_lattice_report": 2, "combinator_nu": 1}
    counts.clear()
    code, out, _ = run(capsys, "combinators", FIX / "heyting3.krl")
    assert code == 0 and "nu = e1" in out
    assert counts == {"_lattice_report": 1, "combinator_nu": 1}


def test_adjunction_builds_the_functor_images_it_reads(capsys, count_calls):
    # A(X) is built unchecked; check_adjunction_instance validates X and A(X)
    counts = count_calls(bridge.functor_A_obj, aks.validate_aks,
                         bridge.functor_K_obj, implicative.validate_algebra)
    code, out, _ = run(capsys, "adjunction", FIX / "aks3.krl")
    assert code == 0 and "PASS adjunction.triangle-A" in out
    assert counts == {"validate_aks": 1, "validate_algebra": 1}


def test_adjunction_on_the_diamond(capsys, count_calls):
    # K(L) of the 4-element diamond was refused at its composite (16 points)
    counts = count_calls(bridge.functor_A_obj, aks.validate_aks,
                         bridge.functor_K_obj, implicative.validate_algebra)
    code, out, _ = run(capsys, "adjunction", FIX / "diamond.krl")
    assert code == 0 and "PASS adjunction.counit-certificate" in out
    assert counts == {"validate_aks": 1, "validate_algebra": 1}


def test_adjunction_reports_an_invalid_structure_by_its_own_clauses(capsys, tmp_path):
    # the structure is validated before its powerset algebra
    doc = _write(tmp_path, "bad.krl",
                 (FIX / "aks3.krl").read_text().replace("qp: a b", "qp: b"))
    code, out, _ = run(capsys, "adjunction", doc)
    assert code == 1
    assert "report aks: FAIL" in out and "FAIL aks.qp-has-k witness=a" in out
    assert out.endswith("FAIL source structure fails validation\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_a_failed_hint_keeps_its_report(capsys, tmp_path):
    text = (FIX / "id-l2.kmap").read_text()
    kmap = _write(tmp_path, "id-l2.kmap", text.replace("hint-h: e1 -> e1", "hint-h: e0 -> e0"))
    code, out, err = run(capsys, "morphism", "check", "--dense", kmap, FIX / "l2.krl")
    assert (code, err) == (1, "")
    dense = out.split("report dense(id-l2): FAIL\n", 1)[1].splitlines()
    assert dense[0] == ("FAIL morphism.computationally-dense "
                        "witness=hinted certificate fails verification")
    assert "FAIL cert.h-total witness={e1}" in dense[1:]


def test_unknown_name_in_aks_morphism_is_a_usage_error(capsys, tmp_path):
    kmap = _write(tmp_path, "bad.kmap", 'morphism aks "f" from "aks3" to "aks3"\n'
                  "map: a -> a ; b -> zz ; c -> c\n")
    code, out, err = run(capsys, "morphism", "check", kmap, FIX / "aks3.krl")
    assert code == 2 and out == ""
    assert err == "error: unknown element 'zz' in the carrier\n"


def test_unknown_hint_name_in_aks_morphism_is_a_usage_error(capsys, tmp_path):
    kmap = _write(tmp_path, "bad.kmap", 'morphism aks "f" from "aks3" to "aks3"\n'
                  "map: a -> a ; b -> b ; c -> c\nhint-t: zz\n")
    code, _, err = run(capsys, "morphism", "check", "--dense", kmap, FIX / "aks3.krl")
    assert code == 2 and err.startswith("error: unknown element 'zz'")


def test_duplicate_morphism_rows_are_rejected(capsys, tmp_path):
    kmap = _write(tmp_path, "dup.kmap",
                  'morphism ia "dup" from "L2-classical" to "L2-classical"\n'
                  "map: e0 -> e0 ; e1 -> e1 ; e1 -> e0\n")
    code, _, err = run(capsys, "morphism", "check", kmap, FIX / "l2.krl")
    assert code == 2 and "duplicate map entry for e1" in err


def test_missing_morphism_rows_are_named(capsys, tmp_path):
    kmap = _write(tmp_path, "short.kmap",
                  'morphism ia "short" from "L2-classical" to "L2-classical"\n'
                  "map: e0 -> e0\n")
    code, _, err = run(capsys, "morphism", "check", kmap, FIX / "l2.krl")
    assert code == 2 and "missing entries for: e1" in err


def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    # UTF-16 text: its byte order mark is no UTF-8 sequence
    path = tmp_path / "bin.krl"
    path.write_bytes(b"\xff\xfe" + (FIX / "l2.krl").read_text().encode("utf-16-le"))
    message = f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"
    assert run(capsys, "validate", path) == (2, "", message)
    assert run(capsys, "--json", "validate", FIX / "l2.krl", path) == (2, "", message)
    assert run(capsys, "apply", path, "e0", "e1") == (2, "", message)


def test_a_map_whose_document_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    # the structure a .kmap references, cut inside a two-byte character
    text = (FIX / "l2.krl").read_bytes()
    path = tmp_path / "l2.krl"
    path.write_bytes(text + "\u00e9".encode()[:1])
    code, out, err = run(capsys, "morphism", "check", "--dense", FIX / "id-l2.kmap", path)
    assert (code, out, err) == (
        2, "", f"error: {path} is not UTF-8 text: unexpected end of data at byte {len(text)}\n")
    path.write_bytes(text[:10] + b"\xe9" + text[10:])
    code, out, err = run(capsys, "morphism", "check", FIX / "id-l2.kmap", path)
    assert (code, out, err) == (
        2, "", f"error: {path} is not UTF-8 text: invalid continuation byte at byte 10\n")


def test_non_integer_search_budget_is_a_usage_error(capsys, monkeypatch, tmp_path):
    kmap = _write(tmp_path, "search.kmap",
                  'morphism ia "collapse" from "H3" to "L2-classical"\n'
                  "map: e0 -> e0 ; e1 -> e1 ; m -> e1\n")
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "abc")
    code, _, err = run(capsys, "morphism", "check", "--dense", kmap,
                       FIX / "heyting3.krl", FIX / "l2.krl")
    assert code == 2
    assert err == "error: KRL_SEARCH_BUDGET must be an integer, got 'abc'\n"


def test_negative_enumerate_size_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--kind", "imp", "--size", "-1")
    assert code == 2 and out == "" and "must not be negative" in err


def test_every_kind_lists_nothing_at_size_zero(capsys):
    # no complete lattice has 0 elements; the 1-element chain has one of each
    for kind, one in (("lattice", "(discrete order)"), ("imp", "e0 e0 -> e0"),
                      ("interior", "e0 -> e0")):
        assert run(capsys, "enumerate", "--kind", kind, "--size", "0") == (0, "total: 0\n", "")
        assert run(capsys, "enumerate", "--kind", kind, "--size", "1") == (
            0, f"{kind} 1: {one}\ntotal: 1\n", "")


def test_enumerate_interiors_text_is_unchanged_at_ten(capsys):
    # the digest of the text that the scan over all 2^10 subsets printed
    code, out, err = run(capsys, "enumerate", "--kind", "interior", "--size", "10")
    assert (code, err) == (0, "")
    assert out.endswith("total: 512\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "261fa45515c66455be12ef91440977ae0f353b483c0ad0b885d3702a1ae6b4ac")


def test_apply_checks_the_order(capsys):
    # e1 and e2 have a meet, but the order has no top
    code, out, err = run(capsys, "apply", DATA / "bad-no-top.krl", "e1", "e2")
    assert (code, err) == (1, "")
    assert "FAIL order.complete witness={} (no top element)" in out
    assert "e0" not in out.splitlines()


@pytest.mark.parametrize("subcommand", ["approx", "change"])
def test_interior_on_an_order_without_top_fails_cleanly(capsys, tmp_path, subcommand):
    kop = _write(tmp_path, "id.kop", 'interior on "notop"\n'
                 "map: e0 -> e0 ; e1 -> e1 ; e2 -> e2\n")
    code, out, err = run(capsys, "interior", subcommand, DATA / "bad-no-top.krl", kop)
    assert (code, err) == (1, "")
    assert out.startswith("report interior: FAIL\n")
    assert "FAIL order.complete witness={} (no top element)" in out
    assert "interior.deflationary" not in out


# the identity of each order that fails its check, its first failed clause
# with its witness, and a hint over its separator
NON_LATTICES = {
    "bad-nontransitive.krl": ("nontransitive", 5, "order.transitive", "(e1, e2, e3)", "e4"),
    "bad-no-top.krl": ("notop", 3, "order.complete", "{} (no top element)", "e1"),
}


@pytest.mark.parametrize("hinted", [False, True], ids=["unhinted", "hinted"])
@pytest.mark.parametrize("data", sorted(NON_LATTICES))
def test_dense_check_of_a_map_on_a_non_lattice_fails_its_order(capsys, tmp_path, data,
                                                               hinted):
    # the reports stop at the failed order clause, each lattice listed once
    name, n, clause, witness, top = NON_LATTICES[data]
    points = " ; ".join(f"e{i} -> e{i}" for i in range(n))
    hints = f"hint-h: {top} -> {top}\nhint-t: {top}\nhint-r: {top}\n" if hinted else ""
    kmap = _write(tmp_path, "idnt.kmap", f'morphism ia "idnt" from "{name}" to "{name}"\n'
                  f"map: {points}\n{hints}")
    failure = "hinted certificate fails verification" if hinted else "no certificate found"
    code, out, err = run(capsys, "morphism", "check", "--dense", kmap, DATA / data)
    assert (code, err) == (1, "")
    assert out == (f"report applicative(idnt): FAIL\nFAIL {clause} witness={witness}\n"
                   f"report dense(idnt): FAIL\n"
                   f"FAIL morphism.computationally-dense witness={failure}\n"
                   + (f"FAIL {clause} witness={witness}\n" if hinted else ""))
    code, out, err = run(capsys, "--json", "morphism", "check", "--dense", kmap, DATA / data)
    order = {"clause": clause, "passed": False, "witness": witness, "note": None}
    dense = {"clause": "morphism.computationally-dense", "passed": False,
             "witness": failure, "note": None}
    assert (code, err) == (1, "")
    assert json.loads(out) == [
        {"name": "applicative(idnt)", "ok": False, "checks": [order], "flags": {}},
        {"name": "dense(idnt)", "ok": False, "checks": [dense] + [order] * hinted,
         "flags": {}}]


def test_a_map_between_two_non_lattices_lists_each_order(capsys, tmp_path):
    kmap = _write(tmp_path, "m.kmap", 'morphism ia "m" from "nontransitive" to "notop"\n'
                  "map: e0 -> e0 ; e1 -> e1 ; e2 -> e1 ; e3 -> e1 ; e4 -> e1\n")
    code, out, err = run(capsys, "morphism", "check", "--dense", kmap,
                         DATA / "bad-nontransitive.krl", DATA / "bad-no-top.krl")
    assert (code, err) == (1, "")
    assert out.splitlines()[:3] == ["report applicative(m): FAIL",
                                    "FAIL order.transitive witness=(e1, e2, e3)",
                                    "FAIL order.complete witness={} (no top element)"]
    code, out, err = run(capsys, "validate", kmap,
                         DATA / "bad-nontransitive.krl", DATA / "bad-no-top.krl")
    assert code == 1 and "report m:applicative(m): FAIL\nFAIL order.transitive" in out


def test_json_report_of_an_invalid_source(capsys):
    code, out, err = run(capsys, "--json", "combinators", DATA / "bad-nontransitive.krl")
    assert (code, err) == (1, "")
    (payload,) = json.loads(out)
    assert payload["ok"] is False
    assert {"clause": "order.transitive", "passed": False,
            "witness": "(e1, e2, e3)", "note": None} in payload["checks"]


def _unhinted(tmp_path, kmap):
    lines = (FIX / kmap).read_text().splitlines(keepends=True)
    return _write(tmp_path, kmap, "".join(l for l in lines if not l.startswith("hint-")))


def test_dense_search_runs_the_aks_applicativity_check_once(capsys, tmp_path, count_calls):
    counts = count_calls(morphism._applicative_aks)
    kmap = _write(tmp_path, "id.kmap", 'morphism aks "id" from "aks3" to "aks3"\n'
                  "map: a -> a ; b -> b ; c -> c\n")
    code, out, _ = run(capsys, "morphism", "check", "--dense", kmap, FIX / "aks3.krl")
    assert code == 0 and "PASS cert.density" in out
    assert counts == {"_applicative_aks": 1}


def test_dense_search_has_one_entry(capsys, tmp_path, monkeypatch, count_calls):
    # an unhinted map is searched through check_comp_dense, a hinted one
    # only verified; a bad budget still stops a map that is not applicative
    counts = count_calls(morphism.check_comp_dense)
    kmap = _write(tmp_path, "aks3-id.kmap", 'morphism aks "id" from "aks3" to "aks3"\n'
                  "map: a -> a ; b -> b ; c -> c\n")
    code, out, _ = run(capsys, "morphism", "check", "--dense", kmap, FIX / "aks3.krl")
    assert code == 0 and "PASS cert.density" in out
    assert counts == {"check_comp_dense": 1}
    code, out, _ = run(capsys, "morphism", "check", "--dense",
                       FIX / "id-l2.kmap", FIX / "l2.krl")
    assert code == 0 and "PASS cert.density" in out
    assert counts == {"check_comp_dense": 1}
    const = _write(tmp_path, "const.kmap",
                   'morphism ia "const" from "L2-classical" to "L2-classical"\n'
                   "map: e0 -> e0 ; e1 -> e0\n")
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "abc")
    code, out, err = run(capsys, "morphism", "check", "--dense", const, FIX / "l2.krl")
    assert (code, out) == (2, "")
    assert err == "error: KRL_SEARCH_BUDGET must be an integer, got 'abc'\n"
    assert counts == {"check_comp_dense": 2}


def test_dense_search_finds_the_ia_realizer_once(capsys, tmp_path, count_calls):
    counts = count_calls(morphism._applicative_realizer)
    kmap = _unhinted(tmp_path, "h3-to-l2.kmap")
    code, out, _ = run(capsys, "morphism", "check", "--dense", kmap,
                       FIX / "heyting3.krl", FIX / "l2.krl")
    assert code == 0 and "PASS cert.density" in out
    assert counts == {"_applicative_realizer": 1}


def test_bad_search_budget_is_read_before_applicativity(capsys, monkeypatch, tmp_path):
    kmap = _write(tmp_path, "const.kmap",
                  'morphism ia "const" from "L2-classical" to "L2-classical"\n'
                  "map: e0 -> e0 ; e1 -> e0\n")
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "abc")
    code, out, err = run(capsys, "morphism", "check", "--dense", kmap, FIX / "l2.krl")
    assert (code, out) == (2, "")
    assert err == "error: KRL_SEARCH_BUDGET must be an integer, got 'abc'\n"


VALIDATE = ["validate", None]


@pytest.mark.parametrize("fixture,old,new,argv,error", [
    ("l2.krl", "order: e0 <= e1", "order: e0 <= <=", VALIDATE,
     "error: unknown element '<=' in section 'order'\n"),
    ("aks2.krl", "perp: b a", "perp: b ->", VALIDATE,
     "error: unknown element '->' in section 'perp'\n"),
    ("aks2.krl", "a a -> a ;", "a a -> -> ;", VALIDATE,
     "error: unknown element '->' in section 'push'\n"),
    ("l2.krl", "e0 e0 -> e1", "e0 e0 -> ->", VALIDATE,
     "error: unknown element '->' in section 'imp'\n"),
    ("l2.krl", "k: e1", "k:", VALIDATE,
     "error: section 'k' takes a single element (line 6)\n"),
    ("aks2.krl", "K: b", "K:", VALIDATE,
     "error: section 'K' takes a single element (line 7)\n"),
    ("id-l2.kmap", "hint-t: e1", "hint-t:",
     ["morphism", "check", "--dense", None, FIX / "l2.krl"],
     "error: section 'hint-t' takes a single element (line 4)\n"),
    ("id-l2.kmap", "hint-t: e1\n", "",
     ["morphism", "check", "--dense", None, FIX / "l2.krl"],
     "error: missing section 'hint-t' for the given hints (line 1)\n"),
    ("id-l2.kmap", "hint-h: e1 -> e1", "hint-h: e1 -> e1 ; e1 -> e0",
     ["morphism", "check", "--dense", None, FIX / "l2.krl"],
     "error: duplicate hint-h entry for e1\n"),
    ("l2.krl", '"L2-classical"', '"L2" "classical"', VALIDATE,
     'error: expected a quoted name, got \'"L2" "classical"\' (line 1), expected "..."\n'),
    ("aks3-hat.kop", '"aks3"', '"aks" "3"', VALIDATE,
     'error: expected a quoted name, got \'"aks" "3"\' (line 1), expected "..."\n'),
    ("id-l2.kmap", '"id-l2"', '"id"l2"', ["morphism", "check", None, FIX / "l2.krl"],
     'error: expected a quoted name, got \'"id"l2"\' (line 1), expected "..."\n'),
], ids=["order-slot", "perp-slot", "push-slot", "imp-slot", "empty-k", "empty-K",
        "empty-hint-t", "hints-without-hint-t", "repeated-hint-h", "quote-in-structure-name",
        "quote-in-interior-base", "quote-in-morphism-name"])
def test_malformed_entries_are_usage_errors(capsys, tmp_path, fixture, old, new, argv, error):
    text = (FIX / fixture).read_text()
    assert old in text
    path = _write(tmp_path, fixture, text.replace(old, new, 1))
    code, out, err = run(capsys, *[path if a is None else a for a in argv])
    assert (code, out, err) == (2, "", error)


def test_interior_change_on_a_lattice_base_is_a_usage_error(capsys, tmp_path):
    base = _write(tmp_path, "chain.krl",
                  'structure lattice "chain"\nelements: e0 e1\norder: e0 <= e1\n')
    kop = _write(tmp_path, "id.kop", 'interior on "chain"\nmap: e0 -> e0 ; e1 -> e1\n')
    code, out, err = run(capsys, "interior", "change", base, kop)
    assert (code, out) == (2, "")
    assert err == "error: 'chain' does not describe an algebra\n"


def test_enumerate_interiors_on_the_three_chain(capsys):
    code, out, err = run(capsys, "enumerate", "--kind", "interior", "--size", "3")
    assert (code, err) == (0, "")
    assert out == ("interior 1: e0 -> e0 ; e1 -> e0 ; e2 -> e0\n"
                   "interior 2: e0 -> e0 ; e1 -> e1 ; e2 -> e1\n"
                   "interior 3: e0 -> e0 ; e1 -> e0 ; e2 -> e2\n"
                   "interior 4: e0 -> e0 ; e1 -> e1 ; e2 -> e2\n"
                   "total: 4\n")


def test_validate_a_morphism_document(capsys):
    # the morphism gets its applicativity report, the structure its own
    code, out, err = run(capsys, "validate", FIX / "id-l2.kmap", FIX / "l2.krl")
    assert (code, err) == (0, "")
    assert out.startswith("report id-l2:applicative(id-l2): PASS\n"
                          "PASS morphism.separator-preservation\n"
                          "PASS morphism.meet-preservation\n"
                          "PASS morphism.uniform-realizer\n"
                          "report L2-classical:implicative-algebra: PASS\n")


def test_exhausted_search_budget_is_inconclusive(capsys, monkeypatch, tmp_path):
    kmap = _write(tmp_path, "id.kmap", 'morphism aks "id" from "aks3" to "aks3"\n'
                  "map: a -> a ; b -> b ; c -> c\n")
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "1")
    code, out, err = run(capsys, "morphism", "check", "--dense", kmap, FIX / "aks3.krl")
    assert (code, err) == (2, "")
    assert out == "INCONCLUSIVE certificate search exceeded its budget after 2 nodes\n"


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("krl ")]


def test_readme_commands_exit_zero(capsys, monkeypatch, tmp_path):
    # run in a temporary directory, where the outputs (-o) land
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        argv = [ROOT / a if a.startswith("fixtures/") else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_adjunction_on_a_powerset_algebra_reads_its_structure(capsys, tmp_path, count_calls):
    # an ia document written with Krivine sections carries its X: the
    # check pairs A(X) with X, not with the 2^m points of K(A(X))
    full = aks.full_polarity_aks(5)
    as_ia = _write(tmp_path, "ia.krl",
                   emit_spec(document_for(bridge.powerset_algebra(full), "X")))
    as_aks = _write(tmp_path, "aks.krl", emit_spec(document_for(full, "X")))
    assert as_ia.read_text().startswith('structure ia "X"\npi: ')
    counts = count_calls(bridge.krivine_structure)
    code, out, _ = run(capsys, "adjunction", as_ia)
    assert code == 0 and counts["krivine_structure"] == 0
    assert (code, out) == run(capsys, "adjunction", as_aks)[:2]


def test_adjunction_on_an_invalid_powerset_algebra_reports_its_structure(capsys, tmp_path):
    text = (FIX / "aks3.krl").read_text().replace("qp: a b", "qp: b")
    as_aks = _write(tmp_path, "aks.krl", text)
    as_ia = _write(tmp_path, "ia.krl", text.replace("structure aks", "structure ia"))
    code, out, _ = run(capsys, "adjunction", as_ia)
    assert code == 1 and "FAIL aks.qp-has-k witness=a" in out
    assert (code, out) == run(capsys, "adjunction", as_aks)[:2]


def test_aks_certificates_survive_the_document_format(capsys, tmp_path):
    # a found certificate on the aks3 identity and on each map aks2 -> aks3
    # that has one comes back from its emitted document and verifies there
    maps = [morphism.identity_morphism(aks3(), "aks")] + [
        morphism.MorphismSpec("aks", aks2(), aks3(), carrier)
        for carrier in product(range(3), repeat=2)]
    found = [(f, morphism.check_comp_dense(f)) for f in maps]
    found = [(f, cert) for f, cert in found if cert is not None]
    assert len(found) == 7
    for f, cert in found:
        source = "aks3" if f.source.pi_size == 3 else "aks2"
        text = emit_spec(document_for(f, "f", cert=cert, source_name=source,
                                      target_name="aks3"))
        if source == "aks2":
            assert "\nhint-h: {a b} -> {a} ; {a} -> {a} ; {b} -> {a} ; {} -> {a}\n" in text
        ws = Workspace()
        for path in (FIX / "aks2.krl", FIX / "aks3.krl"):
            ws.add_path(path)
        ws.add_text(text)
        ws.resolve()
        assert ws.morphism_hints["f"] == cert
        kmap = _write(tmp_path, "f.kmap", text)
        code, out, _ = run(capsys, "morphism", "check", "--dense", kmap,
                           FIX / "aks2.krl", FIX / "aks3.krl")
        assert code == 0 and "PASS cert.density" in out


JSON_RUNS = {  # OUT and UNHINTED stand for files in the test's directory
    "validate": (0, ["validate", FIX / "l2.krl", FIX / "aks3.krl"]),
    "validate-fail": (1, ["validate", DATA / "bad-antisym.krl"]),
    "combinators": (0, ["combinators", FIX / "heyting3.krl"]),
    "apply": (0, ["apply", FIX / "heyting3.krl", "m", "e1"]),
    "functor-A": (0, ["functor", "A", FIX / "aks3.krl", "-o", "OUT"]),
    "functor-K": (0, ["functor", "K", FIX / "l2.krl", "-o", "OUT"]),
    "adjunction": (0, ["adjunction", FIX / "diamond.krl"]),
    "morphism": (0, ["morphism", "check", FIX / "h3-to-l2.kmap", FIX / "heyting3.krl",
                     FIX / "l2.krl"]),
    "morphism-dense": (0, ["morphism", "check", "--dense", FIX / "h3-to-l2.kmap",
                           FIX / "heyting3.krl", FIX / "l2.krl"]),
    "morphism-inconclusive": (2, ["morphism", "check", "--dense", "UNHINTED",
                                  FIX / "aks3.krl"]),
    "interior-approx": (0, ["interior", "approx", FIX / "aks3.krl", FIX / "aks3-hat.kop"]),
    "interior-change": (0, ["interior", "change", FIX / "aks3.krl", FIX / "aks3-hat.kop",
                            "-o", "OUT"]),
    "interior-hypothesis": (1, ["interior", "change", FIX / "diamond.krl",
                                FIX / "diamond-open-x.kop"]),
    "enumerate-lattice": (0, ["enumerate", "--kind", "lattice", "--size", "4"]),
    "enumerate-imp": (0, ["enumerate", "--kind", "imp", "--size", "2"]),
    "enumerate-none": (0, ["enumerate", "--kind", "interior", "--size", "0"]),
}


@pytest.mark.parametrize("case", JSON_RUNS)
def test_json_output_is_one_json_value(case, capsys, tmp_path, monkeypatch):
    code, argv = JSON_RUNS[case]
    files = {"OUT": tmp_path / "out.krl",
             "UNHINTED": _write(tmp_path, "id.kmap", 'morphism aks "id" from "aks3" to "aks3"\n'
                                "map: a -> a ; b -> b ; c -> c\n")}
    monkeypatch.setenv("KRL_SEARCH_BUDGET", "1")  # the unhinted search runs out
    got, out, _ = run(capsys, "--json", *(files.get(a, a) for a in argv))
    assert got == code
    json.loads(out)
    assert ("OUT" in argv) == (tmp_path / "out.krl").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for code, argv in ((0, ["validate", FIX / "l2.krl"]),
                       (1, ["validate", DATA / "bad-antisym.krl"]),
                       (2, ["validate", tmp_path / "missing.krl"])):
        done = subprocess.run([sys.executable, "-m", "krl", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, done.stderr
