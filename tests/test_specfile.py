"""Document parsing, canonical emission, and workspace resolution."""

import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krl import specfile
from krl.bridge import functor_A_obj
from krl.cli import run_cli
from krl.errors import (IncompleteTable, ParseError, SpecFileError,
                        UnknownElement)
from krl.fixtures import aks3, heyting3, identity_interior, l2
from krl.implicative import ImplicativeAlgebra, ImplicativeStructure
from krl.interior import InteriorOperator
from krl.morphism import DensityCertificate, MorphismSpec, identity_morphism
from krl.order import ExplicitLattice, PowersetLattice
from krl.specfile import (SpecDocument, Workspace, document_for, emit_spec, parse_spec,
                          tokenize)
from specfile_oracles import char_loop_tokenize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

L2_TEXT = """\
structure ia "L2-classical"
elements: e0 e1
order: e0 <= e1
imp: e0 e0 -> e1 ; e0 e1 -> e1 ; e1 e0 -> e0 ; e1 e1 -> e1
separator: e1
k: e1
s: e1
"""


def test_parse_l2_document():
    doc = parse_spec(L2_TEXT)
    assert doc.kind == "ia" and doc.name == "L2-classical"
    assert [e[0] for e in doc.section("elements")] == ["e0", "e1"]
    assert len(doc.section("imp")) == 4


def test_parse_builds_the_expected_algebra():
    ws = Workspace()
    ws.add_text(L2_TEXT)
    ws.resolve()
    algebra = ws.get("L2-classical")
    reference = l2()
    assert algebra.separator == reference.separator
    assert algebra.structure.imp_table() == reference.structure.imp_table()


def test_missing_imp_pair_is_reported():
    broken = L2_TEXT.replace("imp: e0 e0 -> e1 ; ", "imp: ")
    with pytest.raises(IncompleteTable) as exc:
        parse_spec(broken)
    assert exc.value.section == "imp"
    assert "e0 e0" in exc.value.missing


def test_unknown_element_is_reported():
    with pytest.raises(UnknownElement) as exc:
        parse_spec(L2_TEXT.replace("separator: e1", "separator: e9"))
    assert exc.value.name == "e9"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_spec("structure ia \"x\"\nelements: a\nimp: a a\n")
    assert exc.value.line == 3


def test_unclosed_brace_is_an_error():
    with pytest.raises(ParseError):
        parse_spec('interior on "X"\nmap: {a -> {a}\n')


def _tokens_or_error(fn, payload):
    try:
        return fn(payload, 7)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from(["{", "}", ";", " ", "\x1c", "\u00a0", "\u2028",
                                 "->", "a", "b"]), max_size=12).map("".join))
def test_tokenize_agrees_with_the_char_loop(payload):
    assert _tokens_or_error(tokenize, payload) == _tokens_or_error(char_loop_tokenize, payload)


SHAPE_HEADERS = {
    "lattice": 'structure lattice "x"\n', "ia": 'structure ia "x"\n',
    "aks": 'structure aks "x"\n', "interior": 'interior on "b"\n',
    "morphism": 'morphism ia "f" from "a" to "b"\n',
}


@pytest.mark.parametrize("kind,line,message", [
    ("lattice", "order: e0 e1", "bad order entry: e0 e1 (line 2), expected a <= b"),
    ("ia", "imp: e0 e0 e1", "bad imp entry: e0 e0 e1 (line 2), expected a b -> c"),
    ("aks", "push: a a <= a", "bad push entry: a a <= a (line 2), expected a b -> c"),
    ("aks", "app: a a -> a a", "bad app entry: a a -> a a (line 2), expected a b -> c"),
    ("interior", "map: e0 <= e0", "bad map entry: e0 <= e0 (line 2), expected a -> b"),
    ("morphism", "hint-h: a b", "bad hint-h entry: a b (line 2), expected a -> b"),
    ("aks", "perp: a", "bad entry in 'perp': a (line 2)"),
    ("ia", "k: e0 e1", "bad entry in 'k': e0 e1 (line 2)"),
    ("ia", "s: e0 ; e1", "section 's' takes a single element (line 2)"),
    ("aks", "K: a ; b", "section 'K' takes a single element (line 2)"),
    ("aks", "S: a b", "bad entry in 'S': a b (line 2)"),
    ("morphism", "hint-t: a ; b", "section 'hint-t' takes a single element (line 2)"),
    ("morphism", "hint-r: a b", "bad entry in 'hint-r': a b (line 2)"),
    # as many tokens as whole entries, but a ';' out of place
    ("aks", "perp: a b c ; d", "bad entry in 'perp': a b c (line 2)"),
    ("ia", "k: a b ;", "bad entry in 'k': a b (line 2)"),
])
def test_shape_error_messages(kind, line, message):
    with pytest.raises(ParseError) as exc:
        parse_spec(SHAPE_HEADERS[kind] + line + "\n")
    assert str(exc.value) == message


def test_bad_headers():
    with pytest.raises(ParseError):
        parse_spec('structure widget "x"\n')
    with pytest.raises(ParseError):
        parse_spec('morphism ia "f" of "X"\n')
    with pytest.raises(ParseError):
        parse_spec("")


def test_duplicate_section_rejected():
    with pytest.raises(ParseError):
        parse_spec(L2_TEXT + "separator: e1\n")


def test_roundtrip_on_fixture_corpus():
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        doc = parse_spec(text)
        assert emit_spec(doc) == text, path
        assert parse_spec(emit_spec(doc)) == doc


def test_emit_is_canonical_and_idempotent():
    scrambled = """\
structure ia "L2-classical"
separator: e1
imp: e1 e1 -> e1 ; e0 e1 -> e1 ; e1 e0 -> e0 ; e0 e0 -> e1
s: e1
k: e1
elements: e0 e1
order: e0 <= e1
"""
    doc = parse_spec(scrambled)
    once = emit_spec(doc)
    assert once == L2_TEXT
    assert emit_spec(parse_spec(once)) == once


def test_document_for_roundtrips_each_kind():
    objs = [
        (l2().lattice, "chain"),
        (l2(), "two"),
        (heyting3(), "h3"),
        (aks3(), "k3"),
        (functor_A_obj(aks3()).algebra, "A(k3)"),
    ]
    for obj, name in objs:
        doc = document_for(obj, name)
        assert parse_spec(emit_spec(doc)) == doc


def test_powerset_document_restores_functor_image():
    ws = Workspace()
    ws.add_text(emit_spec(document_for(functor_A_obj(aks3()).algebra, "A3")))
    ws.resolve()
    image = ws.get("A3")
    assert image.structure.aks == aks3()
    assert image.separator == functor_A_obj(aks3()).algebra.separator


def test_interior_document_on_krivine_base_uses_subset_names():
    ws = Workspace()
    ws.add_text(emit_spec(document_for(aks3(), "k3")))
    hat_doc = document_for(
        InteriorOperator(functor_A_obj(aks3()).algebra.lattice,
                         tuple(range(8))), "k3")
    ws.add_text(emit_spec(hat_doc))
    ws.resolve()
    op = ws.get("k3:interior")
    assert op.table == tuple(range(8))


def test_incomplete_interior_map_is_reported_at_resolution():
    ws = Workspace()
    ws.add_text(emit_spec(document_for(l2(), "two")))
    ws.add_text('interior on "two"\nmap: e0 -> e0\n')
    with pytest.raises(IncompleteTable):
        ws.resolve()


def test_morphism_document_resolution_and_hints():
    ws = Workspace()
    ws.add_text(emit_spec(document_for(l2(), "two")))
    ident = identity_morphism(l2(), "ia")
    text = emit_spec(document_for(
        ident, "id", source_name="two", target_name="two",
        cert=DensityCertificate.make(1, {1: 1}, 1)))
    ws.add_text(text)
    ws.resolve()
    spec = ws.get("id")
    assert isinstance(spec, MorphismSpec) and spec.carrier == (0, 1)
    hint = ws.morphism_hints["id"]
    assert hint == DensityCertificate.make(1, {1: 1}, 1)


def test_morphism_with_missing_reference_fails():
    ws = Workspace()
    ws.add_text('morphism ia "f" from "ghost" to "ghost"\nmap: e0 -> e0\n')
    with pytest.raises(UnknownElement):
        ws.resolve()


def test_duplicate_document_names_rejected():
    ws = Workspace()
    ws.add_text(L2_TEXT)
    with pytest.raises(SpecFileError):
        ws.add_text(L2_TEXT)


def test_comments_and_blank_lines_are_ignored():
    commented = "# header comment\n\n" + L2_TEXT.replace(
        "separator: e1", "separator: e1  # the only truth value")
    assert parse_spec(commented) == parse_spec(L2_TEXT)


def test_named_interior_header_roundtrip():
    text = 'interior "hat" on "base"\nmap: e0 -> e0\n'
    doc = parse_spec(text)
    assert doc.name == "hat" and doc.base == "base"
    assert emit_spec(doc) == text


@pytest.mark.parametrize("header", [
    'structure ia "a" "b"',
    'interior on "a" "b"',
    'morphism ia "f" from "a" "b" to "c"',
    'morphism ia "f" from "a" to "b"c"',
])
def test_quoted_names_may_not_hold_a_quote(header):
    with pytest.raises(ParseError) as exc:
        parse_spec(header + "\n")
    assert exc.value.line == 1 and "expected a quoted name" in str(exc.value)


@pytest.mark.parametrize("kind,section", [("lattice", "elements: -> e1\norder: -> <= e1"),
                                           ("aks", "pi: a <=")])
def test_arrows_are_never_declared(kind, section, tmp_path, capsys):
    token = section.split()[1 if kind == "lattice" else 2]
    key = section.split(":")[0]
    message = f"bad entry in '{key}': {token} is never a name (line 2)"
    text = SHAPE_HEADERS[kind] + section + "\n"
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert str(exc.value) == message
    path = tmp_path / "arrows.krl"
    path.write_text(text)
    assert run_cli(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_emission_refuses_a_name_that_does_not_read_back():
    split = ExplicitLattice(["a b", "c"], [0b11, 0b10])
    with pytest.raises(SpecFileError, match="cannot emit 'a b' as an element name"):
        emit_spec(document_for(split, "x"))
    twice = ExplicitLattice(["a", "a"], [0b11, 0b10])
    with pytest.raises(SpecFileError, match="cannot emit 'a' twice as an element name"):
        emit_spec(document_for(twice, "x"))
    for name in ('a"b', "a#b", "a\nb"):
        with pytest.raises(SpecFileError, match=re.escape(f"cannot emit {name!r}")):
            emit_spec(document_for(l2(), name))
    f = identity_morphism(l2(), "ia")
    with pytest.raises(SpecFileError, match="'f from g'"):
        emit_spec(document_for(f, "f from g", source_name="L2", target_name="L2"))
    with pytest.raises(SpecFileError, match="'L to 2'"):
        emit_spec(document_for(f, "f", source_name="L to 2", target_name="L2"))
    # subset names are brace tokens, one token each
    X = aks3()
    text = emit_spec(document_for(identity_interior(PowersetLattice(X.names)), "aks3"))
    assert "{a b}" in text and parse_spec(text).kind == "interior"


NAME_PARTS = ["a", "b", " ", ";", "{", "}", "#", "->", "<=", "\n", "\x1c", "\u00a0", '"',
              " from ", " to "]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(names=st.lists(st.lists(st.sampled_from(NAME_PARTS), max_size=3).map("".join),
                      min_size=1, max_size=3),
       quoted=st.lists(st.lists(st.sampled_from(NAME_PARTS), max_size=3).map("".join),
                       min_size=3, max_size=3))
def test_an_emitted_document_reads_back_or_is_refused(names, quoted):
    lattice = ExplicitLattice(names, [1 << a for a in range(len(names))])
    docs = [document_for(lattice, quoted[0]),
            document_for(identity_interior(lattice), quoted[1], op_name=quoted[0]),
            document_for(MorphismSpec("ia", l2(), l2(), (0, 1), quoted[0]), quoted[0],
                         source_name=quoted[1], target_name=quoted[2])]
    # '->' and '<=' read back in a map row, but no carrier declares them
    declarable = not {"->", "<="} & set(names)
    for doc, names_declarable in zip(docs, (declarable, declarable, True)):
        # refused exactly when the text, emitted anyway, would not read back
        with mock.patch.object(specfile, "_check_emitted_names", lambda doc: None):
            text = emit_spec(doc)
        try:
            reads_back = parse_spec(text) == doc and names_declarable
        except SpecFileError:
            reads_back = False
        try:
            assert emit_spec(doc) == text and reads_back
        except SpecFileError:
            assert not reads_back


def test_repeated_hint_rows_are_refused():
    ws = Workspace()
    for name in ("heyting3.krl", "l2.krl"):
        ws.add_path(FIXTURES / name)
    ws.add_text((FIXTURES / "h3-to-l2.kmap").read_text().replace(
        "hint-h: e1 -> e1", "hint-h: e1 -> e1 ; e1 -> e0"))
    with pytest.raises(ParseError) as exc:
        ws.resolve()
    assert str(exc.value) == "duplicate hint-h entry for e1"


def heyting_chain(n):
    chain = ExplicitLattice.chain(n)
    top = n - 1
    table = [[top if a <= b else b for b in range(n)] for a in range(n)]
    return ImplicativeAlgebra(ImplicativeStructure(chain, table), {top}, top, top)


def test_reading_a_brace_free_document_costs_no_token_scan(tmp_path, count_calls, capsys):
    path = tmp_path / "H24.krl"
    path.write_text(emit_spec(document_for(heyting_chain(24), "H24")))
    counts = count_calls(tokenize, ExplicitLattice.index_of)
    parse_spec(path.read_text())
    assert counts["tokenize"] == 0
    # a brace token takes the tokenizer
    parse_spec((FIXTURES / "aks3-hat.kop").read_text())
    assert counts["tokenize"] == 1
    # resolution reads one name table per carrier: the only names looked
    # up one at a time are the two that apply is given
    assert run_cli(["apply", str(path), "e20", "e11"]) == 0
    assert capsys.readouterr().out == "e11\n"
    assert counts["index_of"] == 2


def test_reading_a_document_sorts_no_section(tmp_path, monkeypatch, capsys):
    # the canonical form serves emission, equality and error naming: the
    # read path builds from the sections as written
    text = emit_spec(document_for(heyting_chain(24), "H24"))
    ws = Workspace()
    doc = ws.add_text(text)
    ws.resolve()
    assert "sections" not in vars(doc)
    assert ws.get("H24").structure.rows == heyting_chain(24).structure.rows
    path = tmp_path / "H24.krl"
    path.write_text(text)

    def sorted_sections(self):
        raise AssertionError("the canonical form was computed")
    monkeypatch.setattr(SpecDocument, "sections", property(sorted_sections))
    assert run_cli(["apply", str(path), "e20", "e11"]) == 0
    assert capsys.readouterr().out == "e11\n"
