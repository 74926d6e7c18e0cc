"""The document reader against the reader it replaced (``specfile_oracles``),
which checks each entry by a scan on the canonical form and looks every
name up again to build: section payloads over a small alphabet; the
fixture corpus and ``tests/data``; generated documents, emitted from
random lattices, algebras, Krivine structures, operators on their
powersets and maps between them, read whole, with their rows in a drawn
order and with one or two entries corrupted; and the benchmark's
one-token mutations of the corpus.  Both
readers give equal documents and equal objects, or the same error.  The
generated documents also go through the command line, which keeps its
exit contract on them, alone and with their identity map and identity
interior."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfile_oracles as oracle
from krl.aks import AbstractKrivineStructure
from krl.bridge import PowersetStructure, powerset_algebra
from krl.cli import run_cli
from krl.errors import KrlError
from krl.implicative import ImplicativeAlgebra, ImplicativeStructure
from krl.fixtures import identity_interior
from krl.interior import InteriorOperator
from krl.morphism import DensityCertificate, MorphismSpec, identity_morphism
from krl.order import ExplicitLattice, PowersetLattice
from krl.specfile import (LIST_SECTIONS, UNSORTED_SECTIONS, Workspace, _read_rows,
                          _section_entries, build_aks, build_algebra, build_lattice,
                          document_for, emit_spec, parse_spec)
from specfile_oracles import section_entries

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "fixtures").iterdir()) + sorted((ROOT / "tests" / "data").iterdir())
BUILDERS = {"lattice": build_lattice, "ia": build_algebra, "aks": build_aks}
ALPHABET = ["{", "}", ";", " ", "\x1c", "\u00a0", "\u2028", "->", "a", "b", ":", "<="]
# element names: short, unsorted against their ids, never a literal token
NAMES = st.text(alphabet="ab1_.:<>-", min_size=1, max_size=3).filter(
    lambda s: s not in ("->", "<="))
DOC_NAMES = st.text(alphabet="abXY -1", max_size=5)
# tokens a corruption puts in; '?' is never declared
POOL = ["?", "->", "<=", ";", "{", "}", "{?}", "{}"]


def outcome(fn, *args):
    """What ``fn`` returns, or the class and text of the error it raises."""
    try:
        return fn(*args)
    except KrlError as exc:
        return f"{type(exc).__name__}: {exc}"


def fingerprint(obj):
    """The data of a built lattice, algebra or Krivine structure."""
    if isinstance(obj, AbstractKrivineStructure):
        return (obj.names, obj.perp_rows, obj.push, obj.app, obj.qp, obj.k_elem, obj.s_elem)
    if isinstance(obj, ExplicitLattice):
        return obj.names, obj.up, obj.down
    if isinstance(obj.structure, PowersetStructure):
        return "A", fingerprint(obj.structure.aks)
    return (fingerprint(obj.lattice), obj.structure.rows, obj.separator, obj.k, obj.s)


def read_new(text):
    doc = parse_spec(text)
    built = BUILDERS[doc.kind](doc) if doc.kind in BUILDERS else None
    return oracle.fields(doc), built and fingerprint(built)


def read_old(text):
    doc = oracle.parse_spec(text)
    built = oracle.build(doc) if doc.kind in BUILDERS else None
    return oracle.fields(doc), built and fingerprint(built)


def reads_as_with_the_oracle(text):
    return outcome(read_new, text) == outcome(read_old, text)


@settings(max_examples=400, derandomize=True)
@given(st.lists(st.sampled_from(ALPHABET), max_size=14).map("".join))
def test_the_section_reader_agrees_with_the_scans(payload):
    assert outcome(_section_entries, payload, 7) == outcome(section_entries, payload, 7)


def carriers(max_size):
    return st.lists(NAMES, min_size=1, max_size=max_size, unique=True)


@st.composite
def lattices(draw):
    """Any relation on a carrier: the document format does not check the
    order axioms."""
    names = draw(carriers(5))
    n = len(names)
    return ExplicitLattice(names, [1 << a | draw(st.integers(0, (1 << n) - 1))
                                   for a in range(n)])


@st.composite
def algebras(draw):
    lattice = draw(lattices())
    elems = st.integers(0, lattice.size - 1)
    table = [[draw(elems) for _ in lattice.elements()] for _ in lattice.elements()]
    return ImplicativeAlgebra(ImplicativeStructure(lattice, table), draw(st.sets(elems)),
                              draw(elems), draw(elems))


@st.composite
def krivine_structures(draw):
    names = tuple(draw(carriers(3)))
    m = len(names)
    elems, masks = st.integers(0, m - 1), st.integers(0, (1 << m) - 1)

    def table():
        return tuple(tuple(draw(elems) for _ in names) for _ in names)
    return AbstractKrivineStructure(names, tuple(draw(masks) for _ in names), table(),
                                    table(), draw(masks), draw(elems), draw(elems))


@st.composite
def documents(draw):
    name = draw(DOC_NAMES)
    kind = draw(st.sampled_from(["lattice", "ia", "aks", "ia-powerset", "interior",
                                 "morphism"]))
    if kind == "lattice":
        return document_for(draw(lattices()), name)
    if kind == "ia":
        return document_for(draw(algebras()), name)
    if kind == "aks":
        return document_for(draw(krivine_structures()), name)
    if kind == "ia-powerset":
        return document_for(powerset_algebra(draw(krivine_structures())), name)
    if kind == "interior":
        # subset names are brace tokens
        lattice = PowersetLattice(draw(krivine_structures()).names)
        table = tuple(draw(st.integers(0, lattice.size - 1)) for _ in lattice.elements())
        return document_for(InteriorOperator(lattice, table), name,
                            op_name=draw(st.none() | DOC_NAMES))
    source, target = draw(algebras()), draw(algebras())
    src_elems = st.integers(0, source.lattice.size - 1)
    tgt_elems = st.integers(0, target.lattice.size - 1)
    carrier = tuple(draw(tgt_elems) for _ in source.lattice.elements())
    cert = draw(st.none() | st.builds(
        DensityCertificate.make, tgt_elems, st.dictionaries(tgt_elems, src_elems),
        st.none() | tgt_elems))
    return document_for(MorphismSpec("ia", source, target, carrier, name), name, cert=cert,
                        source_name=draw(DOC_NAMES), target_name=draw(DOC_NAMES))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(documents(), st.data())
def test_emit_then_parse_is_the_identity(doc, data):
    text = emit_spec(doc)
    assert parse_spec(text) == doc
    assert oracle.fields(oracle.parse_spec(text)) == oracle.fields(doc)
    assert emit_spec(parse_spec(text)) == text
    assert reads_as_with_the_oracle(text)
    # the order of the rows is not part of the document
    lines = written(doc, data)
    assert parse_spec("\n".join(lines) + "\n") == doc


def written(doc, data):
    """The lines of the document with the entries of every sorted section
    in a drawn order."""
    lines = emit_spec(doc).splitlines()
    for li in range(1, len(lines)):
        key, payload = lines[li].split(": ", 1)
        if key not in UNSORTED_SECTIONS and payload:
            sep = " " if key in LIST_SECTIONS else " ; "
            lines[li] = f"{key}: " + sep.join(data.draw(st.permutations(payload.split(sep))))
    return lines


def corrupted(doc, data, times=1):
    """The document's text, its rows in a drawn order, with one entry of
    one section corrupted, as many times as asked."""
    lines = written(doc, data)
    for _ in range(times):
        corrupt_a_line(lines, data)
    return "\n".join(lines) + "\n"


def corrupt_a_line(lines, data):
    # the tables, whose check counts pairs, draw about half the corruptions
    tables = [i for i, line in enumerate(lines) if line.startswith(("imp:", "push:", "app:"))]
    li = data.draw(st.sampled_from(tables) if tables and data.draw(st.booleans())
                   else st.integers(1, len(lines) - 1))
    key, payload = lines[li].split(": ", 1)
    sep = " " if key in LIST_SECTIONS else " ; "
    entries = payload.split(sep) if payload else []
    names = sorted({tok for line in lines[1:] for tok in line.split(": ", 1)[1].split()})
    op = data.draw(st.sampled_from(["drop", "repeat", "move", "replace", "insert",
                                    "delete"]))
    if not entries:
        entries, op = ["?"], "insert"
    ei = data.draw(st.integers(0, len(entries) - 1))
    if op == "drop":
        del entries[ei]
    elif op == "repeat":
        entries.insert(ei, entries[ei])
    elif op == "move":
        # another entry's first two tokens: in a table, a second row for
        # one cell and none for another
        other = entries[data.draw(st.integers(0, len(entries) - 1))].split(" ")
        entries[ei] = " ".join(other[:2] + entries[ei].split(" ")[2:])
    else:
        words = entries[ei].split(" ")
        pos = data.draw(st.integers(0, len(words) - 1))
        pool = st.sampled_from(POOL)
        token = data.draw(st.sampled_from(names) | pool if names else pool)
        if op == "replace":
            words[pos] = token
        elif op == "insert":
            words.insert(pos, token)
        else:
            del words[pos]
        entries[ei] = " ".join(words)
    lines[li] = f"{key}: " + sep.join(entries)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(documents(), st.data())
def test_a_corrupted_entry_reads_as_with_the_scans(doc, data):
    assert reads_as_with_the_oracle(corrupted(doc, data))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(documents(), st.data())
def test_two_faults_read_as_with_the_oracle(doc, data):
    # with two faults, the one named is the first in canonical order
    assert reads_as_with_the_oracle(corrupted(doc, data, times=2))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_the_corpus_reads_as_with_the_oracle(path):
    assert reads_as_with_the_oracle(path.read_text(encoding="utf-8"))


def test_the_benchmark_mutations_read_as_with_the_oracle(monkeypatch):
    bench = ROOT / "bench"
    if not bench.is_dir():
        pytest.skip("no bench/ directory")
    monkeypatch.syspath_prepend(str(bench))
    import workloads
    docs = workloads.load_pools()["docs"]
    pool = workloads.mutation_pool(docs)
    assert len(pool) > 100
    for item in pool:
        assert reads_as_with_the_oracle(workloads.mutate(docs, item)), item


@st.composite
def maps(draw):
    """A morphism between algebras with any hint, or an operator on the
    powerset of a Krivine structure, with the carriers its rows read
    against."""
    if draw(st.booleans()):
        lattice = PowersetLattice(draw(krivine_structures()).names)
        table = tuple(draw(st.integers(0, lattice.size - 1)) for _ in lattice.elements())
        return document_for(InteriorOperator(lattice, table), "X"), lattice, lattice
    source, target = draw(algebras()), draw(algebras())
    carrier = tuple(draw(st.integers(0, target.lattice.size - 1))
                    for _ in source.lattice.elements())
    f = MorphismSpec("ia", source, target, carrier, "f")
    src_elems = st.integers(0, source.lattice.size - 1)
    tgt_elems = st.integers(0, target.lattice.size - 1)
    cert = DensityCertificate.make(draw(tgt_elems), draw(st.dictionaries(tgt_elems, src_elems)),
                                   None)
    return document_for(f, "f", cert=cert), source.lattice, target.lattice


@settings(max_examples=300, derandomize=True, deadline=None)
@given(maps(), st.data())
def test_map_rows_read_as_with_the_oracle(item, data):
    # rows name elements of other documents, so they are read when built
    doc, source, target = item
    text = corrupted(doc, data, times=data.draw(st.integers(1, 2)))
    new, old = outcome(parse_spec, text), outcome(oracle.parse_spec, text)
    if isinstance(new, str):
        assert new == old
        return
    carriers = {"map": (source, target), "hint-h": (target, source)}
    for key in ("map", "hint-h") if doc.kind == "morphism" else ("map",):
        src, tgt = carriers[key]
        assert outcome(_read_rows, new, key, src, tgt) == outcome(
            oracle.read_rows, old, key, src.index_of, tgt.index_of)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


def identity_companions(doc):
    """The identity map and the identity interior of what ``doc`` describes,
    as document texts that name it; None for each it has not."""
    if doc.kind not in ("lattice", "ia", "aks"):
        return None, None
    ws = Workspace()
    key = ws.add_text(emit_spec(doc)).display_name
    ws.resolve()
    obj = ws.objects.get(key)
    if isinstance(obj, ImplicativeAlgebra):
        f, lattice = identity_morphism(obj, "ia"), obj.lattice
    elif isinstance(obj, AbstractKrivineStructure):
        f, lattice = identity_morphism(obj, "aks"), PowersetLattice(obj.names)
    else:
        f, lattice = None, obj
    kmap = None if f is None else emit_spec(
        document_for(f, "id", source_name=key, target_name=key))
    return kmap, emit_spec(document_for(identity_interior(lattice), key, op_name="iota"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=documents(), data=st.data())
def test_generated_documents_keep_the_exit_contract(workdir, doc, data):
    # whole and corrupted: 0, 1 or 2 and no exception, and one error line
    # on stderr exactly when the exit is 2; the identity map and interior of
    # the whole document go with the corrupted one too
    path, kmap, kop = (workdir / name for name in ("generated.krl", "id.kmap", "id.kop"))
    companions = identity_companions(doc)
    for companion, text in zip((kmap, kop), companions):
        if text is not None:
            companion.write_text(text, encoding="utf-8")
    commands = [["validate", str(path)], ["adjunction", str(path)],
                ["morphism", "check", "--dense", str(path)]]
    if companions[0] is not None:
        commands[-1].append(str(kmap))
    if companions[1] is not None:
        commands.append(["interior", "change", str(path), str(kop)])
    for text in (emit_spec(doc), corrupted(doc, data)):
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 1, 2)
            lines = err.getvalue().splitlines()
            assert (code == 2) == (len(lines) == 1 and lines[0].startswith("error: ")), (
                argv, text, code, lines)
