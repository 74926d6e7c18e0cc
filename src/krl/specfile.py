"""The declarative text format for structures, operators, and morphisms.

Documents are line oriented: a header line names the kind, then one
section per line as ``key: entry ; entry ; ...``.  Tables must be
complete (every pair present), names resolve against the declared
carrier, and subset-valued elements are written as brace tokens like
``{a b}`` which the tokenizer treats as single names.  Powerset-backed
algebras are stored by their generating Krivine structure and never
expanded.  Emission is canonical (fixed section order, sorted rows), so
parse after emit is the identity and emit after parse is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .aks import AbstractKrivineStructure
from .bridge import PowersetStructure, functor_A_obj
from .errors import IncompleteTable, ParseError, SpecFileError, UnknownElement
from .implicative import ImplicativeAlgebra, ImplicativeStructure
from .interior import InteriorOperator
from .morphism import DensityCertificate, MorphismSpec, table_lattices
from .order import ExplicitLattice, PowersetLattice, bits, positions_of

KIND_SECTIONS = {
    "lattice": ("elements", "order"),
    "ia": ("elements", "order", "imp", "separator", "k", "s"),
    "ia-powerset": ("pi", "perp", "push", "app", "qp", "K", "S"),
    "aks": ("pi", "perp", "push", "app", "qp", "K", "S"),
    "interior": ("map",),
    "morphism": ("map", "hint-h", "hint-t", "hint-r"),
}
UNSORTED_SECTIONS = {"elements", "pi"}
OPTIONAL_SECTIONS = {"hint-h", "hint-t", "hint-r", "order", "perp"}
SINGLETON_SECTIONS = {"k", "s", "K", "S", "hint-t", "hint-r"}
LIST_SECTIONS = {"elements", "pi", "separator", "qp"}
# The entry pattern of each section: "x" is a name, any other word a
# literal token.
ENTRY_SHAPES = {key: ("x",) for keys in KIND_SECTIONS.values() for key in keys} | {
    "order": ("x", "<=", "x"),
    "imp": ("x", "x", "->", "x"),
    "push": ("x", "x", "->", "x"),
    "app": ("x", "x", "->", "x"),
    "map": ("x", "->", "x"),
    "hint-h": ("x", "->", "x"),
    "perp": ("x", "x"),
}
# The document kinds a reference may name: the base of an interior, and
# the endpoints of an ia or aks morphism.
REFERENCE_KINDS = {"interior": ("lattice", "ia", "aks"), "ia": ("ia",), "aks": ("aks",)}
_TOKEN = re.compile(r"\{[^}]*\}|[^\s;{}]+|[;{}]")


@dataclass(frozen=True)
class SpecDocument:
    kind: str                      # lattice | ia | aks | interior | morphism
    name: str | None
    sections: tuple                # ((key, (entry, ...)), ...), entry = token tuple
    subkind: str | None = None     # morphism: ia | aks
    base: str | None = None        # interior: name of the carrier structure
    source_name: str | None = None
    target_name: str | None = None

    def section(self, key):
        for k, entries in self.sections:
            if k == key:
                return entries
        return None

    @property
    def display_name(self) -> str:
        if self.name is not None:
            return self.name
        return f"{self.base}:interior"


def _normalize_sections(kind_key: str, raw: dict) -> tuple:
    """Every section of the kind, in order, an absent one empty."""
    out = []
    for key in KIND_SECTIONS[kind_key]:
        entries = tuple(raw.get(key, ()))
        if key not in UNSORTED_SECTIONS:
            entries = tuple(sorted(entries))
        out.append((key, entries))
    return tuple(out)


def tokenize(payload: str, line_no: int) -> list[str]:
    tokens = _TOKEN.findall(payload)
    for tok in tokens:
        # a brace matches alone only when it has no partner
        if tok == "{":
            raise ParseError("unclosed brace token", line_no, "'}'")
        if tok == "}":
            raise ParseError("unmatched '}'", line_no)
    return tokens


def _split_entries(tokens: list[str]) -> list[list[str]]:
    entries, current = [], []
    for tok in tokens:
        if tok == ";":
            entries.append(current)
            current = []
        else:
            current.append(tok)
    entries.append(current)
    return [e for e in entries if e]


def _section_entries(payload: str, line_no: int) -> list[tuple[str, ...]]:
    """The non-empty entries of a section payload, each a tuple of tokens.
    Without braces a token is a run of non-space characters other than
    ';', so two string splits find them; a brace token may hold ';' and
    spaces, and takes the tokenizer."""
    if "{" in payload or "}" in payload:
        return list(map(tuple, _split_entries(tokenize(payload, line_no))))
    return list(filter(None, map(tuple, map(str.split, payload.split(";")))))


def _quoted(text: str, line_no: int) -> str:
    text = text.strip()
    if not (text.startswith('"') and text.endswith('"') and len(text) >= 2
            and '"' not in text[1:-1]):
        raise ParseError(f"expected a quoted name, got '{text}'", line_no, '"..."')
    return text[1:-1]


def parse_spec(text: str) -> SpecDocument:
    """Parse one document; positions go into the error, completeness and
    name resolution are checked as far as the document is self-contained."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((no, body.strip()))
    if not lines:
        raise ParseError("empty document", 1, "a header line")

    header_no, header = lines[0]
    kind = name = subkind = base = source_name = target_name = None
    if header.startswith("structure "):
        rest = header[len("structure "):]
        parts = rest.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("lattice", "ia", "aks"):
            raise ParseError("bad structure header", header_no,
                             'structure lattice|ia|aks "name"')
        kind = parts[0]
        name = _quoted(parts[1], header_no)
    elif header.startswith("interior"):
        rest = header[len("interior"):].strip()
        if rest.startswith('"'):
            close = rest.find('"', 1)
            if close < 0:
                raise ParseError("bad interior header", header_no)
            name = rest[1:close]
            rest = rest[close + 1:].strip()
        if not rest.startswith("on "):
            raise ParseError("bad interior header", header_no,
                             'interior ["name"] on "base"')
        kind = "interior"
        base = _quoted(rest[3:], header_no)
    elif header.startswith("morphism "):
        rest = header[len("morphism "):]
        parts = rest.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("ia", "aks"):
            raise ParseError("bad morphism header", header_no,
                             'morphism ia|aks "name" from "X" to "Y"')
        kind = "morphism"
        subkind = parts[0]
        tail = parts[1]
        try:
            name_part, tail = tail.split(" from ", 1)
            src_part, tgt_part = tail.split(" to ", 1)
        except ValueError:
            raise ParseError("bad morphism header", header_no,
                             '... from "X" to "Y"') from None
        name = _quoted(name_part, header_no)
        source_name = _quoted(src_part, header_no)
        target_name = _quoted(tgt_part, header_no)
    else:
        raise ParseError(f"unrecognized header '{header}'", header_no,
                         "structure|interior|morphism")

    raw_sections: dict[str, list] = {}
    section_lines: dict[str, int] = {}
    for no, body in lines[1:]:
        if ":" not in body:
            raise ParseError(f"expected 'key: ...', got '{body}'", no)
        key, payload = body.split(":", 1)
        key = key.strip()
        if key in raw_sections:
            raise ParseError(f"duplicate section '{key}'", no)
        raw_sections[key] = _section_entries(payload, no)
        section_lines[key] = no

    kind_key = kind
    if kind == "ia" and "pi" in raw_sections:
        kind_key = "ia-powerset"
    allowed = set(KIND_SECTIONS[kind_key])
    for key in raw_sections:
        if key not in allowed:
            raise ParseError(f"section '{key}' not allowed in a {kind} document",
                             section_lines[key], "/".join(sorted(allowed)))
    shaped = {}
    for key, entries in raw_sections.items():
        if key in LIST_SECTIONS:
            entries = list(zip(chain.from_iterable(entries)))
        shaped[key] = entries
        _check_entry_shapes(key, entries, section_lines[key])
        if key in SINGLETON_SECTIONS and len(entries) != 1:
            raise ParseError(f"section '{key}' takes a single element",
                             section_lines[key])
    if "hint-t" not in shaped and {"hint-h", "hint-r"} & shaped.keys():
        raise ParseError("missing section 'hint-t' for the given hints", header_no)
    for key in KIND_SECTIONS[kind_key]:
        if key not in shaped and key not in OPTIONAL_SECTIONS:
            raise ParseError(f"missing section '{key}'", header_no)

    doc = SpecDocument(kind, name, _normalize_sections(kind_key, shaped),
                       subkind, base, source_name, target_name)
    _validate_document(doc, kind_key)
    return doc


def _column(entries, i) -> set:
    """The tokens at position ``i`` of entries known to be long enough."""
    return set(map(itemgetter(i), entries))


def _check_entry_shapes(key, entries, line_no):
    """Every entry has the section's length and its literal tokens; the
    first entry that does not, in document order, is the error."""
    shape = ENTRY_SHAPES[key]
    literals = [(i, word) for i, word in enumerate(shape) if word != "x"]
    if set(map(len, entries)) <= {len(shape)} and all(
            _column(entries, i) <= {word} for i, word in literals):
        return
    for entry in entries:
        if len(entry) == len(shape) and all(entry[i] == word for i, word in literals):
            continue
        text = " ".join(entry)
        if not literals:
            raise ParseError(f"bad entry in '{key}': {text}", line_no)
        letters = iter("abc")
        expected = " ".join(next(letters) if word == "x" else word for word in shape)
        raise ParseError(f"bad {key} entry: {text}", line_no, expected)


def _validate_document(doc: SpecDocument, kind_key: str) -> None:
    if kind_key in ("lattice", "ia"):
        names = [e[0] for e in doc.section("elements")]
        _check_carrier(names, "elements")
        _check_names(doc, ("order", "imp", "separator", "k", "s"), set(names))
        if kind_key == "ia":
            _check_table(doc, "imp", names, names)
    elif kind_key in ("aks", "ia-powerset"):
        names = [e[0] for e in doc.section("pi")]
        _check_carrier(names, "pi")
        _check_names(doc, ("perp", "push", "app", "qp", "K", "S"), set(names))
        _check_table(doc, "push", names, names)
        _check_table(doc, "app", names, names)


def _check_carrier(names, section):
    if not names:
        raise ParseError(f"'{section}' must declare at least one element")
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate element in '{section}'")


def _check_names(doc, keys, known):
    """Every name slot holds a declared name; the error names the first
    unknown one, by section and then by sorted entry."""
    for key in keys:
        slots = [i for i, word in enumerate(ENTRY_SHAPES[key]) if word == "x"]
        entries = doc.section(key) or ()
        if all(_column(entries, i) <= known for i in slots):
            continue
        for entry in entries:
            for i in slots:
                if entry[i] not in known:
                    raise UnknownElement(entry[i], f"section '{key}'")


def _check_table(doc, key, left_names, right_names):
    """Each pair of names has exactly one entry.  The names are checked
    already, so entries as many as the cells, with distinct pairs, fill
    every cell once; the scan runs only to name the first fault."""
    entries = doc.section(key)
    cells = len(left_names) * len(right_names)
    if len(entries) == cells and len(set(map(itemgetter(0, 1), entries))) == cells:
        return
    seen = set()
    for entry in entries:
        pair = (entry[0], entry[1])
        if pair in seen:
            raise ParseError(f"duplicate {key} entry for {pair[0]} {pair[1]}")
        seen.add(pair)
    missing = [f"{a} {b}" for a in left_names for b in right_names
               if (a, b) not in seen]
    if missing:
        raise IncompleteTable(key, missing)


def emit_spec(doc: SpecDocument) -> str:
    """Canonical rendering; inverse to :func:`parse_spec`."""
    if doc.kind in ("lattice", "ia", "aks"):
        header = f'structure {doc.kind} "{doc.name}"'
    elif doc.kind == "interior":
        header = (f'interior on "{doc.base}"' if doc.name is None
                  else f'interior "{doc.name}" on "{doc.base}"')
    elif doc.kind == "morphism":
        header = (f'morphism {doc.subkind} "{doc.name}" '
                  f'from "{doc.source_name}" to "{doc.target_name}"')
    else:
        raise SpecFileError(f"cannot emit kind '{doc.kind}'")
    out = [header]
    for key, entries in doc.sections:
        if not entries and key in OPTIONAL_SECTIONS:
            continue
        sep = " " if key in LIST_SECTIONS else " ; "
        out.append(f"{key}: " + sep.join(" ".join(e) for e in entries))
    return "\n".join(out) + "\n"


# ------------------------------------------------------- objects <-> docs


def _element_resolver(obj):
    """Name -> id and id -> name for any carrier-bearing object, plus the
    carrier size."""
    if isinstance(obj, AbstractKrivineStructure):
        return obj.index_of, obj.name, obj.pi_size
    lattice = obj.lattice if not isinstance(obj, (ExplicitLattice, PowersetLattice)) else obj
    return lattice.index_of, lattice.name, lattice.size


def _read_rows(doc: SpecDocument, key, source, target) -> dict[int, int]:
    """The ``a -> b`` rows of a section as a dict on the source carrier;
    names resolve through the carriers and a repeated row is an error."""
    src_idx = _element_resolver(source)[0]
    tgt_idx = _element_resolver(target)[0]
    table = {}
    for a, _, b in doc.section(key) or ():
        ia = src_idx(a)
        if ia in table:
            raise ParseError(f"duplicate {key} entry for {a}")
        table[ia] = tgt_idx(b)
    return table


def _read_map(doc: SpecDocument, source, target) -> tuple[int, ...]:
    """The ``map:`` section as a table on the source carrier, with
    missing rows reported by name."""
    table = _read_rows(doc, "map", source, target)
    _, src_name, size = _element_resolver(source)
    missing = [src_name(x) for x in range(size) if x not in table]
    if missing:
        raise IncompleteTable("map", missing)
    return tuple(table[x] for x in range(size))


def _lattice(doc: SpecDocument) -> tuple[ExplicitLattice, dict[str, int]]:
    """The lattice of a lattice or explicit ia document, with its name
    table; the parser has checked every name."""
    names = [e[0] for e in doc.section("elements")]
    idx = positions_of(names)
    pairs = [(idx[a], idx[b]) for a, _, b in doc.section("order") or ()]
    return ExplicitLattice.from_pairs(names, pairs), idx


def _table(entries, idx, n) -> tuple[tuple[int, ...], ...]:
    """The ``a b -> c`` entries of a complete table, as rows of ids."""
    table = [[0] * n for _ in range(n)]
    for a, b, _, c in entries:
        table[idx[a]][idx[b]] = idx[c]
    return tuple(map(tuple, table))


def build_lattice(doc: SpecDocument) -> ExplicitLattice:
    return _lattice(doc)[0]


def build_algebra(doc: SpecDocument):
    if doc.section("pi") is not None:
        return functor_A_obj(build_aks(doc), validate=False).algebra
    lattice, idx = _lattice(doc)
    structure = ImplicativeStructure(lattice, _table(doc.section("imp"), idx, lattice.size))
    separator = frozenset(idx[e[0]] for e in doc.section("separator"))
    return ImplicativeAlgebra(structure, separator,
                              idx[doc.section("k")[0][0]], idx[doc.section("s")[0][0]])


def build_aks(doc: SpecDocument) -> AbstractKrivineStructure:
    names = tuple(e[0] for e in doc.section("pi"))
    idx = positions_of(names)
    n = len(names)
    rows = [0] * n
    for t, pi in doc.section("perp") or ():
        rows[idx[t]] |= 1 << idx[pi]
    qp = 0
    for (e,) in doc.section("qp"):
        qp |= 1 << idx[e]
    return AbstractKrivineStructure(
        names, tuple(rows), _table(doc.section("push"), idx, n),
        _table(doc.section("app"), idx, n),
        qp, idx[doc.section("K")[0][0]], idx[doc.section("S")[0][0]])


def build_interior(doc: SpecDocument, base_obj) -> InteriorOperator:
    """An operator on a lattice, on the lattice of an algebra, or on the
    powerset of a Krivine structure's carrier."""
    if isinstance(base_obj, AbstractKrivineStructure):
        lattice = PowersetLattice(base_obj.names)
    elif isinstance(base_obj, ImplicativeAlgebra):
        lattice = base_obj.lattice
    else:
        lattice = base_obj
    return InteriorOperator(lattice, _read_map(doc, lattice, lattice))


def build_morphism(doc: SpecDocument, src, tgt):
    """Returns the morphism together with any hinted certificate."""
    spec = MorphismSpec(doc.subkind, src, tgt, _read_map(doc, src, tgt), doc.name)

    hint = None
    if doc.section("hint-t"):
        tgt_idx, _, _ = _element_resolver(tgt)
        h = _read_rows(doc, "hint-h", *table_lattices(spec))
        t = doc.section("hint-t")[0][0]
        r_sec = doc.section("hint-r")
        t_id = tgt_idx(t)
        r_id = tgt_idx(r_sec[0][0]) if r_sec else None
        hint = DensityCertificate.make(t_id, h, r_id)
    return spec, hint


def document_for(obj, name: str, **meta) -> SpecDocument:
    """Render a library object as a document."""
    if isinstance(obj, ExplicitLattice):
        sections = {
            "elements": [(n,) for n in obj.names],
            "order": [(obj.names[a], "<=", obj.names[b]) for a, b in obj.pairs()],
        }
        return SpecDocument("lattice", name, _normalize_sections("lattice", sections))
    if isinstance(obj, ImplicativeAlgebra):
        if isinstance(obj.structure, PowersetStructure):
            inner = document_for(obj.structure.aks, name)
            return SpecDocument("ia", name, inner.sections)
        if isinstance(obj.lattice, PowersetLattice):
            raise SpecFileError(
                "powerset algebras are stored by their generating structure")
        L = obj.lattice
        sections = {
            "elements": [(n,) for n in L.names],
            "order": [(L.names[a], "<=", L.names[b]) for a, b in L.pairs()],
            "imp": [(L.names[a], L.names[b], "->", L.names[obj.imp(a, b)])
                    for a in L.elements() for b in L.elements()],
            "separator": [(L.names[x],) for x in sorted(obj.separator)],
            "k": [(L.names[obj.k],)],
            "s": [(L.names[obj.s],)],
        }
        return SpecDocument("ia", name, _normalize_sections("ia", sections))
    if isinstance(obj, AbstractKrivineStructure):
        nm = obj.names
        sections = {
            "pi": [(n,) for n in nm],
            "perp": [(nm[t], nm[pi]) for t in range(obj.pi_size)
                     for pi in bits(obj.perp_rows[t])],
            "push": [(nm[a], nm[b], "->", nm[obj.push[a][b]])
                     for a in range(obj.pi_size) for b in range(obj.pi_size)],
            "app": [(nm[a], nm[b], "->", nm[obj.app[a][b]])
                    for a in range(obj.pi_size) for b in range(obj.pi_size)],
            "qp": [(nm[x],) for x in bits(obj.qp)],
            "K": [(nm[obj.k_elem],)],
            "S": [(nm[obj.s_elem],)],
        }
        return SpecDocument("aks", name, _normalize_sections("aks", sections))
    if isinstance(obj, InteriorOperator):
        L = obj.lattice
        sections = {"map": [(L.name(a), "->", L.name(obj.table[a]))
                            for a in L.elements()]}
        return SpecDocument("interior", meta.get("op_name"),
                            _normalize_sections("interior", sections),
                            base=name)
    if isinstance(obj, MorphismSpec):
        _, src_name, _ = _element_resolver(obj.source)
        _, tgt_name, _ = _element_resolver(obj.target)
        sections = {"map": [(src_name(a), "->", tgt_name(obj.carrier[a]))
                            for a in range(len(obj.carrier))]}
        cert = meta.get("cert")
        if cert is not None:
            h_tgt, h_src = table_lattices(obj)
            sections["hint-h"] = [(h_tgt.name(b), "->", h_src.name(s)) for b, s in cert.h]
            sections["hint-t"] = [(tgt_name(cert.t),)]
            if cert.r is not None:
                sections["hint-r"] = [(tgt_name(cert.r),)]
        return SpecDocument("morphism", name,
                            _normalize_sections("morphism", sections),
                            subkind=obj.kind,
                            source_name=meta.get("source_name", "source"),
                            target_name=meta.get("target_name", "target"))
    raise SpecFileError(f"cannot render a {type(obj).__name__} as a document")


class Workspace:
    """Named documents with cross-references resolved into objects."""

    def __init__(self):
        self.documents: dict[str, SpecDocument] = {}
        self.objects: dict[str, object] = {}
        self.morphism_hints: dict[str, DensityCertificate | None] = {}

    def add_text(self, text: str) -> SpecDocument:
        doc = parse_spec(text)
        key = doc.display_name
        if key in self.documents:
            raise SpecFileError(f"duplicate document name '{key}'")
        self.documents[key] = doc
        return doc

    def add_path(self, path) -> SpecDocument:
        with open(path, encoding="utf-8") as fh:
            return self.add_text(fh.read())

    def resolve(self) -> None:
        for key, doc in self.documents.items():
            if doc.kind == "lattice":
                self.objects[key] = build_lattice(doc)
            elif doc.kind == "ia":
                self.objects[key] = build_algebra(doc)
            elif doc.kind == "aks":
                self.objects[key] = build_aks(doc)
        for key, doc in self.documents.items():
            if doc.kind == "interior":
                base = self._reference(key, doc.base, "interior")
                self.objects[key] = build_interior(doc, base)
            elif doc.kind == "morphism":
                spec, hint = build_morphism(
                    doc, self._reference(key, doc.source_name, doc.subkind),
                    self._reference(key, doc.target_name, doc.subkind))
                self.objects[key] = spec
                self.morphism_hints[key] = hint

    def _reference(self, key: str, name: str, slot: str):
        """The object that document ``key`` names in one of its
        references, refused unless its document is of a kind the slot
        takes."""
        kinds = REFERENCE_KINDS[slot]
        doc = self.documents.get(name)
        if doc is not None and doc.kind not in kinds:
            raise SpecFileError(f"'{key}' refers to '{name}', a document of kind "
                                f"{doc.kind}, where it needs {' or '.join(kinds)}")
        return self._lookup(name)

    def _lookup(self, name: str):
        if name not in self.objects:
            raise UnknownElement(name, "workspace (structure not loaded)")
        return self.objects[name]

    def get(self, name: str):
        return self._lookup(name)
