"""The document reader as it read before it turned names into ids in one
pass, kept as the oracle for ``parse_spec`` and the builders.

``section_entries`` is the character-loop tokenizer followed by the split
on ';' tokens.  ``parse_spec`` reads a document with per-entry scans in
every check, the sections sorted before the names and tables are
checked, and returns an ``OracleDocument`` holding the canonical
sections.  ``build`` turns a structure document into its object by
looking every name up again, and ``read_rows`` reads the ``a -> b``
rows of a map or hint in canonical order.  The one rule added since is
that ``->`` and ``<=`` may not be declared in ``elements:`` or ``pi:``.
"""

from dataclasses import dataclass
from itertools import chain

from krl.aks import AbstractKrivineStructure
from krl.bridge import functor_A_obj
from krl.errors import IncompleteTable, ParseError, UnknownElement
from krl.implicative import ImplicativeAlgebra, ImplicativeStructure
from krl.order import ExplicitLattice
from krl.specfile import (ENTRY_SHAPES, KIND_SECTIONS, LIST_SECTIONS, OPTIONAL_SECTIONS,
                          SINGLETON_SECTIONS, UNSORTED_SECTIONS)


def char_loop_tokenize(payload, line_no):
    """The tokenizer as a character loop: the oracle for the regex."""
    tokens = []
    i, n = 0, len(payload)
    while i < n:
        ch = payload[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            tokens.append(";")
            i += 1
        elif ch == "{":
            j = payload.find("}", i)
            if j < 0:
                raise ParseError("unclosed brace token", line_no, "'}'")
            tokens.append(payload[i:j + 1])
            i = j + 1
        elif ch == "}":
            raise ParseError("unmatched '}'", line_no)
        else:
            j = i
            while j < n and not payload[j].isspace() and payload[j] not in ";{}":
                j += 1
            tokens.append(payload[i:j])
            i = j
    return tokens


def split_entries(tokens):
    entries, current = [], []
    for tok in tokens:
        if tok == ";":
            entries.append(current)
            current = []
        else:
            current.append(tok)
    entries.append(current)
    return [e for e in entries if e]


def section_entries(payload, line_no):
    return [tuple(e) for e in split_entries(char_loop_tokenize(payload, line_no))]


@dataclass(frozen=True)
class OracleDocument:
    kind: str
    name: str | None
    sections: tuple
    subkind: str | None = None
    base: str | None = None
    source_name: str | None = None
    target_name: str | None = None

    def section(self, key):
        for k, entries in self.sections:
            if k == key:
                return entries
        return None


def fields(doc):
    """What a document says: the fields equality compares."""
    return (doc.kind, doc.name, doc.sections, doc.subkind, doc.base, doc.source_name,
            doc.target_name)


def _quoted(text, line_no):
    text = text.strip()
    if not (text.startswith('"') and text.endswith('"') and len(text) >= 2
            and '"' not in text[1:-1]):
        raise ParseError(f"expected a quoted name, got '{text}'", line_no, '"..."')
    return text[1:-1]


def parse_spec(text):
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
        parts = header[len("structure "):].split(None, 1)
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
        parts = header[len("morphism "):].split(None, 1)
        if len(parts) != 2 or parts[0] not in ("ia", "aks"):
            raise ParseError("bad morphism header", header_no,
                             'morphism ia|aks "name" from "X" to "Y"')
        kind = "morphism"
        subkind = parts[0]
        try:
            name_part, tail = parts[1].split(" from ", 1)
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

    raw_sections, section_lines = {}, {}
    for no, body in lines[1:]:
        if ":" not in body:
            raise ParseError(f"expected 'key: ...', got '{body}'", no)
        key, payload = body.split(":", 1)
        key = key.strip()
        if key in raw_sections:
            raise ParseError(f"duplicate section '{key}'", no)
        raw_sections[key] = section_entries(payload, no)
        section_lines[key] = no

    kind_key = "ia-powerset" if kind == "ia" and "pi" in raw_sections else kind
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
        check_entry_shapes(key, entries, section_lines[key])
        if key in SINGLETON_SECTIONS and len(entries) != 1:
            raise ParseError(f"section '{key}' takes a single element", section_lines[key])
    if "hint-t" not in shaped and {"hint-h", "hint-r"} & shaped.keys():
        raise ParseError("missing section 'hint-t' for the given hints", header_no)
    for key in KIND_SECTIONS[kind_key]:
        if key not in shaped and key not in OPTIONAL_SECTIONS:
            raise ParseError(f"missing section '{key}'", header_no)

    sections = tuple(
        (key, tuple(shaped.get(key, ())) if key in UNSORTED_SECTIONS
         else tuple(sorted(shaped.get(key, ()))))
        for key in KIND_SECTIONS[kind_key])
    doc = OracleDocument(kind, name, sections, subkind, base, source_name, target_name)
    if kind_key in ("lattice", "ia"):
        names = [e[0] for e in doc.section("elements")]
        check_carrier(names, "elements")
        check_names(doc, ("order", "imp", "separator", "k", "s"), set(names))
        if kind_key == "ia":
            check_table(doc, "imp", names, names)
    elif kind_key in ("aks", "ia-powerset"):
        names = [e[0] for e in doc.section("pi")]
        check_carrier(names, "pi")
        check_names(doc, ("perp", "push", "app", "qp", "K", "S"), set(names))
        check_table(doc, "push", names, names)
        check_table(doc, "app", names, names)
    return doc


def check_entry_shapes(key, entries, line_no):
    shape = ENTRY_SHAPES[key]
    literals = [(i, word) for i, word in enumerate(shape) if word != "x"]
    for entry in entries:
        if key in ("elements", "pi") and entry[0] in ("->", "<="):
            raise ParseError(f"bad entry in '{key}': {entry[0]} is never a name", line_no)
        if len(entry) == len(shape) and all(entry[i] == word for i, word in literals):
            continue
        text = " ".join(entry)
        if not literals:
            raise ParseError(f"bad entry in '{key}': {text}", line_no)
        letters = iter("abc")
        expected = " ".join(next(letters) if word == "x" else word for word in shape)
        raise ParseError(f"bad {key} entry: {text}", line_no, expected)


def check_carrier(names, section):
    if not names:
        raise ParseError(f"'{section}' must declare at least one element")
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate element in '{section}'")


def check_names(doc, keys, known):
    for key in keys:
        slots = [i for i, word in enumerate(ENTRY_SHAPES[key]) if word == "x"]
        for entry in doc.section(key) or ():
            for i in slots:
                if entry[i] not in known:
                    raise UnknownElement(entry[i], f"section '{key}'")


def check_table(doc, key, left_names, right_names):
    seen = set()
    for entry in doc.section(key):
        pair = (entry[0], entry[1])
        if pair in seen:
            raise ParseError(f"duplicate {key} entry for {pair[0]} {pair[1]}")
        seen.add(pair)
    missing = [f"{a} {b}" for a in left_names for b in right_names
               if (a, b) not in seen]
    if missing:
        raise IncompleteTable(key, missing)


# ------------------------------------------------------------- builders


def _index(names):
    return {name: i for i, name in reversed(list(enumerate(names)))}


def _table(entries, idx, n):
    table = [[0] * n for _ in range(n)]
    for a, b, _, c in entries:
        table[idx[a]][idx[b]] = idx[c]
    return tuple(map(tuple, table))


def build_aks(doc):
    names = tuple(e[0] for e in doc.section("pi"))
    idx, n = _index(names), len(names)
    rows = [0] * n
    for t, pi in doc.section("perp"):
        rows[idx[t]] |= 1 << idx[pi]
    qp = 0
    for (e,) in doc.section("qp"):
        qp |= 1 << idx[e]
    return AbstractKrivineStructure(
        names, tuple(rows), _table(doc.section("push"), idx, n),
        _table(doc.section("app"), idx, n), qp, idx[doc.section("K")[0][0]],
        idx[doc.section("S")[0][0]])


def build(doc):
    """The lattice, algebra or Krivine structure of a structure document."""
    if doc.kind == "aks":
        return build_aks(doc)
    if doc.section("pi") is not None:
        return functor_A_obj(build_aks(doc), validate=False).algebra
    names = [e[0] for e in doc.section("elements")]
    idx = _index(names)
    order = {(a, b) for a, _, b in doc.section("order")}
    lattice = ExplicitLattice.from_leq(
        names, lambda a, b: a == b or (names[a], names[b]) in order)
    if doc.kind == "lattice":
        return lattice
    structure = ImplicativeStructure(lattice, _table(doc.section("imp"), idx, len(names)))
    return ImplicativeAlgebra(structure, frozenset(idx[e[0]] for e in doc.section("separator")),
                              idx[doc.section("k")[0][0]], idx[doc.section("s")[0][0]])


def read_rows(doc, key, source_index, target_index):
    """The ``a -> b`` rows of a section, read in canonical order: the first
    unknown name or repeated row is the error."""
    table = {}
    for a, _, b in doc.section(key) or ():
        ia = source_index(a)
        if ia in table:
            raise ParseError(f"duplicate {key} entry for {a}")
        table[ia] = target_index(b)
    return table
