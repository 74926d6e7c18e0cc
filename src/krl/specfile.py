"""The declarative text format for structures, operators, and morphisms.

Documents are line oriented: a header line names the kind, then one
section per line as ``key: entry ; entry ; ...``.  Tables must be
complete (every pair present), names resolve against the declared
carrier, and subset-valued elements are written as brace tokens like
``{a b}`` which the tokenizer treats as single names.  Powerset-backed
algebras are stored by their generating Krivine structure and never
expanded.

The reader keeps each section as written, as the token columns of its
entries, and reads a structure document in one pass per section: cheap
tests on the columns decide that nothing is wrong, and its names become
ids there, which the builders take.  Only when a test fails do the
per-entry scans run, on the canonical form, to name the first fault.
The canonical form (fixed section order, sorted rows) is computed when
first read: emission, document equality and error naming read it, so
parse after emit is the identity and emit after parse is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .aks import AbstractKrivineStructure
from .bridge import PowersetStructure, functor_A_obj
from .errors import IncompleteTable, KrlError, ParseError, SpecFileError, UnknownElement
from .implicative import ImplicativeAlgebra, ImplicativeStructure
from .interior import InteriorOperator
from .lazy import lazy
from .morphism import DensityCertificate, MorphismSpec, table_lattices
from .order import ExplicitLattice, PowersetLattice, bits

KIND_SECTIONS = {
    "lattice": ("elements", "order"),
    "ia": ("elements", "order", "imp", "separator", "k", "s"),
    "ia-powerset": ("pi", "perp", "push", "app", "qp", "K", "S"),
    "aks": ("pi", "perp", "push", "app", "qp", "K", "S"),
    "interior": ("map",),
    "morphism": ("map", "hint-h", "hint-t", "hint-r"),
}
STRUCTURE_KINDS = ("lattice", "ia", "aks")
UNSORTED_SECTIONS = {"elements", "pi"}
OPTIONAL_SECTIONS = {"hint-h", "hint-t", "hint-r", "order", "perp"}
SINGLETON_SECTIONS = {"k", "s", "K", "S", "hint-t", "hint-r"}
LIST_SECTIONS = {"elements", "pi", "separator", "qp"}
# The sections that declare a structure's carrier: every other name in a
# structure document is one of theirs.
CARRIER_SECTIONS = ("elements", "pi")
TABLE_SECTIONS = ("imp", "push", "app")
NEVER_NAMES = frozenset(("->", "<="))
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
NAME_SLOTS = {key: tuple(i for i, word in enumerate(shape) if word == "x")
              for key, shape in ENTRY_SHAPES.items()}
LITERALS = {key: tuple((i, word) for i, word in enumerate(shape) if word != "x")
            for key, shape in ENTRY_SHAPES.items()}
# The document kinds a reference may name: the base of an interior, and
# the endpoints of an ia or aks morphism.
REFERENCE_KINDS = {"interior": ("lattice", "ia", "aks"), "ia": ("ia",), "aks": ("aks",)}
_TOKEN = re.compile(r"\{[^}]*\}|[^\s;{}]+|[;{}]")
# an element name that reads back as itself: a brace token or a run of
# characters other than space, ';' and braces, and never holding '#'
_NAME = re.compile(r"\{[^}#]*\}|[^\s;{}#]+")


@dataclass(frozen=True, eq=False)
class SpecDocument:
    """One document.  ``columns`` holds every section of the kind, in
    order, as the token columns of its entries as written: entry j is the
    j-th token of each column, and an absent section has empty columns."""

    kind: str                      # lattice | ia | aks | interior | morphism
    name: str | None
    columns: dict                  # key -> (tokens at position 0, at 1, ...)
    subkind: str | None = None     # morphism: ia | aks
    base: str | None = None        # interior: name of the carrier structure
    source_name: str | None = None
    target_name: str | None = None

    @lazy
    def sections(self) -> tuple:
        """The canonical form: ((key, (entry, ...)), ...), entry = token
        tuple, the entries of every section but a carrier's sorted."""
        out = []
        for key, columns in self.columns.items():
            entries = list(zip(*columns))
            if key not in UNSORTED_SECTIONS:
                entries.sort()
            out.append((key, tuple(entries)))
        return tuple(out)

    @lazy
    def ids(self) -> dict:
        """The sections of a structure document with its names as ids (see
        :func:`_read_ids`).  On a fault, the first one in canonical order is
        the error."""
        ids = _read_ids(self.columns)
        if ids is None:
            _name_first_fault(self)
        return ids

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

    def _fields(self) -> tuple:
        return (self.kind, self.name, self.sections, self.subkind, self.base,
                self.source_name, self.target_name)

    def __eq__(self, other):
        if not isinstance(other, SpecDocument):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def _columns(key, entries) -> tuple:
    """The token columns of entries of the section's length."""
    return tuple(zip(*entries)) or ((),) * len(ENTRY_SHAPES[key])


def _as_columns(kind_key: str, sections: dict) -> dict:
    """Every section of the kind, in order, as columns, an absent one empty."""
    return {key: _columns(key, sections.get(key, ())) for key in KIND_SECTIONS[kind_key]}


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

    raw_sections: dict[str, str | list] = {}
    section_lines: dict[str, int] = {}
    for no, body in lines[1:]:
        if ":" not in body:
            raise ParseError(f"expected 'key: ...', got '{body}'", no)
        key, payload = body.split(":", 1)
        key = key.strip()
        if key in raw_sections:
            raise ParseError(f"duplicate section '{key}'", no)
        # a brace payload is tokenized now, so that its errors come in
        # line order; any other is read with its section's shape below
        braced = "{" in payload or "}" in payload
        raw_sections[key] = _section_entries(payload, no) if braced else payload
        section_lines[key] = no

    kind_key = kind
    if kind == "ia" and "pi" in raw_sections:
        kind_key = "ia-powerset"
    allowed = set(KIND_SECTIONS[kind_key])
    for key in raw_sections:
        if key not in allowed:
            raise ParseError(f"section '{key}' not allowed in a {kind} document",
                             section_lines[key], "/".join(sorted(allowed)))
    columns = {}
    for key, raw in raw_sections.items():
        columns[key] = _section_columns(key, raw, section_lines[key])
        if key in SINGLETON_SECTIONS and len(columns[key][0]) != 1:
            raise ParseError(f"section '{key}' takes a single element",
                             section_lines[key])
    if "hint-t" not in columns and {"hint-h", "hint-r"} & columns.keys():
        raise ParseError("missing section 'hint-t' for the given hints", header_no)
    for key in KIND_SECTIONS[kind_key]:
        if key not in columns and key not in OPTIONAL_SECTIONS:
            raise ParseError(f"missing section '{key}'", header_no)

    doc = SpecDocument(kind, name, {key: columns.get(key) or _columns(key, ())
                                    for key in KIND_SECTIONS[kind_key]},
                       subkind, base, source_name, target_name)
    if kind in STRUCTURE_KINDS:
        doc.ids  # reading them checks every name and table, and keeps them
    return doc


def _section_columns(key, raw, line_no) -> tuple:
    """The token columns of a section, from its payload or, for a brace
    payload, its entries.  A payload without braces is split into tokens
    once: when they fall into entries of the section's length, each but
    the last followed by a lone ';', the columns are cut by stride and the
    literal tokens counted.  Anything else is split into entries and
    checked by :func:`_check_entry_shapes`."""
    if isinstance(raw, str):
        if key in LIST_SECTIONS:
            tokens = raw.replace(";", " ").split()
            if key not in CARRIER_SECTIONS or NEVER_NAMES.isdisjoint(tokens):
                return (tokens,)
        else:
            k, tokens, m = len(ENTRY_SHAPES[key]), raw.split(), raw.count(";") + 1
            if (len(tokens) == (k + 1) * m - 1 and tokens[k::k + 1].count(";") == m - 1
                    and all(tokens[i::k + 1].count(word) == m for i, word in LITERALS[key])):
                return tuple(tokens[i::k + 1] for i in range(k))
        raw = _section_entries(raw, line_no)
    if key in LIST_SECTIONS:
        raw = list(zip(chain.from_iterable(raw)))
    return _check_entry_shapes(key, raw, line_no)


def _check_entry_shapes(key, entries, line_no) -> tuple:
    """The token columns of a section's entries.  Every entry has the
    section's length and its literal tokens, and a carrier declares no
    '->' or '<='; the first entry that fails, in document order, is the
    error."""
    shape, literals = ENTRY_SHAPES[key], LITERALS[key]
    if set(map(len, entries)) <= {len(shape)}:
        columns = _columns(key, entries)
        if all(set(columns[i]) <= {word} for i, word in literals) and (
                key not in CARRIER_SECTIONS or NEVER_NAMES.isdisjoint(columns[0])):
            return columns
    for entry in entries:
        if key in CARRIER_SECTIONS and entry[0] in NEVER_NAMES:
            raise ParseError(f"bad entry in '{key}': {entry[0]} is never a name", line_no)
        if len(entry) == len(shape) and all(entry[i] == word for i, word in literals):
            continue
        text = " ".join(entry)
        if not literals:
            raise ParseError(f"bad entry in '{key}': {text}", line_no)
        letters = iter("abc")
        expected = " ".join(next(letters) if word == "x" else word for word in shape)
        raise ParseError(f"bad {key} entry: {text}", line_no, expected)


def _read_ids(columns) -> dict | None:
    """The sections of a structure document with its names as ids, or None
    when a cheap test fails: the carrier is nonempty and its names
    distinct, every name slot holds one of them, and each table has as
    many entries as cells and fills every cell.  A section maps to the id
    columns of its name slots, and a table to its rows."""
    names = columns["elements" if "elements" in columns else "pi"][0]
    n = len(names)
    if not n or len(set(names)) != n:
        return None
    get = dict(zip(names, range(n))).__getitem__
    try:
        ids = {key: [list(map(get, cols[i])) for i in NAME_SLOTS[key]]
               for key, cols in columns.items() if key not in CARRIER_SECTIONS}
    except KeyError:
        return None
    for key in TABLE_SECTIONS:
        if key in ids:
            ids[key] = _table_rows(*ids[key], n)
            if ids[key] is None:
                return None
    return ids


def _table_rows(left, right, values, n) -> tuple | None:
    """The rows of a table whose n * n entries fill each cell (a, b), so
    each once, or None."""
    if len(values) != n * n:
        return None
    rows = [[None] * n for _ in range(n)]
    for a, b, c in zip(left, right, values):
        rows[a][b] = c
    if any(None in row for row in rows):
        return None
    return tuple(map(tuple, rows))


def _name_first_fault(doc: SpecDocument) -> None:
    """Raise the first fault of a structure document, as the per-entry
    scans find it on the canonical form: the carrier, the names section
    by section, then the tables.  Only a section with an unknown name is
    scanned for it."""
    carrier = "elements" if "elements" in doc.columns else "pi"
    names = doc.columns[carrier][0]
    if not names:
        raise ParseError(f"'{carrier}' must declare at least one element")
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate element in '{carrier}'")
    known = set(names)
    for key, columns in doc.columns.items():
        slots = NAME_SLOTS[key]
        if key == carrier or all(known.issuperset(columns[i]) for i in slots):
            continue
        for entry in doc.section(key):
            for i in slots:
                if entry[i] not in known:
                    raise UnknownElement(entry[i], f"section '{key}'")
    for key in TABLE_SECTIONS:
        if key in doc.columns:
            _check_table(doc.section(key), key, names)


def _check_table(entries, key, names):
    """Each pair of names has exactly one entry: the first repeated pair,
    else the missing ones, are the error."""
    seen = set()
    for entry in entries:
        pair = (entry[0], entry[1])
        if pair in seen:
            raise ParseError(f"duplicate {key} entry for {pair[0]} {pair[1]}")
        seen.add(pair)
    missing = [f"{a} {b}" for a in names for b in names if (a, b) not in seen]
    if missing:
        raise IncompleteTable(key, missing)


def emit_spec(doc: SpecDocument) -> str:
    """Canonical rendering; inverse to :func:`parse_spec`."""
    _check_emitted_names(doc)
    if doc.kind in STRUCTURE_KINDS:
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


def _check_emitted_names(doc: SpecDocument) -> None:
    """Refuse a name that the emitted text would not read back as itself.
    A quoted name holds no '"', '#' or line break, a morphism's name no
    ' from ' and its source's no ' to '.  An element name is one token,
    never '->' or '<=', without '#' or a line break, and a carrier
    declares each once; in a structure document only the carrier is
    checked, since every other name in it is the carrier's."""
    for name, word in ((doc.name, " from "), (doc.base, None),
                       (doc.source_name, " to "), (doc.target_name, None)):
        if name is not None and (
                '"' in name or "#" in name or name.splitlines() not in ([], [name])
                or doc.kind == "morphism" and word is not None and word in name):
            raise SpecFileError(f"cannot emit {name!r} as a document name")
    for key, columns in doc.columns.items():
        if doc.kind in STRUCTURE_KINDS and key not in CARRIER_SECTIONS:
            continue
        for i in NAME_SLOTS[key]:
            for name in columns[i]:
                if not (_NAME.fullmatch(name) and name not in NEVER_NAMES
                        and name.splitlines() == [name]):
                    raise SpecFileError(f"cannot emit {name!r} as an element name")
        if key in CARRIER_SECTIONS and len(set(columns[0])) != len(columns[0]):
            name = next(x for i, x in enumerate(columns[0]) if x in columns[0][:i])
            raise SpecFileError(f"cannot emit {name!r} twice as an element name")


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
    names resolve through the carriers.  On an unknown name or a repeated
    row, the rows are read again in canonical order, where the first one
    is the error."""
    src_idx = _element_resolver(source)[0]
    tgt_idx = _element_resolver(target)[0]
    left, _, right = doc.columns[key]
    try:
        table = dict(zip(map(src_idx, left), map(tgt_idx, right)))
    except KrlError:
        table = {}
    if len(table) == len(left):
        return table
    table = {}
    for a, _, b in doc.section(key):
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


def build_lattice(doc: SpecDocument) -> ExplicitLattice:
    """The lattice of a lattice or explicit ia document, from its ids."""
    return ExplicitLattice.from_pairs(doc.columns["elements"][0], zip(*doc.ids["order"]))


def build_algebra(doc: SpecDocument):
    if "pi" in doc.columns:
        return functor_A_obj(build_aks(doc), validate=False).algebra
    ids = doc.ids
    structure = ImplicativeStructure(build_lattice(doc), ids["imp"])
    [separator], [[k]], [[s]] = ids["separator"], ids["k"], ids["s"]
    return ImplicativeAlgebra(structure, frozenset(separator), k, s)


def build_aks(doc: SpecDocument) -> AbstractKrivineStructure:
    names = tuple(doc.columns["pi"][0])
    ids = doc.ids
    rows = [0] * len(names)
    for t, pi in zip(*ids["perp"]):
        rows[t] |= 1 << pi
    qp = 0
    for e in ids["qp"][0]:
        qp |= 1 << e
    [[k]], [[s]] = ids["K"], ids["S"]
    return AbstractKrivineStructure(names, tuple(rows), ids["push"], ids["app"], qp, k, s)


def build_interior(doc: SpecDocument, base_obj) -> InteriorOperator:
    """An operator on a lattice, on the lattice of an algebra, or on the
    powerset of a Krivine structure's carrier."""
    if isinstance(base_obj, AbstractKrivineStructure):
        lattice = base_obj.powerset
    elif isinstance(base_obj, ImplicativeAlgebra):
        lattice = base_obj.lattice
    else:
        lattice = base_obj
    return InteriorOperator(lattice, _read_map(doc, lattice, lattice))


def build_morphism(doc: SpecDocument, src, tgt):
    """Returns the morphism together with any hinted certificate."""
    spec = MorphismSpec(doc.subkind, src, tgt, _read_map(doc, src, tgt), doc.name)

    hint = None
    [t], [r] = doc.columns["hint-t"], doc.columns["hint-r"]
    if t:
        tgt_idx, _, _ = _element_resolver(tgt)
        h = _read_rows(doc, "hint-h", *table_lattices(spec))
        t_id = tgt_idx(t[0])
        r_id = tgt_idx(r[0]) if r else None
        hint = DensityCertificate.make(t_id, h, r_id)
    return spec, hint


def document_for(obj, name: str, **meta) -> SpecDocument:
    """Render a library object as a document."""
    if isinstance(obj, ExplicitLattice):
        sections = {
            "elements": [(n,) for n in obj.names],
            "order": [(obj.names[a], "<=", obj.names[b]) for a, b in obj.pairs()],
        }
        return SpecDocument("lattice", name, _as_columns("lattice", sections))
    if isinstance(obj, ImplicativeAlgebra):
        if isinstance(obj.structure, PowersetStructure):
            inner = document_for(obj.structure.aks, name)
            return SpecDocument("ia", name, inner.columns)
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
        return SpecDocument("ia", name, _as_columns("ia", sections))
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
        return SpecDocument("aks", name, _as_columns("aks", sections))
    if isinstance(obj, InteriorOperator):
        L = obj.lattice
        sections = {"map": [(L.name(a), "->", L.name(obj.table[a]))
                            for a in L.elements()]}
        return SpecDocument("interior", meta.get("op_name"),
                            _as_columns("interior", sections),
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
                            _as_columns("morphism", sections),
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SpecFileError(f"{path} is not UTF-8 text: {exc.reason} "
                                    f"at byte {exc.start}") from None
        return self.add_text(text)

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
