"""The document reader's per-token scans, kept as oracles for ``parse_spec``.

``section_entries`` is the character-loop tokenizer followed by the split
on ';' tokens, which string splits replaced for payloads without braces.
``check_entry_shapes``, ``check_names`` and ``check_table`` are the
per-entry loops that set operations replaced; ``parse_with_scans`` parses
a document with all four plugged in.
"""

from unittest import mock

from krl import specfile
from krl.errors import IncompleteTable, ParseError, UnknownElement
from krl.specfile import ENTRY_SHAPES


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


def check_entry_shapes(key, entries, line_no):
    shape = ENTRY_SHAPES[key]
    literals = [(i, word) for i, word in enumerate(shape) if word != "x"]
    for entry in entries:
        if len(entry) == len(shape) and all(entry[i] == word for i, word in literals):
            continue
        text = " ".join(entry)
        if not literals:
            raise ParseError(f"bad entry in '{key}': {text}", line_no)
        letters = iter("abc")
        expected = " ".join(next(letters) if word == "x" else word for word in shape)
        raise ParseError(f"bad {key} entry: {text}", line_no, expected)


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


def parse_with_scans(text):
    """``parse_spec`` with the scans in place of the set-level checks."""
    with mock.patch.multiple(specfile, _section_entries=section_entries,
                             _check_entry_shapes=check_entry_shapes,
                             _check_names=check_names, _check_table=check_table):
        return specfile.parse_spec(text)
