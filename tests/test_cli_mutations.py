"""One-token mutations of the document corpus keep the CLI contract: every
command ends in 0 (pass), 1 (a check failed) or 2 (usage, parse or
inconclusive), never in an exception."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krl.cli import run_cli
from krl.specfile import parse_spec

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
CORPUS = sorted(FIX.iterdir()) + sorted((ROOT / "tests" / "data").iterdir())
STRUCTURES = {parse_spec(p.read_text()).name: p for p in FIX.glob("*.krl")}
POOL = ["{", "}", ";", "->", "<=", "zz"]


def commands(path, original):
    """The commands that read ``path``, with the unmutated documents it
    references; ``None`` stands for the mutated file."""
    if path.suffix == ".krl":
        return [[cmd, None] for cmd in ("validate", "combinators", "adjunction")]
    doc = parse_spec(original)
    if path.suffix == ".kop":
        return [["interior", sub, STRUCTURES[doc.base], None] for sub in ("approx", "change")]
    refs = dict.fromkeys([STRUCTURES[doc.source_name], STRUCTURES[doc.target_name]])
    return [["morphism", "check", "--dense", None, *refs]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_token_mutations_keep_the_exit_contract(workdir, data):
    path = data.draw(st.sampled_from(CORPUS))
    original = path.read_text()
    lines = [line.split(" ") for line in original.splitlines()]
    words = lines[data.draw(st.integers(0, len(lines) - 1))]
    pos = data.draw(st.integers(0, len(words) - 1))
    token = data.draw(st.sampled_from(POOL + sorted({w for l in lines for w in l})))
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if op == "replace":
        words[pos] = token
    elif op == "delete":
        del words[pos]
    else:
        words.insert(pos, token)
    mutated = workdir / f"mutated{path.suffix}"
    mutated.write_text("\n".join(" ".join(line) for line in lines) + "\n")

    argv = data.draw(st.sampled_from(commands(path, original)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli([str(mutated if a is None else a) for a in argv])
    assert code in (0, 1, 2)
