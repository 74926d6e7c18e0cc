"""Every reference slot of a document against every kind of document it
can name.  A reference whose document is of a kind the slot takes
resolves; any other is a usage error: exit 2 and one ``error:`` line
naming the referring document, never a traceback."""

import itertools
from pathlib import Path

import pytest

from krl.cli import run_cli
from krl.order import PowersetLattice

FIX = Path(__file__).resolve().parent.parent / "fixtures"

PI = ("a", "b")  # the carrier of aks2
SUBSETS = tuple(PowersetLattice(PI).name(p) for p in range(1 << len(PI)))
L2 = ("e0", "e1")
BASE = (FIX / "l2.krl").read_text().replace('"L2-classical"', '"base"')

# each kind of document, named "t", with any document it refers to
TARGETS = {
    "lattice": ['structure lattice "t"\nelements: e0 e1\norder: e0 <= e1\n'],
    "ia": [(FIX / "l2.krl").read_text().replace('"L2-classical"', '"t"')],
    "ia-powerset": [(FIX / "aks2.krl").read_text().replace('aks "aks2"', 'ia "t"')],
    "aks": [(FIX / "aks2.krl").read_text().replace('"aks2"', '"t"')],
    "interior": ['interior "t" on "base"\nmap: e0 -> e0 ; e1 -> e1\n', BASE],
    "morphism": ['morphism ia "t" from "base" to "base"\nmap: e0 -> e0 ; e1 -> e1\n',
                 BASE],
}
# the header of a document that refers to "t" in each slot
SLOTS = {
    "interior": 'interior "probe" on "t"',
    "ia": 'morphism ia "probe" from "t" to "t"',
    "aks": 'morphism aks "probe" from "t" to "t"',
}
TAKES = {"interior": {"lattice", "ia", "ia-powerset", "aks"},
         "ia": {"ia", "ia-powerset"}, "aks": {"aks"}}


def carrier(kind, slot):
    """The names an identity map reads in the slot: a Krivine structure
    is a set of points to an aks morphism and a powerset elsewhere."""
    if kind in ("ia-powerset", "aks"):
        return PI if slot == "aks" else SUBSETS
    return L2


@pytest.mark.parametrize("slot,kind", list(itertools.product(SLOTS, TARGETS)))
def test_a_reference_resolves_only_to_a_kind_its_slot_takes(capsys, tmp_path, slot, kind):
    rows = " ; ".join(f"{x} -> {x}" for x in carrier(kind, slot))
    texts = [f"{SLOTS[slot]}\nmap: {rows}\n"] + TARGETS[kind]
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"doc{i}.krl")
        paths[-1].write_text(text)
    # an exception escaping run_cli is the traceback a user would see
    code = run_cli(["validate"] + [str(p) for p in paths])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if kind in TAKES[slot]:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: 'probe' refers to 't', a document of kind ")
        assert err.count("\n") == 1
