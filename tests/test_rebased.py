"""Basis invariance: a lower-unitriangular change of basis keeps every report."""

import pytest

from ainfty.cli import main
from ainfty.documents import serialize
from ainfty.fixtures import FIXTURE_NAMES, fixture_document

from helpers import cyclic_group_document, rebased_document, symmetric_group_document

DOCUMENTS = {name: (lambda name=name: fixture_document(name)) for name in FIXTURE_NAMES}
DOCUMENTS["C3"] = lambda: cyclic_group_document(3)
DOCUMENTS["S3"] = symmetric_group_document

# every change of basis that fixes the first letter of each degree is an
# automorphism of these: exterior1 has one letter per degree, a unitriangular
# change of exterior2's degree-1 letters has determinant 1 on x.y, and
# quasi_iso_pair's v + c u has the same actions and differential as v
UNMOVED = {"exterior1", "exterior2", "quasi_iso_pair"}

SEED = 20261022


def reports(doc, commands, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(serialize(doc))
    out = {}
    for command in commands:
        code = main([command, str(path), "--length", "3"])
        out[command] = code, capsys.readouterr().out
    return out


@pytest.mark.parametrize("ring", [None, 3], ids=["Z", "Z3"])
@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_rebased_document_prints_the_same_reports(name, ring, tmp_path, capsys):
    doc = DOCUMENTS[name]()
    if ring is not None:
        doc["ring"] = {"kind": "Zp", "p": ring}
    rebased = rebased_document(doc, SEED)
    assert (serialize(rebased) == serialize(doc)) == (name in UNMOVED)
    commands = ["hh", "cohomology", "spectral", "verify"]
    if name == "dual_numbers":
        commands.append("cup")
    expected = reports(doc, commands, tmp_path, capsys)
    assert all(code == 0 for code, _ in expected.values()), expected
    assert reports(rebased, commands, tmp_path, capsys) == expected


def test_rebasing_keeps_names_and_the_first_letter_of_each_degree():
    doc = symmetric_group_document()
    rebased = rebased_document(doc, SEED)
    assert rebased["algebra"]["basis"] == doc["algebra"]["basis"]
    # the unit "1" is the first degree-0 letter: its entries of the product are unchanged
    def unit_entries(d):
        return sorted((e["inputs"], e["output"]) for e in d["algebra"]["product"] if "1" in e["inputs"])

    assert unit_entries(rebased) == unit_entries(doc)
    assert rebased_document(doc, SEED) == rebased
    assert rebased_document(doc, SEED + 1) != rebased
