"""CLI and document format: round trips, commands, exit codes, determinism."""

import contextlib
import csv
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfty.cli import build_parser, main
from ainfty.documents import parse, serialize
from ainfty.errors import DocumentError, UnknownFixture
from ainfty.fixtures import FIXTURE_NAMES, fixture_document

from helpers import (
    call_arguments,
    cochain_complex,
    degree_one_document,
    dense_rank_modp,
    differential_word,
    reordered_document,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round_trip_stability():
    for name in FIXTURE_NAMES:
        text = serialize(fixture_document(name))
        doc = parse(text)
        assert serialize(doc.raw) == text


def test_every_fixture_parses_and_validates(tmp_path, capsys):
    for name in FIXTURE_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(fixture_document(name)))
        code, out, _ = run_cli(["validate", str(path)], capsys)
        assert code == 0, out
        assert out.strip().endswith("RESULT: PASS")


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture_document("nope")


def test_emit_command(capsys):
    code, out, _ = run_cli(["emit", "exterior1"], capsys)
    assert code == 0
    assert json.loads(out)["algebra"]["basis"] == [["1", 0], ["x", 1]]
    code, _, err = run_cli(["emit", "nope"], capsys)
    assert code == 2
    assert "unknown fixture" in err


def test_minimal_document(tmp_path, capsys):
    doc = {
        "ring": {"kind": "Z"},
        "algebra": {"basis": [["a", 0]], "kind": "ainfty", "operations": {}},
    }
    path = tmp_path / "min.json"
    path.write_text(serialize(doc))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0


def test_degree_mismatch_names_the_entry():
    doc = {
        "ring": {"kind": "Z"},
        "algebra": {
            "basis": [["a", 0], ["b", 1]],
            "kind": "ainfty",
            "operations": {"2": [{"inputs": ["a", "a"], "output": {"b": "1"}}]},
        },
    }
    from ainfty.errors import DegreeMismatch

    with pytest.raises(DegreeMismatch) as err:
        parse(serialize(doc))
    assert "algebra.operations.2" in str(err.value)
    assert "('a', 'a')" in str(err.value)


def test_not_prime_ring():
    doc = {"ring": {"kind": "Zp", "p": 4}, "algebra": {"basis": []}}
    from ainfty.errors import NotPrime

    with pytest.raises(NotPrime):
        parse(json.dumps(doc))


def test_unknown_name_in_table():
    doc = {
        "ring": {"kind": "Z"},
        "algebra": {
            "basis": [["a", 0]],
            "kind": "ainfty",
            "operations": {"2": [{"inputs": ["a", "zz"], "output": {"a": "1"}}]},
        },
    }
    from ainfty.errors import UnknownName

    with pytest.raises(UnknownName):
        parse(json.dumps(doc))


def test_syntax_error_has_location():
    with pytest.raises(DocumentError) as err:
        parse("{ not json")
    assert "line 1" in str(err.value)


def test_malformed_options_are_input_errors(tmp_path, capsys):
    doc = fixture_document("dual_numbers")
    doc["options"] = {"length": "abc"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["hh", str(path)], capsys)
    assert code == 2
    assert "options.length" in err


def _no_inputs(doc):
    del doc["cochains"]["dual_e"]["components"]["1"][0]["inputs"]


@pytest.mark.parametrize(
    "command,mutate,section",
    [
        pytest.param("cup", _no_inputs, "cochains.dual_e.components.1[0]", id="cochain-entry-cup"),
        pytest.param(
            "verify", _no_inputs, "cochains.dual_e.components.1[0]", id="cochain-entry-verify"
        ),
        pytest.param(
            "cup",
            lambda doc: doc["cochains"]["dual_e"].update(components=[]),
            "cochains.dual_e.components",
            id="cochain-components",
        ),
        pytest.param("hh", lambda doc: doc.update(ring="Z"), "ring", id="ring"),
        pytest.param("hh", lambda doc: doc.update(options=[]), "options", id="options"),
        pytest.param("hh", lambda doc: doc.update(bimodules=[1]), "bimodules", id="bimodules"),
        pytest.param(
            "hh", lambda doc: doc.update(bimodules={"M": []}), "bimodules.M", id="bimodule-spec"
        ),
        pytest.param(
            "hh",
            lambda doc: doc["algebra"]["product"][0].update(output=[]),
            "algebra.product[0]",
            id="product-output",
        ),
        pytest.param(
            "hh",
            lambda doc: doc["algebra"].update(basis={"10": 0, "e0": 0}),
            "algebra.basis",
            id="basis",
        ),
    ],
)
def test_malformed_sections_are_input_errors(tmp_path, capsys, command, mutate, section):
    doc = fixture_document("dual_numbers")
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(path), "--length", "2"], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {section}" in err
    assert "Traceback" not in err


def test_non_integer_max_arity_is_an_input_error(tmp_path, capsys):
    # the structure keeps every operation given, but a document that states a
    # max_arity must still state an integer
    doc = fixture_document("mu3_square_zero")
    doc["algebra"]["max_arity"] = "three"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "input error: algebra.max_arity: expected an integer" in err


@pytest.mark.parametrize(
    "flags,options,field",
    [
        (["--length", "-3"], {}, "length"),
        (["--max-r", "-1"], {}, "max_r"),
        (["--max-rs", "-1"], {}, "max_rs"),
        ([], {"length": -1}, "length"),
        ([], {"max_rs": -2}, "max_rs"),
    ],
)
def test_negative_counts_are_input_errors(tmp_path, capsys, flags, options, field):
    doc = fixture_document("exterior2")
    doc["options"] = options
    path = tmp_path / "e2.json"
    path.write_text(serialize(doc))
    code, out, err = run_cli(["hh", str(path), *flags], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {field}: expected a non-negative count" in err


@pytest.mark.parametrize(
    "flags,options,field,value",
    [
        (["--degrees=-5000..5000"], {}, "--degrees", 10_001),
        (["--degrees=-300000..300000"], {}, "--degrees", 600_001),
        (["--max-r", "10001"], {}, "max_r", 10_001),
        (["--max-rs", "301"], {}, "max_rs", 301),
        ([], {"max_r": 200_000}, "max_r", 200_000),
        ([], {"max_rs": 1000}, "max_rs", 1000),
    ],
)
def test_oversized_counts_are_input_errors(
    tmp_path, capsys, monkeypatch, flags, options, field, value
):
    # refused before any complex is built, each at a fixed limit
    from ainfty.chains import HochschildComplex

    def refuse(*args):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(HochschildComplex, "__init__", refuse)
    doc = fixture_document("exterior1")
    doc["options"] = options
    path = tmp_path / "e1.json"
    path.write_text(serialize(doc))
    limit = {"--degrees": 10_000, "max_r": 10_000, "max_rs": 300}[field]
    for command in ("hh", "validate", "verify"):
        code, out, err = run_cli([command, str(path), *flags], capsys)
        assert code == 2
        assert out == ""
        assert f"input error: {field}: {value} is above the limit of {limit}\n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hh", "--length", "3", "--degrees=-5000..4999"],
        ["cohomology", "--length", "3", "--degrees=-5000..4999"],
        ["validate", "--max-r", "10000"],
        ["verify", "--length", "1", "--max-rs", "300"],
    ],
)
def test_counts_at_the_limit_are_accepted(tmp_path, capsys, argv):
    path = tmp_path / "e1.json"
    path.write_text(serialize(fixture_document("exterior1")))
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 0
    assert "above the limit" not in err
    if "--degrees=-5000..4999" in argv:
        assert sum(line.startswith("HH") for line in out.splitlines()) == 10_000


@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize("spec", ["abc", "1..x", "3..1", "2..", "..2", "1..2..3"])
def test_malformed_degree_ranges_are_input_errors(tmp_path, capsys, command, spec):
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, err = run_cli([command, str(path), "--length", "2", "--degrees", spec], capsys)
    assert code == 2
    assert out == ""
    assert "input error: --degrees: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "spectral"])
@pytest.mark.parametrize("kind", ["source", "target"])
@pytest.mark.parametrize("value", [["M"], {"M": 1}])
def test_morphism_endpoints_must_be_bimodule_names(tmp_path, capsys, command, kind, value):
    doc = fixture_document("quasi_iso_pair")
    doc["morphisms"]["include"][kind] = value
    path = tmp_path / "qip.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: morphisms.include.{kind}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "spectral"])
@pytest.mark.parametrize(
    "section,name,table", [("bimodules", "N", "operations"), ("morphisms", "include", "components")]
)
@pytest.mark.parametrize("key", ["-1,1", "1,-1"])
def test_negative_rs_keys_are_input_errors(tmp_path, capsys, command, section, name, table, key):
    doc = fixture_document("quasi_iso_pair")
    tables = doc[section][name][table]
    tables[key] = tables.pop("0,0")
    path = tmp_path / "qip.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {section}.{name}.{table}: bad (r,s) key {key!r}" in err


@pytest.mark.parametrize("value", [0.7, 1.5, True])
@pytest.mark.parametrize(
    "section,field",
    [("morphisms.include", "degree"), ("options", "length"), ("ring", "p")],
)
def test_integer_fields_take_no_floats_or_booleans(tmp_path, capsys, value, section, field):
    doc = fixture_document("quasi_iso_pair")
    if section == "ring":
        doc["ring"] = {"kind": "Zp", "p": 3}
    spec = doc
    for part in section.split("."):
        spec = spec[part]
    spec[field] = value
    path = tmp_path / "qip.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {section}.{field}: expected an integer" in err


@pytest.mark.parametrize("value", [0.7, True])
@pytest.mark.parametrize(
    "name,where", [("exterior1", "algebra.basis"), ("quasi_iso_pair", "bimodules.N.basis")]
)
def test_basis_degrees_take_integers_only(tmp_path, capsys, value, name, where):
    # int() would read a degree of 0.7 as 0 and true as 1
    doc = fixture_document(name)
    spec = doc
    for part in where.split("."):
        spec = spec[part]
    spec[0][1] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {where}[0]: expected an integer" in err


def test_large_prime_modulus_is_refused_before_the_primality_test(tmp_path, capsys):
    # trial division up to sqrt(p) would take hours on 2^64 - 59, a prime
    doc = fixture_document("exterior1")
    doc["ring"] = {"kind": "Zp", "p": 2**64 - 59}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    started = time.monotonic()
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert time.monotonic() - started < 10
    assert code == 2
    assert out == ""
    assert f"input error: modulus {2**64 - 59} is above the limit of {2**31}" in err


def _first_entry(cochain):
    return cochain["components"]["1"][0]


@pytest.mark.parametrize("command", ["validate", "hh"])
@pytest.mark.parametrize(
    "mutate,message",
    [
        pytest.param(
            lambda c: c.update(degree="x"),
            "cochains.dual_e.degree: expected an integer",
            id="degree",
        ),
        pytest.param(
            lambda c: c["components"].update(x=[]),
            "cochains.dual_e.components: bad arity key 'x'",
            id="arity",
        ),
        pytest.param(
            lambda c: c["components"].update({"-1": []}),
            "cochains.dual_e.components: bad arity key '-1'",
            id="negative-arity",
        ),
        pytest.param(
            lambda c: _first_entry(c).update(inputs=[]),
            "cochains.dual_e.components.1[0]: 0 inputs for arity 1",
            id="input-count",
        ),
        pytest.param(
            lambda c: _first_entry(c).update(inputs=["zz"]),
            "cochains.dual_e.components.1[0]: unknown basis name 'zz'",
            id="input-name",
        ),
        pytest.param(
            lambda c: _first_entry(c)["output"].update(zz="1"),
            "cochains.dual_e.components.1[0]: unknown basis name 'zz'",
            id="output-name",
        ),
        pytest.param(
            lambda c: c.update(degree=2),
            "cochains.dual_e.components.1[0]: entry ('e',) breaks the degree rule",
            id="degree-rule",
        ),
    ],
)
def test_cochains_are_parsed_strictly(tmp_path, capsys, command, mutate, message):
    # every command refuses a malformed cochain, not only those that build it
    doc = fixture_document("dual_numbers")
    mutate(doc["cochains"]["dual_e"])
    path = tmp_path / "dn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(path), "--length", "2"], capsys)
    assert code == 2
    assert out == ""
    assert f"input error: {message}" in err


@pytest.mark.parametrize("command", ["cup", "verify"])
def test_cochain_above_the_cutoff_names_the_cochain(tmp_path, capsys, command):
    # document cochains are cut off at arity L + 1; the refusal names which one
    doc = fixture_document("dual_numbers")
    entry = {"inputs": ["e", "e"], "output": {"e": "1"}}
    doc["cochains"]["square"] = {"degree": 2, "components": {"2": [entry]}}
    path = tmp_path / "dn.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path), "--length", "0"], capsys)[0] == 0
    code, out, err = run_cli([command, str(path), "--length", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "input error: cochains.square: arity 2 exceeds the cutoff 1" in err
    assert run_cli([command, str(path), "--length", "1"], capsys)[0] == 0


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_verify_at_length_zero(tmp_path, capsys, fixture):
    # beta.beta tries elementary cochains up to its cutoff L + 1 only
    path = tmp_path / f"{fixture}.json"
    path.write_text(serialize(fixture_document(fixture)))
    code, out, err = run_cli(["verify", str(path), "--length", "0"], capsys)
    assert code == 0, err
    assert "ok   beta.beta = 0 [diagonal]" in out.splitlines()


def test_spectral_passes_a_degree_one_quasi_isomorphism(tmp_path, capsys):
    # E^0(f_*) keeps f_*'s sign (-1)^(d j): the column maps commute with b_1
    path = tmp_path / "shift.json"
    path.write_text(serialize(degree_one_document()))
    for command in ("validate", "verify", "spectral"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 0, (command, err)
    for check in ("hypothesis", "conclusion", "witnessed"):
        assert f"ok   comparison {check} [shift]" in out.splitlines()


def test_length_raising_term_of_f_star_exits_3(tmp_path, capsys, monkeypatch):
    # f_* never sends a word to a longer one; a term that does is a library
    # bug, which the slicing of E^0(f_*) reports instead of dropping
    from ainfty.chains import InducedChainMap
    from ainfty.homology import ExactMatrix

    original = InducedChainMap.matrices

    def planted(self):
        # the entry ('m',) -> ('w', 'e'), in the column of ('m',)
        F, j = original(self), self.source.degree(("m",))
        col = self.source.truncation().basis[j].index(("m",))
        row = self.target.truncation().basis[j + self.degree].index(("w", "e"))
        F[j] = ExactMatrix(F[j].rows, F[j].cols, {**F[j].entries, (row, col): 1})
        return F

    monkeypatch.setattr(InducedChainMap, "matrices", planted)
    path = tmp_path / "qip.json"
    path.write_text(serialize(fixture_document("quasi_iso_pair")))
    code, out, err = run_cli(["spectral", str(path), "--length", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "internal error: ('m',) maps to the longer word ('w', 'e')" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["hh", "/does/not/exist.json"], capsys)
    assert code == 2
    assert "input error" in err


def test_hh_against_dense_oracle_mod2(tmp_path, capsys):
    # the spec's CLI example: dual numbers over Z/2, diagonal, length 3
    from ainfty.bimodules import diagonal_bimodule
    from ainfty.chains import HochschildComplex
    from helpers import load

    doc_dict = fixture_document("dual_numbers")
    doc_dict["ring"] = {"kind": "Zp", "p": 2}
    path = tmp_path / "dn2.json"
    path.write_text(serialize(doc_dict))
    code, out, _ = run_cli(
        ["hh", str(path), "--module", "diagonal", "--length", "3", "--degrees", "-2..4"],
        capsys,
    )
    assert code == 0
    got = {}
    for line in out.splitlines():
        if line.startswith("HH(diagonal)"):
            deg = int(line.split("degree ")[1].split(":")[0])
            got[deg] = line.split(": ")[1]
    for j in (-2, -1, 0):
        assert got[j] == "dim 0"

    doc = load("dual_numbers", p=2)
    M = diagonal_bimodule(doc.algebra)
    cx = HochschildComplex(M, 3)
    basis = {}
    for n in range(4):
        for w in cx.words(n):
            basis.setdefault(cx.degree(w), []).append(w)
    for j in (1, 2, 3, 4):
        words = basis.get(j, [])
        out_rows = []
        dst = {w: i for i, w in enumerate(basis.get(j - 1, []))}
        dense_out = [[0] * len(words) for _ in dst] if dst else []
        for col, w in enumerate(words):
            for ww, c in differential_word(cx, w).items():
                if ww in dst:
                    dense_out[dst[ww]][col] = c
        src_in = basis.get(j + 1, [])
        idx = {w: i for i, w in enumerate(words)}
        dense_in = [[0] * len(src_in) for _ in words] if words else []
        for col, w in enumerate(src_in):
            for ww, c in differential_word(cx, w).items():
                if ww in idx:
                    dense_in[idx[ww]][col] = c
        r_out = dense_rank_modp(dense_out, 2) if dense_out else 0
        r_in = dense_rank_modp(dense_in, 2) if dense_in else 0
        dim = len(words) - r_out - r_in
        assert got[j] == f"dim {dim}", (j, got)


def test_verify_pass_and_corrupted_failure(tmp_path, capsys):
    path = tmp_path / "qi.json"
    path.write_text(serialize(fixture_document("quasi_iso_pair")))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0
    assert "RESULT: PASS" in out

    bad = fixture_document("quasi_iso_pair")
    bad["morphisms"]["include"]["components"]["0,0"][0]["output"] = {
        "u": "1",
        "v": "1",
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(serialize(bad))
    code, out, _ = run_cli(["verify", str(bad_path)], capsys)
    assert code == 1
    assert "RESULT: FAIL (first failing identity: morphism equations [include])" in out


def test_spectral_names_the_word_a_non_chain_map_fails_on(tmp_path, capsys):
    # include: m -> v does not commute with b_1 on N, where v -> w; the
    # comparison's first induced map, on the column p = 0, names the word
    doc = fixture_document("quasi_iso_pair")
    doc["morphisms"]["include"]["components"]["0,0"][0]["output"] = {"v": "1"}
    path = tmp_path / "bad.json"
    path.write_text(serialize(doc))
    code, out, err = run_cli(["spectral", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        "input error: map does not commute with the boundary operators on ('m',)"
    )


def test_verify_chain_map_check_names_the_oracle_word(tmp_path, capsys):
    # the check reads d_tgt F_j - F_{j-1} d_src off F_L's matrices; the first
    # failing word in enumeration order is the one the per-word b names, also
    # for morphisms of nonzero degree, whose F_j shifts the degree
    from helpers import differential, induced, induced_chain, induced_on_word

    doc = fixture_document("quasi_iso_pair")
    doc["morphisms"]["include"]["components"]["0,0"][0]["output"] = {"u": "1", "v": "1"}
    for name, degree, source, target in (("lift", 1, "u", "w"), ("drop", -1, "w", "v")):
        entry = {"inputs": [source], "output": {target: "1"}}
        doc["morphisms"][name] = {
            "source": "N", "target": "N", "degree": degree, "components": {"0,0": [entry]}
        }
    path = tmp_path / "bad.json"
    path.write_text(serialize(doc))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    for name, f in parse(serialize(doc)).morphisms.items():
        fstar = induced(f, 4)
        failing = [
            w
            for w in fstar.source.all_words()
            if differential(fstar.target, induced_on_word(fstar, w))
            != induced_chain(fstar, differential_word(fstar.source, w))
        ]
        expected = (
            f"FAIL induced chain map [{name}]: b(f_*({failing[0]})) != f_*(b({failing[0]}))"
            if failing
            else f"ok   induced chain map [{name}]"
        )
        assert expected in out.splitlines(), name
    assert "FAIL induced chain map [include]" in out and "ok   induced chain map [lift]" in out


@pytest.mark.parametrize("corruption", ["mu10_doubles_w", "mu01_on_v"])
def test_verify_names_first_word_with_nonzero_b_squared(tmp_path, capsys, corruption):
    # b.b is checked on products of F_L's boundary matrices; the reported
    # word is the first in enumeration order whose column does not vanish
    doc = fixture_document("quasi_iso_pair")
    ops = doc["bimodules"]["N"]["operations"]
    if corruption == "mu10_doubles_w":
        assert ops["1,0"][2]["inputs"] == ["e", "w"]
        ops["1,0"][2]["output"] = {"w": "2"}
        residual = "(1,0): fails on ('e', 'v') with residual -1*w"
    else:
        ops["0,1"] = [{"inputs": ["v", "e"], "output": {"v": "1"}}]
        residual = "(0,1): fails on ('v', 'e') with residual w"
    path = tmp_path / "bad.json"
    path.write_text(serialize(doc))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "command: verify",
        "ring: Z",
        *(f"ok   algebra equation r={r}" for r in range(1, 7)),
        "ok   bimodule equations [M]",
        f"FAIL bimodule equations [N]: N: bimodule equation {residual}",
        "ok   bimodule equations [diagonal]",
        "ok   bimodule equations [dual]",
        "ok   bimodule equations [tensor_square]",
        "ok   b.b = 0 [M]",
        "FAIL b.b = 0 [N]: b(b(('v', 'e'))) != 0",
        "ok   b.b = 0 [diagonal]",
        "ok   b.b = 0 [dual]",
        "ok   b.b = 0 [tensor_square]",
        "ok   morphism equations [include]",
        "ok   induced chain map [include]",
        "ok   beta.beta = 0 [diagonal]",
        "ok   phi duality square [diagonal]",
        *(f"ok   E1 two-path agreement [{m}]" for m in ("M", "N", "diagonal", "dual", "tensor_square")),
        "ok   SNF self-verification",
        "RESULT: FAIL (first failing identity: bimodule equations [N])",
    ]


CHECK_TIME = re.compile(r"check (.+): \d+\.\d{6}s")


def _timed_labels(out: str, err: str) -> tuple[list[str], list[str]]:
    """The labels of a report's ok and FAIL lines, and the labels that stderr
    gives a check time, in order."""
    verdicts = [line[5:] for line in out.splitlines() if line.startswith(("ok   ", "FAIL "))]
    times = [m.group(1) for m in map(CHECK_TIME.fullmatch, err.splitlines()) if m]
    return [v.split(": ")[0] for v in verdicts], times


def test_verify_writes_one_time_per_check_to_stderr(tmp_path, capsys):
    # each check's time goes to stderr, one line per ok/FAIL line of the
    # report, in report order; stdout stays the benchmark's reference
    references = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
    )
    jobs = [job for job in references if job.startswith("verify ")]
    assert len(jobs) == 6
    for job in jobs:
        _, name, _ = job.split()
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(fixture_document(name)))
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (0, references[job]), job
        labels, times = _timed_labels(out, err)
        assert times == labels and len(labels) > 10, job
    for name, doc in _broken_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(doc))
        code, out, err = run_cli(["verify", str(path)], capsys)
        labels, times = _timed_labels(out, err)
        assert code == 1 and "FAIL " in out
        assert times == labels, name


def test_verify_times_each_f_l_apart_from_the_checks(tmp_path, capsys, monkeypatch):
    # each module's F_L is assembled before the checks run, under its own
    # stderr line, so b.b = 0 is timed without the assembly; stdout stays
    # the benchmark's reference
    import ainfty.cli as cli
    from ainfty.chains import HochschildComplex

    references = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
    )
    running, assembled_in_checks = [False], []
    original_boundaries = HochschildComplex.boundaries
    original_run_checks = cli.run_checks

    def boundaries(self):
        assembled_in_checks.append(running[0])
        return original_boundaries(self)

    def run_checks(checks, report):
        running[0] = True
        original_run_checks(checks, report)
        running[0] = False

    monkeypatch.setattr(HochschildComplex, "boundaries", boundaries)
    monkeypatch.setattr(cli, "run_checks", run_checks)
    build = re.compile(r"build F_L \[(.+)\]: \d+\.\d{6}s")
    for name, modules in [
        ("exterior2", ["diagonal", "dual", "tensor_square"]),
        ("quasi_iso_pair", ["M", "N", "diagonal", "dual", "tensor_square"]),
    ]:
        assembled_in_checks.clear()
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(fixture_document(name)))
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (0, references[f"verify {name} Z"])
        lines = err.splitlines()
        built = [m.group(1) for m in map(build.fullmatch, lines) if m]
        assert built == modules
        first_check = next(k for k, line in enumerate(lines) if CHECK_TIME.fullmatch(line))
        assert all(build.fullmatch(line) is None for line in lines[first_check:])
        assert assembled_in_checks == [False] * len(modules)


def _broken_documents():
    """Documents whose algebra breaks its equations, so b.b != 0: mu3_square_zero
    with mu_1(c) = a, mu_2(a,a) = b and mu_2(c,a) = c, and a non-associative
    mu_2 next to a letter z of degree 2."""
    mu3 = fixture_document("mu3_square_zero")
    ops = mu3["algebra"]["operations"]
    ops["1"] = [{"inputs": ["c"], "output": {"a": "1"}}]
    ops["2"] = [
        {"inputs": ["a", "a"], "output": {"b": "1"}},
        {"inputs": ["c", "a"], "output": {"c": "1"}},
    ]
    nonassoc = {
        "ring": {"kind": "Z"},
        "algebra": {
            "basis": [["a", 0], ["e", 0], ["z", 2]],
            "kind": "ainfty",
            "max_arity": 2,
            "operations": {
                "2": [
                    {"inputs": ["a", "a"], "output": {"e": "1"}},
                    {"inputs": ["a", "e"], "output": {"e": "1"}},
                ]
            },
        },
        "options": {"length": 3, "max_r": 3, "max_rs": 2},
    }
    return {"mu3_broken": mu3, "nonassoc": nonassoc}


def test_b_squared_failure_is_reported_in_enumeration_order(tmp_path, capsys):
    # mu_2 is not associative on a, and the letter z of degree 2 lowers a
    # word's Hochschild degree: ('a', 'a', 'a', 'z') has a lower degree than
    # ('a', 'a', 'a') and also fails, but the shorter word is reported first
    path = tmp_path / "nonassoc.json"
    path.write_text(serialize(_broken_documents()["nonassoc"]))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "command: verify",
        "ring: Z",
        "ok   algebra equation r=1",
        "ok   algebra equation r=2",
        "FAIL algebra equation r=3: A-infinity equation r=3: "
        "fails on ('a', 'a', 'a') with residual -1*e",
        "FAIL bimodule equations [diagonal]: A[1]: bimodule equation (0,2): "
        "fails on ('a', 'a', 'a') with residual -1*e",
        "FAIL bimodule equations [dual]: A[1]^-*: bimodule equation (0,2): "
        "fails on ('e^', 'a', 'a') with residual a^ + e^",
        "FAIL bimodule equations [tensor_square]: AxA: bimodule equation (0,2): "
        "fails on ('a|a', 'a', 'a') with residual -1*a|e",
        "FAIL b.b = 0 [diagonal]: b(b(('a', 'a', 'a'))) != 0",
        "FAIL b.b = 0 [dual]: b(b(('e^', 'a', 'a'))) != 0",
        "FAIL b.b = 0 [tensor_square]: b(b(('a|z', 'a', 'a'))) != 0",
        "FAIL beta.beta = 0 [diagonal]: beta(beta(E[()->a])) != 0",
        "ok   phi duality square [diagonal]",
        "ok   E1 two-path agreement [diagonal]",
        "ok   E1 two-path agreement [dual]",
        "ok   E1 two-path agreement [tensor_square]",
        "ok   SNF self-verification",
        "RESULT: FAIL (first failing identity: algebra equation r=3)",
    ]


def test_failing_algebra_equation_with_mu1_and_mu3(tmp_path, capsys):
    # mu3_square_zero plus mu_1(c) = a, mu_2(a,a) = b and mu_2(c,a) = c: the
    # equations fail at r = 2, 3 and 4, each on its least word in basis order
    path = tmp_path / "mu3_broken.json"
    path.write_text(serialize(_broken_documents()["mu3_broken"]))
    algebra_lines = [
        "ok   algebra equation r=1",
        "FAIL algebra equation r=2: A-infinity equation r=2: "
        "fails on ('a', 'c') with residual -1*b",
        "FAIL algebra equation r=3: A-infinity equation r=3: "
        "fails on ('a', 'a', 'a') with residual a",
        "FAIL algebra equation r=4: A-infinity equation r=4: "
        "fails on ('a', 'a', 'a', 'a') with residual c",
        "ok   algebra equation r=5",
        "ok   algebra equation r=6",
    ]
    result = "RESULT: FAIL (first failing identity: algebra equation r=2)"
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out.splitlines() == ["command: validate", "ring: Z", *algebra_lines, result]
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "command: verify",
        "ring: Z",
        *algebra_lines,
        "FAIL bimodule equations [diagonal]: A[1]: bimodule equation (0,1): "
        "fails on ('a', 'c') with residual -1*b",
        "FAIL bimodule equations [dual]: A[1]^-*: bimodule equation (0,1): "
        "fails on ('a^', 'c') with residual -1*a^",
        "FAIL bimodule equations [tensor_square]: AxA: bimodule equation (0,1): "
        "fails on ('a|a', 'c') with residual -1*a|b",
        "FAIL b.b = 0 [diagonal]: b(b(('a', 'c'))) != 0",
        "FAIL b.b = 0 [dual]: b(b(('a^', 'a'))) != 0",
        "FAIL b.b = 0 [tensor_square]: b(b(('a|a', 'c'))) != 0",
        "FAIL beta.beta = 0 [diagonal]: beta(beta(E[()->a])) != 0",
        "ok   phi duality square [diagonal]",
        "ok   E1 two-path agreement [diagonal]",
        "ok   E1 two-path agreement [dual]",
        "ok   E1 two-path agreement [tensor_square]",
        "ok   SNF self-verification",
        result,
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_verify_passes_over_zp(tmp_path, capsys, p):
    # over Z/p the boundaries hold reduced coefficients, so b.b must be
    # reduced mod p before it is compared with zero
    for name in FIXTURE_NAMES:
        doc = fixture_document(name)
        doc["ring"] = {"kind": "Zp", "p": p}
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(doc))
        code, out, _ = run_cli(["verify", str(path), "--length", "3"], capsys)
        assert code == 0, (name, out)
        assert f"ring: Z/{p}" in out and "ok   b.b = 0 [diagonal]" in out


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(["verify", str(path), "--seed", "3"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_threads_do_not_change_reports(tmp_path, capsys, monkeypatch):
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    _, base, _ = run_cli(["verify", str(path)], capsys)
    monkeypatch.setenv("AINFTY_THREADS", "4")
    _, threaded, _ = run_cli(["verify", str(path)], capsys)
    assert base == threaded


@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize(
    "ring,factor",
    [({"kind": "Z"}, "_smith"), ({"kind": "Zp", "p": 3}, "rank_modp")],
)
def test_each_boundary_is_factored_once(tmp_path, capsys, monkeypatch, command, ring, factor):
    import ainfty.homology as homology
    from ainfty.chains import HochschildComplex
    from ainfty.cli import resolve_bimodule

    doc = fixture_document("exterior2")
    doc["ring"] = ring
    path = tmp_path / "e2.json"
    path.write_text(serialize(doc))
    original = getattr(homology, factor)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homology, factor, counted)
    code, out, _ = run_cli([command, str(path), "--length", "3"], capsys)
    assert code == 0
    degrees = {int(j) for j in re.findall(r"degree (-?\d+):", out)}
    # H_j needs the boundary out of C_j and the one into it; of those, each
    # with an entry is factored once, and each zero map never
    step = -1 if command == "hh" else 1
    needed = degrees | {j - step for j in degrees}
    module = resolve_bimodule(parse(serialize(doc)), "diagonal" if command == "hh" else "dual")
    fc = HochschildComplex(module, 3).truncation()
    nonzero = [fc.boundary(j) for j in sorted(needed) if fc.boundary(j).by_row]
    assert 0 < len(nonzero) < len(needed) < 2 * len(degrees)
    assert sorted((m.rows, m.cols) for m, *_ in calls) == sorted((m.rows, m.cols) for m in nonzero)


@pytest.mark.parametrize("command,label", [("hh", "HH"), ("cohomology", "HH^*")])
@pytest.mark.parametrize(
    "ring,factor,zero",
    [({"kind": "Z"}, "_smith", "0"), ({"kind": "Zp", "p": 3}, "rank_modp", "dim 0")],
)
def test_empty_degrees_factor_nothing(
    tmp_path, capsys, monkeypatch, command, label, ring, factor, zero
):
    # F_3 of exterior1 has no basis in degrees -7..-5: H_j and H^j there are
    # 0 and the composite through C_j is zero, so the rows are printed with
    # no composite product and no factoring
    import ainfty.homology as homology

    calls = Counter()
    original, matmul = getattr(homology, factor), homology.ExactMatrix.__matmul__

    def counted(*args, **kwargs):
        calls[factor] += 1
        return original(*args, **kwargs)

    def counted_matmul(*args):
        calls["matmul"] += 1
        return matmul(*args)

    doc = fixture_document("exterior1")
    doc["ring"] = ring
    path = tmp_path / "e1.json"
    path.write_text(serialize(doc))
    monkeypatch.setattr(homology, factor, counted)
    monkeypatch.setattr(homology.ExactMatrix, "__matmul__", counted_matmul)
    code, out, _ = run_cli([command, str(path), "--length", "3", "--degrees=-7..-5"], capsys)
    assert code == 0
    rows = "".join(f"{label}(diagonal)  degree {j}: {zero}\n" for j in (-7, -6, -5))
    assert out.endswith(rows + "RESULT: PASS\n")
    assert calls == {}


@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize("fixture,p", [("exterior2", 3), ("mu3_square_zero", 2), ("truncated_poly3", 5)])
def test_degree_ranges_print_the_full_runs_rows(tmp_path, capsys, command, fixture, p):
    # over Z/p a range factors its lowest boundary whole and clears each
    # boundary above it by the one below; the rows stay the full run's
    doc = fixture_document(fixture)
    doc["ring"] = {"kind": "Zp", "p": p}
    path = tmp_path / "doc.json"
    path.write_text(serialize(doc))
    row = re.compile(r"degree (-?\d+): (.*)")
    code, out, _ = run_cli([command, str(path), "--length", "4"], capsys)
    assert code == 0
    full = {int(j): h for j, h in row.findall(out)}
    degrees = sorted(full)
    mid = degrees[len(degrees) // 2]
    for first, last in [(mid, degrees[-1]), (mid, mid)]:
        spec = f"{first}..{last}" if first != last else str(first)
        code, out, _ = run_cli([command, str(path), "--length", "4", "--degrees", spec], capsys)
        assert code == 0
        expected = [(j, full[j]) for j in range(first, last + 1)]
        assert [(int(j), h) for j, h in row.findall(out)] == expected


def test_clearing_hands_the_eliminator_fewer_rows(tmp_path, capsys, monkeypatch):
    # hh exterior2 at L=5 over Z/3: the whole boundaries hold 1304 support
    # rows; each d_j after the lowest leaves out the pivot columns P_{j-1}
    # of the boundary below it, so the eliminator sees
    # sum_j |supp rows(d_j) minus P_{j-1}| = 1090 rows
    import ainfty.homology as homology

    original = homology._eliminate
    calls = []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        arguments = call_arguments(original, *args, **kwargs)
        calls.append((arguments["mat"], set(arguments["skip"]), {q[4] for q in out[0]}))
        return out

    monkeypatch.setattr(homology, "_eliminate", recorded)
    doc = fixture_document("exterior2")
    doc["ring"] = {"kind": "Zp", "p": 3}
    path = tmp_path / "e2.json"
    path.write_text(serialize(doc))
    code, _, _ = run_cli(["hh", str(path), "--length", "5"], capsys)
    assert code == 0

    def support(mat):
        return {i for (i, _), c in mat.entries.items() if c % 3}

    assert sum(len(support(mat)) for mat, _, _ in calls) == 1304
    assert sum(len(support(mat) - skip) for mat, skip, _ in calls) == 1090
    # calls go upwards in degree: each skip is the pivot columns of the call before
    assert calls[0][1] == set()
    assert all(skip == below for (_, _, below), (_, skip, _) in zip(calls, calls[1:]))


def test_peeling_unit_singletons_cuts_heap_traffic(tmp_path, capsys, monkeypatch):
    # hh and cohomology exterior2 at L=5 over Z/3 take 2112 pivots; peeling
    # the unit singleton columns first leaves 696 entries to heapify, and
    # 232 more are pushed while the heap is worked off. The eliminator loads
    # each boundary row by row, in the order b's walk first reaches each row
    # and column, and that order sets the peel's queue and the heap's
    # re-validations (239 pushed when the walk also made b's unit terms).
    # Heaping every entry before the first pivot heaped 12 569 entries and
    # popped as many.
    import heapq

    import ainfty.homology as homology

    traffic = Counter()

    class CountingHeap:
        @staticmethod
        def heapify(heap):
            traffic["heapified"] += len(heap)
            heapq.heapify(heap)

        @staticmethod
        def heappush(heap, item):
            traffic["pushed"] += 1
            heapq.heappush(heap, item)

        @staticmethod
        def heappop(heap):
            traffic["popped"] += 1
            return heapq.heappop(heap)

    original = homology._eliminate
    pivots = []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        pivots.append(len(out[0]))
        return out

    monkeypatch.setattr(homology, "heapq", CountingHeap)
    monkeypatch.setattr(homology, "_eliminate", recorded)
    doc = fixture_document("exterior2")
    doc["ring"] = {"kind": "Zp", "p": 3}
    path = tmp_path / "e2.json"
    path.write_text(serialize(doc))
    for command in ("hh", "cohomology"):
        code, _, _ = run_cli([command, str(path), "--length", "5"], capsys)
        assert code == 0
    assert sum(pivots) == 2112
    assert traffic == {"heapified": 696, "pushed": 232, "popped": 928}


@pytest.mark.parametrize(
    "fixture,length,work",
    [
        ("exterior2", "5", {"u_rows": 1111, "long_u_rows": 69, "v_entries": 0}),
        ("truncated_poly3", "6", {"u_rows": 853, "long_u_rows": 63, "v_entries": 20}),
    ],
)
def test_snf_certificate_reads_u_and_only_the_remainders_v(
    tmp_path, capsys, monkeypatch, fixture, length, work
):
    # hh over Z: the certificate reads one row of U per support row, most of
    # them one entry (every peel row and most heap rows), and V'' holds only
    # the column operations of remainder rounds, none on exterior2, which has
    # no torsion. The heap's V', with a column operation at every unit pivot,
    # held 418 entries on exterior2 at L=5, and on Z[S_3] at L=4 135 360.
    # The order in which b's walk reaches the entries sets which rows are
    # long: 70 on exterior2 when the walk also made b's unit terms.
    import ainfty.homology as homology

    original = homology._certify
    counted = Counter()

    def recorded(mat, chain, u_rest, v, p):
        u_rows = [q[1] for q in chain] + u_rest
        counted["u_rows"] += len(u_rows)
        counted["long_u_rows"] += sum(len(u) > 1 for u in u_rows)
        counted["v_entries"] += sum(len(q[2]) for q in chain if q[2])
        counted["v_entries"] += sum(map(len, v.values()))
        return original(mat, chain, u_rest, v, p)

    monkeypatch.setattr(homology, "_certify", recorded)
    path = tmp_path / "doc.json"
    path.write_text(serialize(fixture_document(fixture)))
    code, _, _ = run_cli(["hh", str(path), "--length", length], capsys)
    assert code == 0
    assert counted == work


def _dense_cells(monkeypatch):
    """Record the area of every matrix the linear algebra makes dense."""
    import ainfty.homology as homology

    original = homology.ExactMatrix.to_dense
    cells = []

    def recorded(self):
        cells.append(self.rows * self.cols)
        return original(self)

    monkeypatch.setattr(homology.ExactMatrix, "to_dense", recorded)
    return cells


@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize("ring", [{"kind": "Z"}, {"kind": "Zp", "p": 3}])
def test_factoring_densifies_only_small_blocks(tmp_path, capsys, monkeypatch, command, ring):
    # the boundaries reach 350 x 350 at L=4; one sparse eliminator
    # diagonalises every one of them, so nothing is made dense
    doc = fixture_document("exterior2")
    doc["ring"] = ring
    path = tmp_path / "e2.json"
    path.write_text(serialize(doc))
    cells = _dense_cells(monkeypatch)
    code, _, _ = run_cli([command, str(path), "--length", "4"], capsys)
    assert code == 0
    assert cells == []


@pytest.mark.parametrize("fixture,length,remainder", [("exterior2", "6", False)])
def test_dense_kernel_sees_only_small_remainders(
    tmp_path, capsys, monkeypatch, fixture, length, remainder
):
    # no dense kernel is left, so even the largest boundaries of exterior2
    # leave nothing to be made dense; torsion is covered by
    # test_factoring_never_densifies
    path = tmp_path / "doc.json"
    path.write_text(serialize(fixture_document(fixture)))
    cells = _dense_cells(monkeypatch)
    code, _, _ = run_cli(["hh", str(path), "--length", length], capsys)
    assert code == 0
    assert bool(cells) == remainder
    assert max(cells, default=0) <= 8192


@pytest.mark.parametrize(
    "command",
    [pytest.param(command, id=f"truncated_poly3-Z-{command}") for command in ["hh", "cohomology"]],
)
def test_factoring_never_densifies(tmp_path, capsys, monkeypatch, command):
    # truncated_poly3 has torsion: the sparse eliminator takes pivots greater
    # than 1 and still makes nothing dense
    import ainfty.homology as homology

    eliminate = homology._eliminate
    pivots = []

    def recorded_pivots(*args, **kwargs):
        out = eliminate(*args, **kwargs)
        pivots.extend(pivot[0] for pivot in out[0])
        return out

    cells = _dense_cells(monkeypatch)
    monkeypatch.setattr(homology, "_eliminate", recorded_pivots)
    path = tmp_path / "tp3.json"
    path.write_text(serialize(fixture_document("truncated_poly3")))
    code, _, _ = run_cli([command, str(path), "--length", "5"], capsys)
    assert code == 0
    assert cells == []
    assert max(pivots) > 1


@pytest.mark.parametrize("command", ["hh", "cohomology"])
def test_snf_transform_entries_stay_small(tmp_path, capsys, monkeypatch, command):
    # nearest remainders on least-magnitude pivots keep U and V near the
    # entries of the boundaries themselves
    import ainfty.homology as homology

    original = homology._smith
    entries = []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        chain, u_rest, v = out[2]
        for vector in [q[1] for q in chain] + [q[2] or {} for q in chain] + u_rest:
            entries.extend(vector.values())
        for vector in v.values():
            entries.extend(vector.values())
        return out

    monkeypatch.setattr(homology, "_smith", recorded)
    path = tmp_path / "tp3.json"
    path.write_text(serialize(fixture_document("truncated_poly3")))
    code, _, _ = run_cli([command, str(path), "--length", "6"], capsys)
    assert code == 0
    assert entries
    assert max(abs(c) for c in entries) <= 3


@pytest.mark.parametrize("fixture,k", [("dual_numbers", 2), ("truncated_poly3", 3)])
def test_truncated_polynomial_homology_closed_form(tmp_path, capsys, fixture, k):
    # HH_n(Z[x]/(x^k)) is Z^k for n = 0, Z^(k-1) + Z/k for n odd and Z^(k-1)
    # for n even >= 2; the report's degree j is HH_(j-1), and its top degree
    # holds the truncation's cycles, so it is left out
    path = tmp_path / "doc.json"
    path.write_text(serialize(fixture_document(fixture)))
    code, out, _ = run_cli(["hh", str(path), "--length", "8"], capsys)
    assert code == 0
    reported = dict(re.findall(r"degree (\d+): (.*)", out))
    expected = {"1": f"Z^{k}"}
    for j in range(2, 9):
        expected[str(j)] = f"Z^{k - 1} + Z/{k}" if j % 2 == 0 else f"Z^{k - 1}"
    assert {j: reported[j] for j in expected} == expected
    assert set(reported) == set(expected) | {"9"}


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (class, attribute) pair; returns the live tally."""
    calls = {attr: 0 for _, attr in targets}
    for cls, attr in targets:
        original = getattr(cls, attr)

        def wrapper(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)
    return calls


def test_chain_assembly_visits_only_existing_operations(tmp_path, capsys, monkeypatch):
    # b is summed from the operation entries that exist, in one walk that
    # assembles every boundary of F_L once per complex; no word is visited
    # on its own, so degree_of is left to parsing and the bimodule tables.
    # The bound is the measured count.
    from ainfty.chains import HochschildComplex
    from ainfty.graded import GradedModule

    calls = _count_calls(
        monkeypatch, (GradedModule, "degree_of"), (HochschildComplex, "boundaries")
    )
    complexes = []
    original_init = HochschildComplex.__init__

    def recorded(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        complexes.append(self)

    monkeypatch.setattr(HochschildComplex, "__init__", recorded)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, _, _ = run_cli(["hh", str(path), "--length", "4"], capsys)
    assert code == 0
    assert calls["degree_of"] <= 318
    words = sum(len(list(cx.all_words())) for cx in complexes)
    assert calls["boundaries"] == len(complexes) == 1
    assert words == 1364


def test_rank_tables_are_built_once_per_length(tmp_path, capsys, monkeypatch):
    # the words, boundaries() and the direct E^0 columns read one table of
    # degrees and enumeration order per length, built once per complex
    from ainfty.chains import HochschildComplex

    original = HochschildComplex._by_rank
    built = Counter()

    def recorded(self, n):
        built[self, n] += 1
        return original(self, n)

    monkeypatch.setattr(HochschildComplex, "_by_rank", recorded)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, _, _ = run_cli(["verify", str(path), "--length", "6"], capsys)
    assert code == 0
    complexes = {cx for cx, _ in built}
    assert set(built) == {(cx, n) for cx in complexes for n in range(7)}
    # one per length for each of the three complexes; twice as many before
    # the tables were kept
    assert sum(built.values()) == len(built) == 21


def test_verify_reads_b_from_the_truncation_matrices(tmp_path, capsys, monkeypatch):
    # verify's b.b and chain map checks, b* and the quotient route to E^1
    # all read b from F_L's boundary matrices, assembled once per complex:
    # once for each of the diagonal, tensor_square and dual complexes, which
    # hold 8184 words. Evaluating b per word made 8184 calls, and evaluating
    # it on every word for every functional made 139 688.
    from ainfty.chains import HochschildComplex

    calls = _count_calls(monkeypatch, (HochschildComplex, "boundaries"))
    complexes = []
    original_init = HochschildComplex.__init__

    def recorded(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        complexes.append(self)

    monkeypatch.setattr(HochschildComplex, "__init__", recorded)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0, out
    assert calls["boundaries"] == len(complexes) == 3
    assert sum(len(list(cx.all_words())) for cx in complexes) == 8184


def test_each_bimodule_complex_is_built_once(tmp_path, capsys, monkeypatch):
    # spectral and verify hand the complexes they hold to InducedChainMap, so
    # the E^1 columns, F_L and the chain map and comparison checks share one
    # complex per bimodule object
    from ainfty.chains import HochschildComplex

    built = []
    original = HochschildComplex.__init__

    def counted(self, bimodule, *args, **kwargs):
        built.append(bimodule)
        original(self, bimodule, *args, **kwargs)

    monkeypatch.setattr(HochschildComplex, "__init__", counted)
    path = tmp_path / "qip.json"
    path.write_text(serialize(fixture_document("quasi_iso_pair")))
    for argv in (
        ["spectral", str(path), "--module", "M", "--length", "3"],
        ["spectral", str(path)],
        ["verify", str(path)],
    ):
        built.clear()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, out
        counts = Counter(map(id, built))
        assert not sorted(M.name for M in built if counts[id(M)] > 1), argv
        assert {"M", "N"} <= {M.name for M in built}


@pytest.mark.parametrize("command", ["spectral", "verify"])
def test_induced_chain_map_is_built_once_per_morphism(tmp_path, capsys, monkeypatch, command):
    # f_*'s matrices over F_L are built once, by one walk over f's
    # components, and the chain map check, the comparison's E^0 blocks and
    # its conclusion all read them
    from ainfty.chains import HochschildComplex

    walks = []
    original = HochschildComplex._walk

    def counted(self, ops, *args, **kwargs):
        if ops is not self.M.ops:
            walks.append(ops)
        return original(self, ops, *args, **kwargs)

    monkeypatch.setattr(HochschildComplex, "_walk", counted)
    document = fixture_document("quasi_iso_pair")
    path = tmp_path / "qip.json"
    path.write_text(serialize(document))
    code, out, _ = run_cli([command, str(path)], capsys)
    assert code == 0, out
    # one walk per morphism, over its own components
    assert len(walks) == len(document["morphisms"]) > 0
    assert len(set(map(id, walks))) == len(walks)


def test_e1_routes_stay_independent(tmp_path, capsys, monkeypatch):
    # the quotient route slices F_L, which is assembled from every operation
    # entry; were it to read the direct route's arity-one walk, zeroing that
    # walk would leave both routes agreeing. A sign flip would not show,
    # since d and -d have the same homology.
    import ainfty.spectral as spectral

    monkeypatch.setattr(spectral, "_b1_matrices", lambda cx, p, basis: {})
    path = tmp_path / "qip.json"
    path.write_text(serialize(fixture_document("quasi_iso_pair")))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAIL E1 two-path agreement [N]: E1 mismatch at p=0, q=0" in out.splitlines()


def test_cochain_assembly_builds_no_cochain_objects(tmp_path, capsys, monkeypatch):
    # cohomology reads the dual of F_L over the dual bimodule, whose
    # boundaries come from the entry walk: no Cochain is built or
    # re-validated, and no word is visited on its own. The bound is the
    # measured count.
    from ainfty.cochains import Cochain
    from ainfty.graded import GradedModule

    calls = _count_calls(monkeypatch, (GradedModule, "degree_of"), (Cochain, "__init__"))
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, _, _ = run_cli(["cohomology", str(path), "--length", "4"], capsys)
    assert code == 0
    assert calls["__init__"] == 0
    assert calls["degree_of"] <= 426


@pytest.mark.parametrize("command", ["hh", "cohomology"])
def test_image_term_outside_target_degree_exits_3(tmp_path, capsys, monkeypatch, command):
    # a term of b on a word that is not in the target degree is a library
    # bug; the assembler reports it instead of dropping the term. The term is
    # skewed in mu_2's table after validation, where only the walk reads it.
    from ainfty.chains import HochschildComplex
    from ainfty.graded import Element

    original = HochschildComplex.__init__

    def skewed(self, *args, **kwargs):
        original(self, *args, **kwargs)
        mu2 = self.A.ops[2]
        # x.y = xy, plus a term on x, one degree below xy
        mu2.table[("x", "y")] = Element(mu2.output, {"xy": 1, "x": 1})

    monkeypatch.setattr(HochschildComplex, "__init__", skewed)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, err = run_cli([command, str(path), "--length", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "internal error: " in err and "outside the target degree" in err
    assert "Traceback" not in err


def test_internal_invariant_breach_exits_3(tmp_path, capsys, monkeypatch):
    import ainfty.homology as homology

    # doubling the eliminator's recorded rows of U breaks D = U*M*V
    original = homology._eliminate

    def doubled(*args, **kwargs):
        pivots, *rest = original(*args, **kwargs)
        for pivot in pivots:
            pivot[1] = {i: 2 * c for i, c in pivot[1].items()}
        return pivots, *rest

    monkeypatch.setattr(homology, "_eliminate", doubled)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, err = run_cli(["hh", str(path), "--length", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "internal error: SNF self-check failed: D != U*M*V" in err
    assert "Traceback" not in err


def test_heap_only_tamper_exits_3(tmp_path, capsys, monkeypatch):
    import ainfty.homology as homology

    # doubling the U row of the first heap pivot, once, leaves the peel and
    # its certificate whole: only D = U*M*V on the residual can refuse it
    original = homology._eliminate
    tampered = []

    def doubled(*args, **kwargs):
        pivots, u_rest, v_rest, peeled = original(*args, **kwargs)
        if not tampered and len(pivots) > peeled:
            pivot = pivots[peeled]
            pivot[1] = {i: 2 * c for i, c in pivot[1].items()}
            tampered.append(pivot)
        return pivots, u_rest, v_rest, peeled

    monkeypatch.setattr(homology, "_eliminate", doubled)
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, err = run_cli(["hh", str(path), "--length", "3"], capsys)
    assert len(tampered) == 1
    assert code == 3
    assert out == ""
    assert "internal error: SNF self-check failed: D != U*M*V" in err
    assert "Traceback" not in err


def test_v_column_tamper_exits_3(tmp_path, capsys, monkeypatch):
    import ainfty.homology as homology

    # doubling the V'' column of one non-unit pivot, once, doubles that
    # pivot's entry of W = U*M*V'', which the certificate refuses
    original = homology._eliminate
    tampered = []

    def doubled(*args, **kwargs):
        pivots, u_rest, v, peeled = original(*args, **kwargs)
        torsion = [q for q in pivots if q[0] > 1]
        if not tampered and torsion:
            pivot = torsion[0]
            pivot[2] = {j: 2 * x for j, x in (pivot[2] or {pivot[4]: 1}).items()}
            tampered.append(pivot)
        return pivots, u_rest, v, peeled

    monkeypatch.setattr(homology, "_eliminate", doubled)
    path = tmp_path / "tp3.json"
    path.write_text(serialize(fixture_document("truncated_poly3")))
    code, out, err = run_cli(["hh", str(path), "--length", "4"], capsys)
    assert len(tampered) == 1
    assert code == 3
    assert out == ""
    assert "internal error: SNF self-check failed: " in err
    assert "Traceback" not in err


def test_negative_degree_range(tmp_path, capsys):
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    code, out, _ = run_cli(
        ["hh", str(path), "--module", "diagonal", "--length", "3", "--degrees", "-2..0"],
        capsys,
    )
    assert code == 0
    assert "degree -2" in out and "degree 0" in out
    assert "degree 1" not in out


def test_csv_report(tmp_path, capsys):
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        ["hh", str(path), "--length", "3", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["object", "degree", "free_rank", "torsion", "verdict"]
    assert any(r[1] == "2" and r[2] == "1" and r[3] == "2" for r in rows[1:])


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_unwritable_csv_is_an_input_error(tmp_path, capsys, target):
    # IsADirectoryError and FileNotFoundError are reported like an unreadable
    # document: exit 2, no report on stdout and no traceback
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    csv_path = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        ["hh", str(path), "--length", "2", "--csv", str(csv_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert f"input error: --csv: cannot write {csv_path}: " in err
    assert "Traceback" not in err


def test_cup_command(tmp_path, capsys):
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    code, out, _ = run_cli(["cup", str(path)], capsys)
    assert code == 0
    assert "Leibniz" in out


def test_document_cochains_follow_the_length_flag(tmp_path, capsys):
    # document cochains are cut off at arity L + 1 for the resolved L, so
    # --length 0 reads them as options.length 0 does: dual_e cup dual_e
    # reaches arity 2 > 1 and is truncated, and Leibniz is skipped
    runs = []
    for length, flags in ((4, ["--length", "0"]), (0, [])):
        doc = fixture_document("dual_numbers")
        doc["options"]["length"] = length
        path = tmp_path / f"dn{length}.json"
        path.write_text(serialize(doc))
        runs.append(run_cli(["cup", str(path), *flags], capsys)[:2])
    assert runs[0] == runs[1]
    lines = runs[0][1].splitlines()
    assert "cup(dual_e,dual_e): degree 2 (truncated)" in lines
    assert "cup(dual_e,dual_e): Leibniz outside the exact regime, skipped" in lines


@pytest.mark.parametrize("name", ["diagonal", "tensor_square", "dual"])
@pytest.mark.parametrize("command", ["hh", "verify"])
def test_bimodule_may_not_shadow_a_built_in_module(tmp_path, capsys, name, command):
    # a document bimodule named like a built-in coefficient module would be
    # unreachable from --module and would replace the built-in under verify
    doc = fixture_document("quasi_iso_pair")
    doc["bimodules"][name] = doc["bimodules"].pop("M")
    doc["morphisms"]["include"]["source"] = name
    path = tmp_path / "shadow.json"
    path.write_text(serialize(doc))
    code, out, err = run_cli([command, str(path), "--module", name], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        f"input error: bimodules.{name}: the name of a built-in coefficient module"
    )


def test_cup_command_without_cochains(tmp_path, capsys):
    path = tmp_path / "e1.json"
    path.write_text(serialize(fixture_document("exterior1")))
    code, _, err = run_cli(["cup", str(path)], capsys)
    assert code == 2
    assert "no cochains" in err


def test_spectral_command(tmp_path, capsys):
    path = tmp_path / "qi.json"
    path.write_text(serialize(fixture_document("quasi_iso_pair")))
    code, out, _ = run_cli(["spectral", str(path), "--module", "M", "--length", "3"], capsys)
    assert code == 0
    assert "comparison witnessed [include]" in out


def test_cohomology_command(tmp_path, capsys):
    path = tmp_path / "dn.json"
    path.write_text(serialize(fixture_document("dual_numbers")))
    code, out, _ = run_cli(["cohomology", str(path), "--length", "2"], capsys)
    assert code == 0
    assert "HH^*(diagonal)" in out


@pytest.mark.parametrize(
    "command, row",
    [
        ("hh", "HH(diagonal)  degree 2: Z^4 + Z/3"),
        ("cohomology", "HH^*(diagonal)  degree -1: Z^3"),
    ],
)
def test_equation_bound_keeps_every_operation(tmp_path, capsys, command, row):
    # options.max_rs bounds only the equation checks: the diagonal of
    # mu3_square_zero keeps its mu_(r,s) with r + s = 2 under a bound of 1
    runs = []
    for max_rs in (1, 4):
        doc = fixture_document("mu3_square_zero")
        doc["options"]["max_rs"] = max_rs
        path = tmp_path / f"max_rs{max_rs}.json"
        path.write_text(serialize(doc))
        runs.append(run_cli([command, str(path), "--length", "3"], capsys)[:2])
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 0
    assert row in out.splitlines()


def test_console_entry_point():
    # the child imports the package the tests imported, installed or not
    import ainfty

    package_root = os.path.dirname(os.path.dirname(ainfty.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ainfty.cli"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


def test_the_shared_parser_holds_no_state(tmp_path, capsys):
    # one parser serves every main call in a process; after a call that
    # argparse refuses, and one whose range _glue_degree_ranges folds in,
    # each call still exits and prints as a fresh process does
    import ainfty

    assert build_parser() is build_parser()
    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    package_root = os.path.dirname(os.path.dirname(ainfty.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    }
    calls = [
        ["hh", str(path), "--length", "3", "--degrees"],
        ["hh", str(path), "--length", "3", "--degrees", "-2..4"],
        ["hh", str(path), "--length", "3"],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "ainfty", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [2, 0, 0]


def _stdout_of(command, text):
    """Exit code and stdout of one CLI command at length 3 on a document given as text."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path, "--length", "3"])
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def _plain_report(command, name):
    return _stdout_of(command, serialize(fixture_document(name)))


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reports_invariant_under_relabelled_bases(seed):
    # listing the algebra and bimodule bases in another order changes the
    # enumeration and the matrices, but not a single byte of the reports
    for name in FIXTURE_NAMES:
        text = serialize(reordered_document(name, seed))
        for command in ("hh", "cohomology"):
            expected = _plain_report(command, name)
            assert expected[0] == 0
            assert _stdout_of(command, text) == expected, (name, command, seed)


@settings(max_examples=5)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_spectral_and_verify_invariant_under_relabelled_bases(seed):
    # the E^1 pages, the comparison check and every verify identity read
    # matrices whose rows and columns follow the basis order; their reports
    # must not
    for name in FIXTURE_NAMES:
        text = serialize(reordered_document(name, seed))
        for command in ("spectral", "verify"):
            expected = _plain_report(command, name)
            assert expected[0] == 0
            assert _stdout_of(command, text) == expected, (name, command, seed)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cohomology_rows_match_the_cochain_complex_oracle(tmp_path, capsys, name):
    # cohomology reads H^j as the dual of F_L over the dual bimodule; the
    # former route factors the cochain complex itself. Both must give the
    # same rows, also for --degrees ranges past the basis.
    from ainfty.cli import resolve_bimodule

    for ring in ({"kind": "Z"}, {"kind": "Zp", "p": 2}, {"kind": "Zp", "p": 3}):
        raw = fixture_document(name)
        raw["ring"] = ring
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(raw))
        doc = parse(serialize(raw))
        modules = ["diagonal", "tensor_square", "dual", *sorted(doc.bimodules)]
        for module in modules:
            for L in (2, 3) if module == "tensor_square" else (3, 4):
                oracle = cochain_complex(resolve_bimodule(doc, module), L)
                # the oracle is graded by -j
                lo, hi = -max(oracle.basis) - 2, -min(oracle.basis) + 2
                for degrees in (sorted(-k for k in oracle.basis), range(lo, hi + 1)):
                    argv = ["cohomology", str(path), "--module", module, "--length", str(L)]
                    if isinstance(degrees, range):
                        argv += ["--degrees", f"{lo}..{hi}"]
                    code, out, _ = run_cli(argv, capsys)
                    assert code == 0, (name, ring, module, L)
                    rows = [line for line in out.splitlines() if line.startswith("HH^*")]
                    expected = [
                        f"HH^*({module})  degree {j}: {oracle.homology(-j)}" for j in degrees
                    ]
                    assert rows == expected, (name, ring, module, L)


@pytest.mark.parametrize(
    "document,command,module,length,key,degree",
    [
        ("mu3_broken", "hh", "tensor_square", 3, "('a|a', 'c')", 4),
        ("mu3_broken", "hh", "dual", 4, "('a^', 'a')", 0),
        ("mu3_broken", "cohomology", "tensor_square", 3, "('b|c^', 'a')", -2),
        ("mu3_broken", "cohomology", "dual", 4, "('a^^', 'c')", 3),
        ("nonassoc", "hh", "tensor_square", 3, "('a|z', 'z', 'a', 'a')", 1),
        ("nonassoc", "hh", "dual", 4, "('e^', 'a', 'a', 'z', 'z')", -1),
        ("nonassoc", "cohomology", "tensor_square", 3, "('a|e^', 'z', 'a', 'a')", -1),
        ("nonassoc", "cohomology", "dual", 4, "('a^^', 'a', 'a', 'z', 'z')", 1),
    ],
)
def test_non_complex_names_degree_and_first_key(
    tmp_path, capsys, document, command, module, length, key, degree
):
    # the first pair of boundaries that fails to compose to zero names its
    # degree and the first basis key, in basis order, whose column of the
    # composite is nonzero; for cohomology that is a word of the dual bimodule
    path = tmp_path / f"{document}.json"
    path.write_text(serialize(_broken_documents()[document]))
    argv = [command, str(path), "--module", module, "--length", str(length)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        f"input error: composite of boundary maps is nonzero on {key} in degree {degree}"
    )


def test_hh_and_cohomology_build_no_word_tuples(tmp_path, capsys, monkeypatch):
    # F_L's bases are rank runs: hh and cohomology enumerate no word tuples,
    # and give the same reports, exit codes and failure messages without them
    from ainfty.chains import HochschildComplex

    documents = {}
    for name in FIXTURE_NAMES:
        for ring in ({"kind": "Z"}, {"kind": "Zp", "p": 2}, {"kind": "Zp", "p": 3}):
            doc = fixture_document(name)
            doc["ring"] = ring
            documents[f"{name}_{ring.get('p', 0)}"] = doc
    documents.update(_broken_documents())
    jobs = []
    for stem, doc in documents.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(serialize(doc))
        for command in ("hh", "cohomology"):
            for module in ("diagonal", "tensor_square", "dual"):
                jobs.append([command, str(path), "--module", module, "--length", "3"])

    def run(argv):
        code, out, err = run_cli(argv, capsys)
        return code, out, [line for line in err.splitlines() if not line.startswith("elapsed")]

    expected = [run(argv) for argv in jobs]
    assert {code for code, _, _ in expected} == {0, 2}

    def refuse(self, n):
        raise AssertionError(f"word tuples of length {n} built")

    monkeypatch.setattr(HochschildComplex, "words", refuse)
    for argv, want in zip(jobs, expected):
        assert run(argv) == want, argv


@pytest.mark.parametrize("command", ["hh", "cohomology"])
def test_oversized_truncation_exits_2_before_enumerating(tmp_path, capsys, command):
    import time

    path = tmp_path / "e2.json"
    path.write_text(serialize(fixture_document("exterior2")))
    started = time.monotonic()
    code, out, err = run_cli([command, str(path), "--length", "12"], capsys)
    assert time.monotonic() - started < 1
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        "input error: F_12 has 89478484 words, above the limit of 1000000"
    )


@pytest.mark.parametrize(
    "job",
    [
        ["hh", "--module", "diagonal"],
        ["hh", "--module", "dual"],
        ["hh", "--module", "tensor_square"],
        ["cohomology"],
        ["cup"],
        ["spectral"],
        ["validate"],
        ["verify"],
    ],
)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_diagonal_bimodule_per_job(tmp_path, capsys, monkeypatch, name, job):
    # the diagonal A[1]'s tables are built and validated once per algebra:
    # parsing a DGA (from_dga checks its equations on them), the module,
    # validate, cup and verify all share them
    import ainfty.bimodules as bimodules

    built = Counter()
    original = bimodules.bimodule_op

    def counted(algebra, module, r, s, table, label=""):
        built[label] += 1
        return original(algebra, module, r, s, table, label)

    monkeypatch.setattr(bimodules, "bimodule_op", counted)
    path = tmp_path / f"{name}.json"
    path.write_text(serialize(fixture_document(name)))
    code, _, _ = run_cli([job[0], str(path), "--length", "2", *job[1:]], capsys)
    diagonal = [n for label, n in built.items() if label.startswith("A[1] ")]
    assert code in (0, 2) and max(diagonal, default=0) <= 1


@pytest.mark.parametrize("ring", [{"kind": "Z"}, {"kind": "Zp", "p": 3}])
@pytest.mark.parametrize("command", ["hh", "cohomology", "spectral", "verify"])
def test_no_library_path_reads_the_entries_view(tmp_path, capsys, monkeypatch, command, ring):
    # the (i, j) -> c view is built on access for outside readers; the
    # library reads rows, so a view that refuses to build changes no report
    from ainfty.homology import ExactMatrix

    def refused(self):
        raise AssertionError("ExactMatrix.entries read by the library")

    doc = fixture_document("quasi_iso_pair")
    doc["ring"] = ring
    path = tmp_path / "q.json"
    path.write_text(serialize(doc))
    expected = run_cli([command, str(path), "--length", "3"], capsys)[:2]
    monkeypatch.setattr(ExactMatrix, "entries", property(refused))
    assert run_cli([command, str(path), "--length", "3"], capsys)[:2] == expected
    assert expected[0] == 0
