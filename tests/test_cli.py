"""End-to-end command tests: every exit code path, byte determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyaut
from polyaut.cli import MAX_ITERATE_TIMES, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(polyaut.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# exit 0: success paths

def test_compose_inverse_pair_gives_identity(capsys):
    code, out, _ = run(
        capsys, "compose", "--n", "2",
        "--map", "X+Y^2, Y", "--map", "X-Y^2, Y",
    )
    assert code == 0
    assert out == "x1, x2\n"


def test_compose_is_left_to_right(capsys):
    code, out, _ = run(
        capsys, "compose", "--n", "2",
        "--map", "2*x1, x2", "--map", "x1 + 1, x2",
    )
    assert code == 0
    assert out == "2*x1 + 2, x2\n"


def test_compose_from_files(capsys, tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text('{"n": 2, "coords": ["x1 + x2^2", "x2"]}')
    f2.write_text('{"n": 2, "coords": ["x1 - x2^2", "x2"]}')
    code, out, _ = run(capsys, "compose", "--file", str(f1), "--file", str(f2))
    assert code == 0
    assert out == "x1, x2\n"


def test_iterate(capsys):
    code, out, _ = run(
        capsys, "iterate", "--n", "2", "--map", "X+Y^2, Y", "--times", "3"
    )
    assert code == 0
    assert out == "x1 + 3*x2^2, x2\n"
    # the cap on the count is inclusive
    code, out, _ = run(capsys, "iterate", "--n", "2", "--map", "X, Y",
                       "--times", str(MAX_ITERATE_TIMES))
    assert (code, out) == (0, "x1, x2\n")


def test_iterate_json(capsys):
    code, out, _ = run(
        capsys, "iterate", "--n", "2", "--map", "X+Y^2, Y", "--times", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"n": 2, "coords": ["x1", "x2"]}


def test_jacobian(capsys):
    code, out, _ = run(
        capsys, "jacobian", "--n", "3",
        "--map", "X - 2*Y*(Y^2+X*Z) - Z*(Y^2+X*Z)^2, Y + Z*(Y^2+X*Z), Z",
    )
    assert code == 0
    assert out == "1\n"


def test_lf_certify_certified(capsys):
    code, out, _ = run(capsys, "lf-certify", "--n", "2", "--map", "X+Y^2, Y")
    assert code == 0
    assert "verdict: CertifiedLF" in out
    assert "minimal_polynomial: T^2 - 2*T + 1" in out


def test_zero_iterate_degree_is_minus_inf_in_text_and_null_in_json(capsys):
    code, out, _ = run(capsys, "lf-certify", "--n", "1", "--map", "0")
    assert code == 0
    assert "iterate_degrees: 1 -inf\n" in out
    code, out, _ = run(capsys, "lf-certify", "--n", "1", "--map", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["iterate_degrees"] == [1, None]


def test_minpoly_invert(capsys):
    code, out, _ = run(capsys, "minpoly-invert", "--n", "2", "--map", "X+Y^2, Y")
    assert code == 0
    assert "inverse: x1 - x2^2, x2" in out


def test_minpoly_invert_json(capsys):
    code, out, _ = run(
        capsys, "minpoly-invert", "--n", "2", "--map", "2*x1, 3*x2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal_polynomial"] == ["6", "-5", "1"]
    assert doc["inverse"]["coords"] == ["1/2*x1", "1/3*x2"]


def test_normal_form(capsys, tmp_path):
    word = tmp_path / "word.json"
    word.write_text(json.dumps({
        "n": 2,
        "factors": [
            {"kind": "diagonal", "c": ["2", "1"]},
            {"kind": "elementary", "i": 2, "g": "x1^2"},
        ],
    }))
    code, out, _ = run(capsys, "normal-form", "--file", str(word),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["recomposition_verified"] is True
    assert doc["factors"] == [
        {"kind": "elementary", "i": 2, "g": "1/4*x1^2"},
        {"kind": "diagonal", "c": ["2", "1"]},
    ]


def test_witness_obs2(capsys):
    code, out, _ = run(capsys, "witness-obs2", "--n", "2", "--map", "X+Y^2, Y")
    assert code == 0
    assert "F^-1 o D o F = 2*x1 + x2^2, x2" in out


def test_witness_obs3_json(capsys):
    code, out, _ = run(
        capsys, "witness-obs3", "--n", "2", "--map", "X+Y^3, Y",
        "--a", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["conjugator"]["coords"] == ["x1 + 1/15*x2^3", "x2"]
    assert doc["diagonal"]["coords"] == ["2*x1", "1/2*x2"]


def test_nagata_verify(capsys):
    code, out, _ = run(capsys, "nagata-verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert all(line.endswith("ok") for line in lines)


def test_parse_check_canonicalizes(capsys):
    code, out, _ = run(
        capsys, "parse-check", "--n", "2", "--map", "Y  +0+ X*X^0, Y"
    )
    assert code == 0
    assert out == "x1 + x2, x2\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_map_file_is_parsed_once(capsys, tmp_path, monkeypatch, fmt):
    # each coordinate of a --file document is parsed once, on reading;
    # output renders the map and parses nothing back
    from polyaut import textio

    calls = []
    real = textio.parse_poly
    monkeypatch.setattr(textio, "parse_poly",
                        lambda text, n: calls.append(text) or real(text, n))
    coords = ["x1 + x2^2", "x2 - 1/2", "3*x3*x1", "x4"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 4, "coords": coords}))
    code, out, _ = run(capsys, "parse-check", "--file", str(path), "--format", fmt)
    assert code == 0
    assert calls == coords
    calls.clear()
    code, out, _ = run(capsys, "compose", "--n", "2", "--map", "X+Y^2, Y",
                       "--map", "Y, X", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "coords": ["x1^2 + x2", "x1"]}
    assert calls == []


# ----------------------------------------------------------------------
# exit 1: verification false

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_witness_gives_exit_1(capsys, monkeypatch, fmt):
    import polyaut.witness
    from polyaut.poly import VerificationError

    def fails(e):
        raise VerificationError("witness chain does not recompose to F")

    monkeypatch.setattr(polyaut.witness, "witness_obs2", fails)
    code, out, err = run(capsys, "witness-obs2", "--n", "2", "--map", "X+Y^2, Y",
                         "--format", fmt)
    assert code == 1
    assert out == ""
    assert err == "polyaut: verification failed: witness chain does not recompose to F\n"


def test_error_classes_are_shared_by_every_module():
    import polyaut
    from polyaut import cli, locfin, poly, tame, witness

    for name in ("InconsistencyError", "VerificationError"):
        home = getattr(poly, name)
        assert getattr(polyaut, name) is home
        assert getattr(cli, name) is home
    assert locfin.InconsistencyError is tame.InconsistencyError is poly.InconsistencyError
    assert witness.VerificationError is poly.VerificationError
    assert issubclass(poly.InconsistencyError, ValueError)


def test_digit_cap_is_restored_after_main(capsys):
    # main lifts the int <-> str cap for its own call only, so the results
    # of any size print, and the caller's cap stands afterwards
    import sys

    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit cap")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever ran before
    try:
        code, out, _ = run(capsys, "parse-check", "--n", "1", "--map", "(2^15000)*x1")
        assert code == 0 and len(out) == 4516 + len("*x1\n")  # 2^15000: 4516 digits
        assert sys.get_int_max_str_digits() == 4300
        code, _, _ = run(capsys, "parse-check", "--n", "1", "--map", "X+")
        assert code == 3 and sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


# ----------------------------------------------------------------------
# exit 2: Unknown verdict

def test_henon_gives_exit_2(capsys):
    code, out, _ = run(capsys, "lf-certify", "--n", "2", "--map", "Y, X+Y^2")
    assert code == 2
    assert "verdict: Unknown" in out
    assert "iterate_degrees: 1 2 4 8" in out


def test_minpoly_invert_unknown_gives_exit_2(capsys):
    code, out, _ = run(capsys, "minpoly-invert", "--n", "2", "--map", "Y, X+Y^2")
    assert code == 2
    assert "verdict: Unknown" in out


def test_budget_flags_respected(capsys):
    code, out, _ = run(
        capsys, "lf-certify", "--n", "2", "--map", "X+Y^2, Y",
        "--budget-iter", "1",
    )
    assert code == 2


# ----------------------------------------------------------------------
# exit 3: unusable input

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_minpoly_without_constant_term_gives_exit_3(capsys, fmt):
    # the zero map certifies with mu = T, whose constant term is zero: no
    # inverse can be read off it, which is unusable input, not a failed check
    for n, text in [("1", "0"), ("2", "0, 0")]:
        code, out, err = run(capsys, "minpoly-invert", "--n", n, "--map", text,
                             "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("polyaut: error:") and "no inverse" in err


def test_parse_error_gives_exit_3(capsys):
    code, _, err = run(capsys, "parse-check", "--n", "2", "--map", "x1 + (")
    assert code == 3
    assert "error" in err


def test_deep_nesting_gives_exit_3(capsys):
    code, _, err = run(capsys, "parse-check", "--n", "1",
                       "--map", "(" * 3000 + "x1" + ")" * 3000)
    assert code == 3
    assert "nested too deeply" in err


@pytest.mark.parametrize("subcommand, text", [
    ("normal-form", "[" * 200000),
    ("parse-check", '{"n": 1, "coords": ' + "[" * 200000),
])
def test_deeply_nested_json_gives_exit_3(capsys, tmp_path, subcommand, text):
    doc = tmp_path / "deep.json"
    doc.write_text(text)
    code, out, err = run(capsys, subcommand, "--file", str(doc))
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["polyaut: error: invalid JSON: nested too deeply"]


def test_wrong_coordinate_count_gives_exit_3(capsys):
    code, _, err = run(capsys, "parse-check", "--n", "3", "--map", "x1, x2")
    assert code == 3


@pytest.mark.parametrize("n", [2**62, 10**20])
def test_huge_n_is_counted_before_parsing(capsys, n):
    # each polynomial has n-entry exponent tuples: one of 2^62 entries
    # cannot be allocated, and one of 10^20 does not fit an index
    code, out, err = run(capsys, "parse-check", "--n", str(n), "--map", "x1")
    assert (code, out) == (3, "")
    assert err == f"polyaut: error: expected {n} comma-separated coordinates, got 1 (at position 2)\n"


def test_missing_map_gives_exit_3(capsys):
    code, _, err = run(capsys, "lf-certify", "--n", "2")
    assert code == 3
    assert "need a map" in err


@pytest.mark.parametrize("subcommand", ["compose", "jacobian"])
@pytest.mark.parametrize("flags, message", [
    ([], "need a map: --map EXPRS or --file PATH"),
    (["--map", "x1"], "--n is required with an inline --map"),
    (["--n", "1", "--map", "x1", "--file", "m.json"], "give --map or --file, not both"),
])
def test_map_flags_are_checked_alike(capsys, subcommand, flags, message):
    # compose repeats --map and --file, but loads through the same checks
    code, out, err = run(capsys, subcommand, *flags)
    assert (code, out) == (3, "")
    assert err == f"polyaut: error: {message}\n"


ONE_MAP = [["iterate", "--times", "2"], ["jacobian"], ["lf-certify"], ["minpoly-invert"],
           ["witness-obs2"], ["witness-obs3"], ["parse-check"]]


@pytest.mark.parametrize("argv, doc, message", [
    *(pytest.param([*cmd, "--n", "2", flag, value, flag, value],
                   '{"n": 2, "coords": ["x1 + x2^2", "x2"]}',
                   "give one --map or --file; only compose takes several",
                   id=f"{cmd[0]}{flag}")
      for cmd in ONE_MAP for flag, value in (("--map", "x1 + x2^2, x2"), ("--file", "DOC"))),
    pytest.param(["normal-form", "--file", "DOC", "--file", "DOC"],
                 '{"n": 2, "factors": [{"kind": "diagonal", "c": ["2", "1"]}]}',
                 "give one --file", id="normal-form--file"),
])
def test_a_repeated_map_or_word_gives_exit_3(capsys, tmp_path, argv, doc, message):
    # only compose reads several maps; any other subcommand refuses a
    # second one rather than dropping all but the last
    path = tmp_path / "doc.json"
    path.write_text(doc)
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert (code, out) == (3, "")
    assert err == f"polyaut: error: {message}\n"


def test_map_and_file_together_give_exit_3(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text('{"n": 1, "coords": ["x1"]}')
    code, _, _ = run(capsys, "jacobian", "--n", "1", "--map", "x1",
                     "--file", str(f))
    assert code == 3


def test_n_contradicting_file_gives_exit_3(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text('{"n": 2, "coords": ["x1", "x2"]}')
    code, _, err = run(capsys, "jacobian", "--n", "3", "--file", str(f))
    assert code == 3
    assert "contradicts" in err


def test_missing_file_gives_exit_3(capsys):
    code, _, _ = run(capsys, "jacobian", "--file", "/nonexistent/map.json")
    assert code == 3


def test_bad_word_document_gives_exit_3(capsys, tmp_path):
    word = tmp_path / "word.json"
    word.write_text('{"n": 2, "factors": [{"kind": "diagonal", "c": ["0", "1"]}]}')
    code, _, _ = run(capsys, "normal-form", "--file", str(word))
    assert code == 3


@pytest.mark.parametrize("factor", [
    '{"kind": "diagonal", "c": [0.1, "1"]}',
    '{"kind": "elementary", "i": true, "g": "x2"}',
])
def test_inexact_word_scalars_give_exit_3(capsys, tmp_path, factor):
    word = tmp_path / "word.json"
    word.write_text('{"n": 2, "factors": [%s]}' % factor)
    code, _, _ = run(capsys, "normal-form", "--file", str(word))
    assert code == 3


@pytest.mark.parametrize("factor, message", [
    ({"kind": "elementary", "i": 2, "g": 5}, "'g' must be a string, got 5"),
    ({"kind": "elementary", "i": 2, "g": ["x1"]}, "'g' must be a string, got ['x1']"),
    ({"kind": "affine", "A": None, "b": ["0", "0"]}, "'A' must be a list of rows, got None"),
])
def test_word_field_of_the_wrong_type_gives_exit_3(capsys, tmp_path, factor, message):
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"n": 2, "factors": [factor]}))
    code, out, err = run(capsys, "normal-form", "--file", str(word))
    assert (code, out, err) == (3, "", f"polyaut: error: {message}\n")


def test_non_elementary_witness_input_gives_exit_3(capsys):
    code, _, err = run(capsys, "witness-obs2", "--n", "2", "--map", "x2, x1")
    assert code == 3
    assert "elementary" in err


def test_obs3_bad_a_gives_exit_3(capsys):
    code, _, _ = run(
        capsys, "witness-obs3", "--n", "2", "--map", "X+Y^2, Y", "--a", "1"
    )
    assert code == 3


def test_unknown_flag_gives_exit_3(capsys):
    code, _, _ = run(capsys, "lf-certify", "--n", "2", "--map", "X, Y",
                     "--frobnicate")
    assert code == 3


def test_unknown_subcommand_gives_exit_3(capsys):
    code, _, _ = run(capsys, "transmogrify")
    assert code == 3


def test_no_subcommand_gives_exit_3(capsys):
    code, _, _ = run(capsys)
    assert code == 3


def test_negative_times_gives_exit_3(capsys):
    for times in ("-1", str(MAX_ITERATE_TIMES + 1)):
        code, out, err = run(capsys, "iterate", "--n", "2", "--map", "X, Y",
                             "--times", times)
        assert code == 3
        assert out == "" and len(err.splitlines()) == 1


def test_huge_times_is_refused_at_once():
    # the orbit keeps every iterate, so without the cap this never ends
    proc = subprocess.run(
        [sys.executable, "-m", "polyaut.cli", "iterate", "--n", "2", "--map", "x1 + 1, x2",
         "--times", "99999999999999999999"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        f"polyaut: error: --times 99999999999999999999 is above the cap {MAX_ITERATE_TIMES}\n")


# ----------------------------------------------------------------------
# determinism

def test_byte_identical_output_across_runs(capsys):
    argv = ["lf-certify", "--n", "3",
            "--map", "X - 2*Y*(Y^2+X*Z) - Z*(Y^2+X*Z)^2, Y + Z*(Y^2+X*Z), Z",
            "--format", "json"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


# ----------------------------------------------------------------------
# rationals read from text: exactly p or p/q with q != 0

BAD_RATIONALS = ["1/0", "-3/0", "1e999999999", "0.5", " 2", "+2", "1/-2", "", "١"]


@pytest.mark.parametrize("text", BAD_RATIONALS)
@pytest.mark.parametrize("field", ["c", "A", "b"])
def test_bad_rational_in_word_document_gives_exit_3(capsys, tmp_path, field, text):
    factor = {"kind": "diagonal", "c": [text, "1"]} if field == "c" else {
        "kind": "affine", "A": [[text, "0"], ["0", "1"]] if field == "A" else
        [["1", "0"], ["0", "1"]], "b": [text, "0"] if field == "b" else ["0", "0"]}
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"n": 2, "factors": [factor]}))
    code, out, err = run(capsys, "normal-form", "--file", str(word))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("polyaut: error: ")


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_bad_obs3_scale_gives_exit_3(capsys, text):
    code, out, err = run(
        capsys, "witness-obs3", "--n", "2", "--map", "X+Y^3, Y", "--a=" + text
    )
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("polyaut: error: ")


def test_rational_strings_and_integers_are_read_exactly(capsys, tmp_path):
    word = tmp_path / "word.json"
    word.write_text('{"n": 2, "factors": [{"kind": "diagonal", "c": ["-6/4", 3]}]}')
    code, out, _ = run(capsys, "normal-form", "--file", str(word))
    assert code == 0
    assert out.splitlines()[0] == '{"kind": "diagonal", "c": ["-3/2", "3"]}'
    code, out, _ = run(capsys, "witness-obs3", "--n", "2", "--map", "X+Y, Y",
                       "--a=-6/4")
    assert code == 0
    assert "a = -3/2, j = 2" in out


def test_negative_fraction_scale_is_written_with_equals_sign(capsys):
    # after a space, argparse takes "-6/4" for an option; the help text
    # and the README give this form
    code, out, _ = run(capsys, "witness-obs3", "--n", "2", "--map", "X + Y^3, Y",
                       "--a=-6/4")
    assert code == 0
    assert "a = -3/2, j = 2" in out


# ----------------------------------------------------------------------
# error lines quote at most a short piece of a value read from a document

# a list nested 600 deep, spliced into the document text; nesting much
# deeper meets the JSON reader's recursion limit under pytest, which is
# its own error (test_deeply_nested_json_gives_exit_3)
DEEP = "<deep>"
LONG = "x" * 3000


@pytest.mark.parametrize("subcommand, doc", [
    ("parse-check", {"n": 1, "coords": ["x1"], "name": DEEP}),
    ("parse-check", {"n": 1, "coords": ["x1"], "notes": DEEP}),
    ("parse-check", {"n": DEEP, "coords": ["x1"]}),
    ("parse-check", {"n": 1, "coords": ["x1"], LONG: 1}),
    ("parse-check", {"n": 1, "coords": [LONG]}),
    ("parse-check", {"n": 1, "coords": ["x1 " + "1" * 3000]}),
    ("normal-form", {"n": 1, "factors": [DEEP]}),
    ("normal-form", {"n": DEEP, "factors": []}),
    ("normal-form", {"n": 2, "factors": [{"kind": "elementary", "i": DEEP, "g": "x2"}]}),
    ("normal-form", {"n": 2, "factors": [{"kind": "elementary", "i": 10**3000, "g": "x2"}]}),
    ("normal-form", {"n": 1, "factors": [{"kind": DEEP}]}),
    ("normal-form", {"n": 1, "factors": [{"kind": "diagonal", "c": DEEP}]}),
    ("normal-form", {"n": 1, "factors": [{"kind": "diagonal", "c": [DEEP]}]}),
    ("normal-form", {"n": 1, "factors": [{"kind": "diagonal", "c": ["1" * 3000 + "x"]}]}),
    # an index past the dimension; 5000 digits exceed int()'s digit limit
    ("parse-check", {"n": 1, "coords": ["x" + "9" * 3000]}),
    ("parse-check", {"n": 1, "coords": ["x" + "9" * 5000]}),
    # digits are the ASCII 0-9, as in every other number of the documents
    ("parse-check", {"n": 1, "coords": ["\u0663"]}),
    ("parse-check", {"n": 1, "coords": ["x1^\uff19"]}),
    # a word dimension far above the cap, quoted in the refusal
    ("normal-form", {"n": 10**3000, "factors": []}),
])
def test_error_line_stays_short(capsys, tmp_path, subcommand, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace(json.dumps(DEEP), "[" * 600 + "]" * 600))
    code, out, err = run(capsys, subcommand, "--file", str(path))
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200, lines[0][:300]
    assert lines[0].startswith("polyaut: error: ")
    assert "nested too deeply" not in lines[0]



# ----------------------------------------------------------------------
# fuzzing: any text, any JSON document, ends in a documented exit code

def _mostly(good, other):
    """Draws from good three times in four, else from other (one_of would
    merge repeated branches)."""
    return st.integers(0, 3).flatmap(lambda k: good if k else other)


# expressions of the grammar, and text near it with any character in it
_EXPR = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "X", "Y", "Z", "0", "1", "2", "1/2", "-3/4"]),
    lambda e: (st.tuples(e, st.sampled_from([" + ", " - ", "*", "/"]), e).map("".join)
               | st.tuples(e, st.sampled_from(["0", "1", "2", "3", "9"]))
               .map(lambda t: f"({t[0]})^{t[1]}")
               | e.map("-".__add__)),
    max_leaves=6,
)
_NOISE = st.lists(
    _mostly(st.sampled_from(["x1", "x2", "x4", "X", "Y", "Z", "0", "12", "1/2", "+", "-",
                             "*", "/", "^", "^2", "^9", "(", ")", ",", " "]),
            st.characters()),
    max_size=20,
).map("".join)
COORD = _mostly(_EXPR, _NOISE)

# exponents have no budget yet, and nested powers multiply degrees, so the
# exponents of one input multiply to at most 9 (iterate, which has no budget
# either, is left out)
_EXPONENT = re.compile(r"\^\s*([0-9]+)")


def _bounded_powers(text):
    return prod(max(int(e), 1) for e in _EXPONENT.findall(text)) <= 9


_BUDGETS = ["--budget-iter", "6", "--budget-deg", "16"]


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _check_both_formats(argv):
    """Exit code in 0..3 and equal in both formats, stdout the same bytes on
    a rerun and empty unless there is a result (exit 0 or 2), and the JSON
    output parses."""
    if argv[0] in ("lf-certify", "minpoly-invert"):
        argv = argv + _BUDGETS
    codes = set()
    for fmt in ("text", "json"):
        code, out = _main_captured(argv + ["--format", fmt])
        assert code in (0, 1, 2, 3), (argv, code)
        assert _main_captured(argv + ["--format", fmt]) == (code, out)
        if code in (1, 3):
            assert out == ""
        elif fmt == "json":
            json.loads(out)
        codes.add(code)
    assert len(codes) == 1, argv


@st.composite
def map_texts(draw):
    """(n, --map text): n coordinates, half the time all but one of them
    the identity's, and one time in four a dimension that may not fit."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coords = [f"x{k + 1}" for k in range(n)]
        coords[draw(st.integers(0, n - 1))] += " + " + draw(COORD)
    else:
        coords = draw(st.lists(COORD, min_size=n, max_size=n))
    return draw(_mostly(st.just(n), st.integers(-1, 4))), ", ".join(coords)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["parse-check", "compose", "jacobian", "lf-certify", "minpoly-invert",
                        "witness-obs2", "witness-obs3"]), map_texts())
def test_any_map_text_ends_in_a_documented_exit(subcommand, n_text):
    n, text = n_text
    assume(_bounded_powers(text))
    _check_both_formats([subcommand, "--n", str(n), "--map=" + text])


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from([2**62, -10**30])
    | st.floats() | st.sampled_from(["elementary", "diagonal", "affine", "1", "-1/2"]) | COORD,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["n", "coords", "factors", "kind", "c"])
                                     | st.text(max_size=3), inner, max_size=5)),
    max_leaves=20,
)


@st.composite
def json_documents(draw, word):
    """A tame word (word true) or a map document, one field in four on
    average replaced by any JSON value; or any JSON value at all."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_ANY_JSON)

    def field(good):
        return draw(_mostly(good, _ANY_JSON))

    n = draw(st.integers(1, 3))
    vec = st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"]), min_size=n, max_size=n)
    if not word:
        return {"n": field(st.just(n)), "coords": field(st.lists(COORD, min_size=n, max_size=n))}
    factors = []
    for kind in draw(st.lists(st.sampled_from(["elementary", "diagonal", "affine"]), max_size=4)):
        if kind == "elementary":
            factors.append({"kind": kind, "i": field(st.integers(1, n)), "g": field(COORD)})
        elif kind == "diagonal":
            factors.append({"kind": kind, "c": field(vec)})
        else:
            factors.append({"kind": kind, "A": field(st.lists(vec, min_size=n, max_size=n)),
                            "b": field(vec)})
    return {"n": field(st.just(n)), "factors": factors}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["normal-form", "parse-check", "lf-certify"]), st.data())
def test_any_json_document_ends_in_a_documented_exit(subcommand, data):
    doc = data.draw(json_documents(word=subcommand == "normal-form"))
    assume(_bounded_powers(json.dumps(doc, ensure_ascii=False)))
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        _check_both_formats([subcommand, "--file", path])
