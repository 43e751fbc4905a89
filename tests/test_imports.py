"""Import layering, checked in fresh interpreters.

Tests that import modules in process see whatever earlier tests loaded, so
an import-order cycle or a missing lazy import would go unnoticed there.
Each test here starts `python` anew and reports what it loaded.
"""

import importlib.util
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import polyaut

SRC = str(Path(polyaut.__file__).resolve().parent.parent)

# what `import polyaut.cli` loads; every subcommand loads at least this
BASE = {"polyaut", "polyaut.cli", "polyaut.poly", "polyaut.endo", "polyaut.textio"}
LOCFIN = BASE | {"polyaut.locfin", "polyaut.linalg"}
TAME = BASE | {"polyaut.tame"}
WITNESS = TAME | {"polyaut.witness"}

# prints the exit code of polyaut.cli.main on argv and the modules loaded
# by then, as the last line of stderr
_RUN_CLI = """
import sys
import polyaut.cli
code = polyaut.cli.main(sys.argv[1:])
sys.stdout.flush()
loaded = [m for m in sys.modules
          if m.startswith("polyaut") or m in ("json", "dataclasses", "inspect")]
print(code, *sorted(loaded), file=sys.stderr)
"""


def fresh(code, *argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_package_and_cli_import_no_heavy_layer():
    out = fresh(
        "import sys, polyaut, polyaut.cli; print(' '.join(sorted(sys.modules)))"
    ).stdout.split()
    for name in ("dataclasses", "inspect", "polyaut.locfin", "polyaut.linalg",
                 "polyaut.tame", "polyaut.witness"):
        assert name not in out


def test_linalg_imports_no_other_polyaut_module():
    # the determinant works on ints alone, so linalg stands on its own
    out = fresh(
        "import sys, polyaut.linalg\n"
        "print(*sorted(m for m in sys.modules if m.startswith('polyaut')))"
    ).stdout.split()
    assert out == ["polyaut", "polyaut.linalg"]


def test_leading_orbit_proves_degrees_in_the_base_layer():
    # the degree predictor needs neither the certificate search nor the
    # elimination, and on a Henon map it composes nothing: deg g^m = 2^m
    out = fresh(
        "import sys\n"
        "from polyaut.endo import Endo, LeadingOrbit\n"
        "from polyaut.textio import parse_map\n"
        "def refuse(self, other):\n"
        "    raise AssertionError('composed')\n"
        "Endo.compose = refuse\n"
        "orbit = LeadingOrbit(parse_map('Y, X + Y^2', 2), 2**61 - 1)\n"
        "print(*(max(orbit.advance()) for _ in range(30)))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('polyaut')))"
    ).stdout.split("\n")
    assert out[0].split() == [str(2**m) for m in range(1, 31)]
    assert not {"polyaut.locfin", "polyaut.linalg"} & set(out[1].split())


def test_tame_imports_no_dense_linear_algebra():
    # an affine map is checked, inverted and expanded by its own integer
    # elimination, so the tame layer never loads linalg
    out = fresh(
        "import sys, polyaut.tame\n"
        "print(*sorted(m for m in sys.modules if m.startswith('polyaut')))"
    ).stdout.split()
    assert "polyaut.tame" in out and "polyaut.linalg" not in out


WORD = {"n": 2, "factors": [{"kind": "diagonal", "c": ["2", "1"]},
                            {"kind": "elementary", "i": 2, "g": "x1^2"},
                            {"kind": "affine", "A": [["0", "1"], ["1", "0"]], "b": ["1", "0"]}]}
SHEAR = ["--n", "2", "--map", "X+Y^2, Y"]


# each row runs in both formats: the text cases keep the ids they had before
# the format column, and the json cases add "-json" to them
_LAYER_ROWS = [
    (["compose", "--n", "2", "--map", "X+Y^2, Y", "--map", "X-Y^2, Y"], 0, BASE),
    (["iterate", *SHEAR, "--times", "3"], 0, BASE),
    (["jacobian", *SHEAR], 0, BASE),
    (["parse-check", *SHEAR], 0, BASE),
    (["parse-check", "--n", "2", "--map", "X+"], 3, BASE),
    (["lf-certify", "--n", "2", "--map", "Y, X+Y^2"], 2, LOCFIN),
    (["minpoly-invert", *SHEAR], 0, LOCFIN),
    (["normal-form", "--file", "word.json"], 0, TAME),
    (["witness-obs2", *SHEAR], 0, WITNESS),
    (["witness-obs3", *SHEAR], 0, WITNESS),
    (["nagata-verify"], 0, WITNESS),
]


@pytest.mark.parametrize("argv, exit_code, layer, fmt", [
    pytest.param(argv, code, layer, fmt,
                 id=f"argv{k}-{code}-layer{k}" + ("-json" if fmt == "json" else ""))
    for fmt in ("text", "json") for k, (argv, code, layer) in enumerate(_LAYER_ROWS)
])
def test_each_subcommand_loads_only_its_layer(tmp_path, argv, exit_code, layer, fmt):
    (tmp_path / "word.json").write_text(json.dumps(WORD))
    proc = fresh(_RUN_CLI, *argv, "--format", fmt, cwd=tmp_path)
    code, *loaded = proc.stderr.strip().split("\n")[-1].split()
    assert int(code) == exit_code
    assert {m for m in loaded if m.startswith("polyaut")} == layer
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # json is loaded to print a JSON result (unusable input prints none)
    # and by normal-form, which reads a JSON document
    json_out = fmt == "json" and exit_code != 3
    assert ("json" in loaded) == (json_out or argv[0] == "normal-form")


def test_json_output_loads_json():
    proc = fresh(_RUN_CLI, "parse-check", *SHEAR, "--format", "json")
    code, *loaded = proc.stderr.strip().split("\n")[-1].split()
    assert code == "0" and "json" in loaded
    assert json.loads(proc.stdout) == {"n": 2, "coords": ["x1 + x2^2", "x2"]}


def _digits(n):
    # Decimal prints an int of any size; str() refuses past 4300 digits
    return str(Decimal(n))


@pytest.mark.parametrize("argv, out", [
    (["parse-check", "--n", "1", "--map", "(2^15000)*x1"], f"{_digits(2**15000)}*x1\n"),
    (["minpoly-invert", "--n", "2", "--map", "(2^20000)*x1, 2*x2"],
     f"minimal_polynomial: T^2 - {_digits(2**20000 + 2)}*T + {_digits(2**20001)}\n"
     f"inverse: 1/{_digits(2**20000)}*x1, 1/2*x2\n"),
], ids=["parse-check", "minpoly-invert"])
def test_cli_prints_exact_results_of_any_size(argv, out):
    # the command line lifts the interpreter's cap on int <-> str
    # conversion in its own process, so this runs in a fresh one
    proc = fresh(_RUN_CLI, *argv)
    assert proc.stderr.split()[0] == "0"
    assert proc.stdout == out


_RESOLVE = """
import importlib, sys
import polyaut
name, home = sys.argv[1], sys.argv[2]
if getattr(polyaut, name) is not getattr(importlib.import_module("polyaut." + home), name):
    sys.exit(f"polyaut.{name} is not polyaut.{home}.{name}")
"""


@pytest.mark.parametrize("name", polyaut.__all__)
def test_each_export_resolves_to_its_home_object(name):
    module = polyaut._EXPORTS[name]
    fresh(_RESOLVE, name, module)
    # and in process the home module holds the same object
    assert getattr(polyaut, name) is getattr(getattr(polyaut, module), name)


@pytest.mark.parametrize("name", polyaut._SUBMODULES)
def test_each_submodule_resolves_after_a_bare_import(name):
    fresh(
        "import sys, polyaut\n"
        f"if polyaut.{name} is not sys.modules['polyaut.{name}']: sys.exit(1)"
    )


def _traced_names():
    # the benchmark's tracer imports only the standard library, so its
    # module loads on its own, without the rest of perfbench
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [target[:2] for target in tracing.TARGETS]


TRACED = _traced_names()


@pytest.mark.parametrize("module, attribute", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_each_traced_name_resolves(module, attribute):
    # the tracer replaces each of these by name, so a rename or a deletion
    # in the library fails here, with the name, and not in a benchmark run
    obj = importlib.import_module("polyaut." + module)
    for part in attribute.split("."):
        assert hasattr(obj, part), f"polyaut.{module}.{attribute} does not resolve"
        obj = getattr(obj, part)


def test_star_import_and_unknown_names():
    proc = fresh(
        "import polyaut\n"
        "ns = {}\n"
        "exec('from polyaut import *', ns)\n"
        "print(sorted(set(polyaut.__all__) - set(ns)))\n"
        "print(sorted(set(polyaut.__all__) - set(dir(polyaut))))\n"
        "try:\n"
        "    polyaut.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.stdout.split("\n")[:3] == [
        "[]", "[]", "module 'polyaut' has no attribute 'no_such_name'",
    ]
    assert polyaut.__version__ == "0.1.0"
