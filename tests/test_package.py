"""The package's public surface, and which layers a caller's first reads load."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsb

# every public name, under the module that defines it
HOMES = {
    "completion": (
        "Ambiguity", "CheckReport", "CompletionReport", "CompletionStatus", "check_gsb",
        "composition", "find_ambiguities", "is_trivial", "shirshov_complete",
    ),
    "constructions": (
        "GroupTable", "MultTable", "SimplePair", "SimpleStepInput", "bracket_embedding_words",
        "build_hnn", "build_malcev", "build_module_cyclic", "build_simple_step",
    ),
    "errors": ("GsbError",),
    "lyndon": (
        "BracketedWord", "alsw_up_to", "clf_factorize", "is_alsw", "lex_cmp",
        "nlsw_basis_count", "satisfies_nlsw_conditions", "std_bracketing",
    ),
    "modules": (
        "ModuleAmbiguity", "module_ambiguities", "module_check_gsb", "module_complete",
        "module_composition", "module_irr", "module_nf",
    ),
    "orderings": (
        "EQUAL", "GREATER", "LESS", "DegLex", "ModuleTop", "Tower", "check_monomial",
        "compare", "compare_module",
    ),
    "poly": (
        "ModuleElement", "Polynomial", "act", "format_polynomial", "parse_module_element",
        "parse_polynomial",
    ),
    "presentation": (
        "ModulePresentation", "Presentation", "format_presentation", "load_presentation",
        "load_presentation_file", "save_presentation_file",
    ),
    "rewrite": (
        "GsbCertificate", "ReductionTrace", "RuleSet", "irr_counts", "irr_words", "is_member",
        "normal_form", "normal_form_random", "normal_form_with_trace", "quotient_dim_oracle",
        "quotient_dims",
    ),
    "words": (
        "Alphabet", "ModuleBasis", "ModuleWord", "Word", "concat", "occurrences",
        "pair_formal_inverses", "parse_word", "print_word",
    ),
}
NAMES = sorted(name for names in HOMES.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 75
    assert sorted(gsb.__all__) == NAMES


@pytest.mark.parametrize("home", sorted(HOMES))
def test_each_name_is_the_object_its_home_module_defines(home):
    module = importlib.import_module(f"gsb.{home}")
    for name in HOMES[home]:
        assert getattr(gsb, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gsb import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(gsb, name) for name in NAMES)


def test_version():
    assert gsb.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gsb.no_such_name


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(gsb))


def _loaded_after(code, tmp_path):
    """The sorted ``gsb`` modules a fresh interpreter holds after running ``code``."""
    src = str(Path(gsb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
         "print(sorted(k for k in sys.modules if k == 'gsb' or k.startswith('gsb.')))"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_import_loads_no_layer(tmp_path):
    assert _loaded_after("import gsb", tmp_path) == {"gsb"}


def test_a_name_loads_its_home_and_what_the_home_imports(tmp_path):
    loaded = _loaded_after("import gsb\ngsb.Alphabet(('a', 'b'))", tmp_path)
    assert loaded == {"gsb", "gsb.errors", "gsb.words"}


def test_lyndon_command_loads_no_engine_or_builder(tmp_path):
    code = (
        "from gsb.cli import run\n"
        "assert run(['lyndon', '--alphabet', 'a>b', '--max-len', '3']) == 0"
    )
    loaded = _loaded_after(code, tmp_path)
    assert not loaded & {"gsb.completion", "gsb.rewrite", "gsb.constructions", "gsb.modules"}


@pytest.mark.parametrize("flag", ["--bracket", "--count-only"])
def test_lyndon_command_loads_no_polynomial_layer(tmp_path, flag):
    # the limit check and the chunked count digits come from errors, the chain from words
    code = (
        "from gsb.cli import run\n"
        f"assert run(['lyndon', '--alphabet', 'a>b', '--max-len', '3', '{flag}']) == 0"
    )
    loaded = _loaded_after(code, tmp_path)
    assert loaded == {"gsb", "gsb.cli", "gsb.errors", "gsb.lyndon", "gsb.words"}


def test_check_of_an_algebra_file_loads_no_module_lyndon_or_builder_layer(tmp_path):
    (tmp_path / "ab.pres").write_text("alphabet: a > b\nordering: deglex\nrelations:\na*b - b*a\n")
    code = "from gsb.cli import run\nassert run(['check', 'ab.pres']) == 0"
    loaded = _loaded_after(code, tmp_path)
    assert "gsb.completion" in loaded
    assert not loaded & {"gsb.constructions", "gsb.modules", "gsb.lyndon"}


def test_a_certificate_loads_no_completion_layer(tmp_path):
    # the certificate's overlap check lives in rewrite, beside the set it compiles
    code = (
        "from gsb.rewrite import GsbCertificate\n"
        "from gsb.orderings import DegLex\n"
        "from gsb.poly import parse_polynomial\n"
        "from gsb.words import Alphabet\n"
        "A = Alphabet(('a', 'b'))\n"
        "GsbCertificate([parse_polynomial(t, A) for t in ('a*a - b', 'a*b - b*a')], DegLex())"
    )
    loaded = _loaded_after(code, tmp_path)
    assert "gsb.rewrite" in loaded
    assert "gsb.completion" not in loaded
