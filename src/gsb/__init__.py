"""Computation in free associative algebras and free modules over them:
monomial orderings, Shirshov completion to Groebner-Shirshov bases, normal
forms and irreducible-word bases, Lyndon-Shirshov word machinery, and
certified embedding constructions at finite truncation.

``import gsb`` loads no layer: a module is imported the first time one of its
names is read (PEP 562), so a caller pays the start-up cost only of the
layers it uses.  Compiling a module and running its dataclass decorations is
most of the time a short run takes.
"""

import importlib

# each public name lives in one module, its home, and is read from there
_HOMES = {
    "completion": "Ambiguity CheckReport CompletionReport CompletionStatus check_gsb"
    " composition find_ambiguities is_trivial shirshov_complete",
    "constructions": "GroupTable MultTable SimplePair SimpleStepInput bracket_embedding_words"
    " build_hnn build_malcev build_module_cyclic build_simple_step",
    "errors": "GsbError",
    "lyndon": "BracketedWord alsw_up_to clf_factorize is_alsw lex_cmp nlsw_basis_count"
    " satisfies_nlsw_conditions std_bracketing",
    "modules": "ModuleAmbiguity module_ambiguities module_check_gsb module_complete"
    " module_composition module_irr module_nf",
    "orderings": "EQUAL GREATER LESS DegLex ModuleTop Tower check_monomial compare"
    " compare_module",
    "poly": "ModuleElement Polynomial act format_polynomial parse_module_element"
    " parse_polynomial",
    "presentation": "ModulePresentation Presentation format_presentation load_presentation"
    " load_presentation_file save_presentation_file",
    "rewrite": "GsbCertificate ReductionTrace RuleSet irr_counts irr_words is_member"
    " normal_form normal_form_random normal_form_with_trace quotient_dim_oracle quotient_dims",
    "words": "Alphabet ModuleBasis ModuleWord Word concat occurrences pair_formal_inverses"
    " parse_word print_word",
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads find it without calling this
    return value


def __dir__():
    return sorted({*globals(), *__all__})
