"""Computation in free associative algebras and free modules over them:
monomial orderings, Shirshov completion to Groebner-Shirshov bases, normal
forms and irreducible-word bases, Lyndon-Shirshov word machinery, and
certified embedding constructions at finite truncation.
"""

from .completion import (
    Ambiguity,
    CheckReport,
    CompletionReport,
    CompletionStatus,
    check_gsb,
    composition,
    find_ambiguities,
    is_trivial,
    shirshov_complete,
)
from .constructions import (
    GroupTable,
    MultTable,
    SimplePair,
    SimpleStepInput,
    bracket_embedding_words,
    build_hnn,
    build_malcev,
    build_module_cyclic,
    build_simple_step,
)
from .errors import GsbError
from .lyndon import (
    BracketedWord,
    alsw_up_to,
    clf_factorize,
    is_alsw,
    lex_cmp,
    nlsw_basis_count,
    satisfies_nlsw_conditions,
    std_bracketing,
)
from .modules import (
    ModuleAmbiguity,
    module_ambiguities,
    module_check_gsb,
    module_complete,
    module_composition,
    module_irr,
    module_nf,
)
from .orderings import (
    EQUAL,
    GREATER,
    LESS,
    DegLex,
    ModuleTop,
    Tower,
    check_monomial,
    compare,
    compare_module,
)
from .poly import (
    ModuleElement,
    Polynomial,
    act,
    format_polynomial,
    parse_module_element,
    parse_polynomial,
)
from .presentation import (
    ModulePresentation,
    Presentation,
    format_presentation,
    load_presentation,
    load_presentation_file,
    save_presentation_file,
)
from .rewrite import (
    GsbCertificate,
    ReductionTrace,
    irr_counts,
    irr_words,
    is_member,
    normal_form,
    normal_form_random,
    normal_form_with_trace,
    quotient_dim_oracle,
    quotient_dims,
)
from .words import (
    Alphabet,
    ModuleBasis,
    ModuleWord,
    Word,
    concat,
    occurrences,
    pair_formal_inverses,
    parse_word,
    print_word,
)

__version__ = "0.1.0"
