"""Every public call that takes a relation set reads it once, so a one-shot
iterator of relations gives what the list of them gives."""

import pytest

from gsb.completion import check_gsb, find_ambiguities, shirshov_complete
from gsb.modules import (
    module_ambiguities,
    module_check_gsb,
    module_complete,
    module_irr,
    module_nf,
    module_nf_with_trace,
)
from gsb.orderings import DegLex, ModuleTop
from gsb.poly import parse_module_element, parse_polynomial
from gsb.presentation import ModulePresentation, Presentation
from gsb.rewrite import irr_counts, irr_words, normal_form, normal_form_with_trace, quotient_dims
from gsb.words import Alphabet, ModuleBasis

ABC = Alphabet(("a", "b", "c"))
AB = Alphabet(("a", "b"))
Y = ModuleBasis(("y1", "y2", "y3"))
SPEC = DegLex()
MSPEC = ModuleTop()

RELATIONS = [
    parse_polynomial(t, ABC) for t in ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a", "a*a - 2*b")
]
MODULE_RELATIONS = [
    parse_module_element(t, AB, Y) for t in ("a*y1 - y2", "b*a*y1 - y1", "a*y3 - b*y2", "a*y1 - y3")
]
P = parse_polynomial("a*b*a*c*a - 3*a*a*b + c", ABC)
M = parse_module_element("b*a*a*y1 + a*a*y3 - y2", AB, Y)

CALLS = {
    "Presentation": lambda rels: Presentation(ABC, SPEC, rels).relations,
    "shirshov_complete": lambda rels: shirshov_complete(rels, SPEC, max_deg=6),
    "check_gsb": lambda rels: check_gsb(rels, SPEC),
    "find_ambiguities": lambda rels: find_ambiguities(rels, SPEC),
    "normal_form": lambda rels: normal_form(P, rels, SPEC),
    "normal_form_with_trace": lambda rels: normal_form_with_trace(P, rels, SPEC),
    "irr_words": lambda rels: irr_words(ABC, rels, SPEC, 4),
    "irr_counts": lambda rels: irr_counts(ABC, rels, SPEC, 5),
    "quotient_dims": lambda rels: quotient_dims(ABC, rels, SPEC, 4),
}
MODULE_CALLS = {
    "ModulePresentation": lambda rels: ModulePresentation(AB, Y, MSPEC, rels).relations,
    "module_complete": lambda rels: module_complete(rels, MSPEC, max_deg=4),
    "module_check_gsb": lambda rels: module_check_gsb(rels, MSPEC),
    "module_ambiguities": lambda rels: module_ambiguities(rels, MSPEC),
    "module_nf": lambda rels: module_nf(M, rels, MSPEC),
    "module_nf_with_trace": lambda rels: module_nf_with_trace(M, rels, MSPEC),
    "module_irr": lambda rels: module_irr(AB, Y, rels, MSPEC, 2),
}


@pytest.mark.parametrize("name", [*CALLS, *MODULE_CALLS])
def test_an_iterator_of_relations_reads_as_the_list(name):
    if name in CALLS:
        call, relations = CALLS[name], RELATIONS
    else:
        call, relations = MODULE_CALLS[name], MODULE_RELATIONS
    assert call(iter(relations)) == call(list(relations))
    # and an empty iterator as the empty list
    assert call(iter(())) == call([])
