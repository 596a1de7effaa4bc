"""The compiled relation set: one compile serves every normal form, check and
certificate, with the results of the free functions."""

import random
from fractions import Fraction

import pytest

from gsb import rewrite
from gsb.completion import check_gsb, shirshov_complete
from gsb.errors import AlphabetMismatchError, BasisMismatchError, UncertifiedBasisError
from gsb.modules import (
    _ModuleCertificate,
    module_check_gsb,
    module_complete,
    module_nf,
    module_nf_with_trace,
)
from gsb.orderings import DegLex, ModuleTop
from gsb.poly import ModuleElement, Polynomial, parse_module_element, parse_polynomial
from gsb.rewrite import GsbCertificate, RuleSet, is_member, normal_form, normal_form_with_trace
from gsb.words import Alphabet, ModuleBasis

SPEC = DegLex()
AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
BRAID = ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a")
Y12 = ModuleBasis(("y1", "y2"))
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))


def _braid_basis(max_deg):
    rels = [parse_polynomial(t, ABC) for t in BRAID]
    return shirshov_complete(rels, SPEC, max_deg=max_deg, max_steps=200_000).relations


def _random_poly(rng, alphabet, max_deg, max_terms):
    while True:
        terms = [
            (tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_deg))),
             rng.choice(COEFFS))
            for _ in range(rng.randint(1, max_terms))
        ]
        p = Polynomial(alphabet, terms)
        if p:
            return p


def _counting_compiles(monkeypatch):
    calls = []
    original = rewrite.compile_rules

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rewrite, "compile_rules", counted)
    return calls


def test_normal_forms_and_traces_equal_the_free_functions_on_braid_degree_12():
    basis = _braid_basis(12)
    rules = RuleSet(basis, SPEC)
    rng = random.Random(20261020)
    stepped = 0
    for _ in range(200):
        p = _random_poly(rng, ABC, 12, 4)
        nf = rules.normal_form(p)
        assert nf == normal_form(p, basis, SPEC)
        traced, trace = rules.normal_form_with_trace(p)
        free_nf, free_trace = normal_form_with_trace(p, basis, SPEC)
        assert traced == free_nf == nf
        assert trace.residual == free_trace.residual
        assert len(trace.steps) == len(free_trace.steps)
        for step, free in zip(trace.steps, free_trace.steps):
            assert (step.rule, step.left, step.right, step.rewritten, step.coefficient) == (
                free.rule, free.left, free.right, free.rewritten, free.coefficient
            )
        assert trace.reconstruct(basis) == p
        stepped += bool(trace.steps)
    # the sample exercises reduction, not only irreducible inputs
    assert stepped > 100


def test_a_polynomial_over_another_alphabet_is_refused():
    rules = RuleSet([parse_polynomial("a*a - b", AB)], SPEC)
    other = parse_polynomial("c*c", Alphabet(("c", "d")))
    with pytest.raises(AlphabetMismatchError):
        rules.normal_form(other)
    with pytest.raises(AlphabetMismatchError):
        rules.normal_form_with_trace(other)
    # an equal alphabet built separately is the same alphabet
    assert rules.normal_form(parse_polynomial("a*a*a", Alphabet(("a", "b")))) == parse_polynomial(
        "b*a", AB
    )


def test_an_empty_set_reduces_nothing():
    rules = RuleSet([], SPEC)
    assert rules.relations == ()
    p = parse_polynomial("3*a*b - 1/2*b + 2", AB)
    assert rules.normal_form(p) == p
    nf, trace = rules.normal_form_with_trace(p)
    assert nf == p and trace.steps == ()
    # one empty set serves polynomials over any alphabet
    q = parse_polynomial("c*d", Alphabet(("c", "d")))
    assert rules.normal_form(q) == q


def test_a_generator_of_relations_is_read_once_and_kept():
    texts = ("a*a - b", "a*b - b*a")
    rules = RuleSet((parse_polynomial(t, AB) for t in texts), SPEC)
    assert [str(r) for r in rules.relations] == list(texts)
    for _ in range(2):
        assert rules.normal_form(parse_polynomial("a*a*a", AB)) == parse_polynomial("b*a", AB)


def test_one_set_compiles_once_for_many_normal_forms(monkeypatch):
    basis = _braid_basis(8)
    rng = random.Random(5)
    polys = [_random_poly(rng, ABC, 8, 3) for _ in range(25)]
    calls = _counting_compiles(monkeypatch)
    rules = RuleSet(basis, SPEC)
    for p in polys:
        rules.normal_form(p)
        rules.normal_form_with_trace(p)
    assert len(calls) == 1
    # the free functions compile on every call
    for p in polys:
        normal_form(p, basis, SPEC)
    assert len(calls) == 1 + len(polys)


def test_a_certificate_compiles_once_for_many_membership_tests(monkeypatch):
    commuting = [parse_polynomial(t, ABC) for t in ("a*b - b*a", "a*c - c*a", "b*c - c*b")]
    report = check_gsb(commuting, SPEC)
    assert report.is_certificate
    member = parse_polynomial("a*b*c - c*b*a", ABC)
    calls = _counting_compiles(monkeypatch)
    cert = report.certificate()
    assert isinstance(cert, GsbCertificate) and isinstance(cert, RuleSet)
    assert cert.relations == report.relations and cert.ordering == SPEC
    for n in range(25):
        assert is_member(member * Polynomial.from_word(ABC.word_from_names(["c"] * n)), cert)
        assert not is_member(parse_polynomial("a", ABC), cert)
    assert len(calls) == 1


def test_a_relation_set_that_is_not_a_certificate_is_refused():
    with pytest.raises(UncertifiedBasisError):
        is_member(parse_polynomial("a", AB), RuleSet([parse_polynomial("a*a - b", AB)], SPEC))


def test_a_forged_certificate_raises_when_it_is_made():
    # {a*a - b} is not a basis: its composition on a*a*a leaves a*b - b*a
    commutator = parse_polynomial("a*b - b*a", AB)
    with pytest.raises(UncertifiedBasisError):
        is_member(commutator, GsbCertificate([parse_polynomial("a*a - b", AB)], SPEC))
    completed = shirshov_complete([parse_polynomial("a*a - b", AB)], SPEC)
    assert is_member(commutator, completed.certificate())


def test_a_certificate_is_made_exactly_when_check_gsb_certifies():
    rng = random.Random(31)
    made = refused = 0
    for _ in range(80):
        rels = [_random_poly(rng, AB, 3, 3).make_monic(SPEC) for _ in range(rng.randint(1, 3))]
        certified = check_gsb(rels, SPEC).is_certificate
        try:
            GsbCertificate(rels, SPEC)
        except UncertifiedBasisError:
            assert not certified
            refused += 1
        else:
            assert certified
            made += 1
    assert made > 10 and refused > 10


def _module(text):
    return parse_module_element(text, AB, Y12)


def test_a_module_report_certificate_is_checked_and_decides_membership(monkeypatch):
    # lead(b*a*y1) = b*lead(a*y1): one module composition, which vanishes
    report = module_check_gsb([_module("a*y1 - y2"), _module("b*a*y1 - b*y2")], ModuleTop())
    assert report.is_certificate and report.evaluated == 1
    calls = _counting_compiles(monkeypatch)
    cert = report.certificate()
    assert is_member(_module("a*b*a*y1 - a*b*y2"), cert)
    assert not is_member(_module("b*a*y1 - y1"), cert)
    assert len(calls) == 1
    # b*a*y1 - y1 instead leaves b*y2 - y1, so its set is no certificate
    with pytest.raises(UncertifiedBasisError):
        _ModuleCertificate([_module("a*y1 - y2"), _module("b*a*y1 - y1")], ModuleTop())


@pytest.mark.parametrize("make", [module_complete, module_check_gsb])
def test_module_certificates_decide_membership(make, monkeypatch):
    report = make([_module("a*y1 - y2")], ModuleTop())
    calls = _counting_compiles(monkeypatch)
    cert = report.certificate()
    assert isinstance(cert, GsbCertificate)
    assert cert.relations == report.relations
    for _ in range(10):
        assert is_member(_module("b*a*y1 - b*y2"), cert)
        assert not is_member(_module("y1"), cert)
        assert not is_member(_module("a*y2 - y1"), cert)
        assert is_member(ModuleElement.zero(AB, Y12), cert)
    assert len(calls) == 1


def test_module_certificate_normal_forms_are_module_normal_forms():
    rels = [_module("a*y1 - y2"), _module("b*b*y2 - y1")]
    cert = module_complete(rels, ModuleTop()).certificate()
    for text in ("a*y1", "b*b*a*y1 + 2*y2", "a*b*b*y2 - b*y1"):
        element = _module(text)
        assert cert.normal_form(element) == module_nf(element, cert.relations, ModuleTop())
        nf, trace = cert.normal_form_with_trace(element)
        assert (nf, trace) == module_nf_with_trace(element, cert.relations, ModuleTop())
    # the element must live over the certificate's alphabet and basis
    with pytest.raises(BasisMismatchError):
        cert.normal_form(parse_module_element("z1", AB, ModuleBasis(("z1", "z2"))))
    with pytest.raises(AlphabetMismatchError):
        cert.normal_form(parse_module_element("c*y1", Alphabet(("a", "c")), Y12))
