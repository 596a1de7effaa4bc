import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from gsb import rewrite
from gsb.completion import shirshov_complete
from gsb.errors import (
    CapacityError,
    IndexOutOfRangeError,
    LimitError,
    NonMonicRelationError,
    TowerSymbolMissingError,
    UncertifiedBasisError,
)
from gsb.orderings import DegLex, Tower, _deglex_key
from gsb.poly import Polynomial, parse_polynomial
from gsb.rewrite import (
    GsbCertificate,
    _Rule,
    _RuleIndex,
    irr_counts,
    irr_words,
    is_member,
    normal_form,
    normal_form_random,
    normal_form_with_trace,
    quotient_dim_oracle,
    quotient_dims,
)
from gsb.words import Alphabet, Word

AB = Alphabet(("a", "b"))
SPEC = DegLex()


def p(text):
    return parse_polynomial(text, AB)


GSB = [p("a*a - b"), p("a*b - b*a")]


def test_normal_form_examples():
    assert normal_form(p("a*a*a"), GSB, SPEC) == p("b*a")
    assert normal_form(p("a*b"), GSB, SPEC) == p("b*a")
    assert normal_form(p("a"), [], SPEC) == p("a")


def test_normal_form_alphabet_mismatch():
    from gsb.errors import AlphabetMismatchError

    other = Alphabet(("c", "d"))
    with pytest.raises(AlphabetMismatchError):
        normal_form(p("a"), [parse_polynomial("c*c - d", other)], SPEC)


def test_normal_form_requires_monic():
    with pytest.raises(NonMonicRelationError) as exc:
        normal_form(p("a"), [p("2*a*a - b")], SPEC)
    assert exc.value.index == 0
    with pytest.raises(NonMonicRelationError):
        normal_form(p("a"), [Polynomial.zero(AB)], SPEC)


def test_normal_form_idempotent_and_linear():
    rng = random.Random(13)
    for _ in range(200):
        terms = lambda: [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))), rng.choice((1, -1, 2, Fraction(1, 2))))
            for _ in range(rng.randint(0, 4))
        ]
        f, g = Polynomial(AB, terms()), Polynomial(AB, terms())
        nf_f = normal_form(f, GSB, SPEC)
        assert normal_form(nf_f, GSB, SPEC) == nf_f
        alpha, beta = Fraction(2), Fraction(-1, 3)
        combo = normal_form(alpha * f + beta * g, GSB, SPEC)
        assert combo == alpha * nf_f + beta * normal_form(g, GSB, SPEC)


def test_deterministic_step_choice():
    # leftmost occurrence first, then lowest rule index: the single letter
    # rule at position 0 wins over the longer rule at the same position
    abc = Alphabet(("a", "b", "c"))
    rules = [parse_polynomial("a - b", abc), parse_polynomial("a*a - c", abc)]
    out = normal_form(parse_polynomial("a*a", abc), rules, SPEC)
    assert out == parse_polynomial("b*b", abc)


def test_trace_replays_and_is_bounded():
    rng = random.Random(14)
    keyf = SPEC.letter_key(AB)
    for _ in range(200):
        terms = [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))), rng.choice((1, -1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        f = Polynomial(AB, terms)
        nf, trace = normal_form_with_trace(f, GSB, SPEC)
        assert trace.residual == nf
        assert trace.reconstruct(GSB) == f
        if f.is_zero():
            continue
        bound = keyf(f.leading_word(SPEC).letters)
        for step in trace.steps:
            assert keyf(step.rewritten.letters) <= bound
        for word, _ in nf.terms():
            assert keyf(word.letters) <= bound
        # decomposition multiples stay below the input's leading word
        for coeff, left, rule, right in trace.decomposition():
            lead = left * GSB[rule].leading_word(SPEC) * right
            assert keyf(lead.letters) <= bound


def test_trace_degrees_never_increase_under_deglex():
    nf, trace = normal_form_with_trace(p("a*a*a*b"), GSB, SPEC)
    degrees = [step.rewritten.degree for step in trace.steps]
    assert degrees == sorted(degrees, reverse=True)


def test_irr_words_examples():
    words = irr_words(AB, GSB, SPEC, 3)
    assert [str(w) for w in words] == ["1", "b", "a", "b*b", "b*a", "b*b*b", "b*b*a"]
    assert len(irr_words(AB, [], SPEC, 2)) == 7
    assert [str(w) for w in irr_words(AB, [p("a - b")], SPEC, 1)] == ["1", "b"]


def test_irr_words_unit_relation_kills_everything():
    assert irr_words(AB, [Polynomial.unit(AB)], SPEC, 3) == []


def test_quotient_dim_examples():
    assert quotient_dim_oracle(AB, GSB, SPEC, 3) == 7
    assert quotient_dim_oracle(AB, [], SPEC, 2) == 7
    assert quotient_dim_oracle(AB, [p("a - b")], SPEC, 1) == 2


def test_quotient_dim_capacity():
    with pytest.raises(CapacityError):
        quotient_dim_oracle(AB, [], SPEC, 10, capacity=100)


def test_quotient_dims_read_no_environment(monkeypatch):
    # the word capacity is an argument alone: only `gsb dim` reads GSB_MAX_WORDS
    for value in ("4", "abc"):
        monkeypatch.setenv("GSB_MAX_WORDS", value)
        assert quotient_dims(AB, [], SPEC, 3) == [1, 3, 7, 15]
        assert quotient_dim_oracle(AB, [], SPEC, 3) == 15
        assert quotient_dims(AB, [], SPEC, 3, capacity=None) == [1, 3, 7, 15]


def test_selftest_oracle_criterion_ignores_the_capacity_variable(monkeypatch):
    from gsb import selftest

    monkeypatch.setenv("GSB_MAX_WORDS", "500")
    passed, detail = selftest.criterion_1_cd_oracle()
    assert passed, detail


def _dense_dim(alphabet, relations, spec, max_deg):
    """Reference dimension: dense Fraction rows a*s*b, textbook Gaussian elimination."""
    k = alphabet.size
    words = [w for d in range(max_deg + 1) for w in product(range(k), repeat=d)]
    column = {w: j for j, w in enumerate(words)}
    rows = []
    for s in relations:
        lead_len = s.leading_word(spec).degree
        for total in range(max_deg - lead_len + 1):
            for da in range(total + 1):
                for a in product(range(k), repeat=da):
                    for b in product(range(k), repeat=total - da):
                        row = [Fraction(0)] * len(words)
                        for w, c in s.raw_terms().items():
                            row[column[a + w + b]] += c
                        rows.append(row)
    rank = 0
    for j in range(len(words)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        support = [jj for jj in range(j, len(words)) if prow[jj]]
        for row in rows[rank + 1 :]:
            if row[j]:
                factor = row[j] / prow[j]
                for jj in support:
                    row[jj] -= factor * prow[jj]
        rank += 1
    return len(words) - rank


# mixed denominators and integers far beyond machine words
_ORACLE_COEFFS = (
    1, -1, Fraction(1, 2), Fraction(-2, 3), 3, 10**20 + 7, Fraction(-(2**64) + 1, 9)
)


def _seeded_relations(rng, alphabet, spec, count, max_len=3):
    rels = []
    while len(rels) < count:
        terms = []
        for _ in range(rng.randint(2, 4)):
            word = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_len)))
            terms.append((word, rng.choice(_ORACLE_COEFFS)))
        f = Polynomial(alphabet, terms)
        if f.is_zero():
            continue
        f = f.make_monic(spec)
        if f.leading_word(spec).degree == max(len(w) for w in f.raw_terms()):
            rels.append(f)
    return rels


def _assert_dims_match_references(alphabet, rels, spec, max_deg):
    dims = quotient_dims(alphabet, rels, spec, max_deg)
    assert dims == [_dense_dim(alphabet, rels, spec, d) for d in range(max_deg + 1)]
    assert dims == [quotient_dim_oracle(alphabet, rels, spec, d) for d in range(max_deg + 1)]


@pytest.mark.parametrize(
    "letters, max_deg, seed",
    [(("a", "b"), 5, seed) for seed in range(6)] + [(("a", "b", "c"), 4, seed) for seed in range(4)],
)
def test_quotient_dims_match_dense_fraction_rank(letters, max_deg, seed):
    alphabet = Alphabet(letters)
    rng = random.Random(1000 + seed)
    rels = _seeded_relations(rng, alphabet, SPEC, rng.randint(1, 3))
    _assert_dims_match_references(alphabet, rels, SPEC, max_deg)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(10**20 + 7, 2)])
def test_quotient_dims_exact_on_dependent_relations(scale):
    # a*a - x*x = a*f + f*x lies in the ideal of f = a - x only for the exact coefficients
    x = p("b") * scale - Polynomial.unit(AB) * Fraction(1, 3)
    f = p("a") - x
    g = p("a*a") - x * x
    assert quotient_dims(AB, [f, g], SPEC, 4) == [1, 2, 3, 4, 5]
    assert [_dense_dim(AB, [f, g], SPEC, d) for d in range(5)] == [1, 2, 3, 4, 5]


TOWER_AB = Alphabet(("t", "t^-1", "a", "b"))


def test_quotient_dims_match_dense_fraction_rank_under_tower():
    spec = Tower("t", "t^-1")
    rels = [
        Polynomial.parse(text, TOWER_AB).make_monic(spec)
        for text in (
            "t*a - 2/3*a*t + 3*b",
            "t*t^-1 - 1",
            "b*a*b - 1/2*a*t^-1*a + 100000000000000000007",
        )
    ]
    # the tower order picks other leading words than deg-lex, each of maximal degree
    assert [str(f.leading_word(spec)) for f in rels] == ["a*t", "t*t^-1", "a*t^-1*a"]
    _assert_dims_match_references(TOWER_AB, rels, spec, 3)


ABC = Alphabet(("a", "b", "c"))
BRAID = ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a")


def _dependent_translate_cases():
    """Sets in which many rows a*s*b depend on earlier rows, so their translates do too."""
    f, g = p("a*b - 2/3*b*a + 5"), p("b*b*a - a - 1/2")
    tower = Tower("t", "t^-1")
    h, u = (
        Polynomial.parse(text, TOWER_AB).make_monic(tower)
        for text in ("t*a - 2/3*a*t + 3*b", "t*t^-1 - 1")
    )
    x = Polynomial.parse("a", TOWER_AB)
    return {
        "repeated input": (AB, [f, g, f], SPEC, 5),
        "rescaled copy": (AB, [f, (f * Fraction(-7, 3)).make_monic(SPEC), g], SPEC, 5),
        "inside the ideal": (AB, [f, g, (p("b") * f * p("a") + f * g * 7).make_monic(SPEC)], SPEC, 5),
        "braid B4+": (ABC, [parse_polynomial(t, ABC) for t in BRAID], SPEC, 5),
        # the tops by word number, t*a of h and t*a*a of h*a + a*h, have negative
        # coefficients in the monic relations, whose tower leads are a*t and a*a*t
        "tower, negative top": (TOWER_AB, [h, u, (h * x + x * h).make_monic(tower), h], tower, 4),
    }


@pytest.mark.parametrize("name", list(_dependent_translate_cases()))
def test_quotient_dims_match_dense_rank_with_dependent_translates(name):
    alphabet, rels, spec, max_deg = _dependent_translate_cases()[name]
    _assert_dims_match_references(alphabet, rels, spec, max_deg)


def test_quotient_dims_build_no_translate_of_a_dependent_row(monkeypatch):
    # of the 3099 rows a*s*b of B4+ up to degree 7, 520 are translates of a
    # dependent row and are never built, 2245 are stored as pivots as they
    # are, and only the 334 whose top word already has a pivot are
    # eliminated, 98 of them to zero
    calls = []
    eliminate = rewrite._eliminate

    def counting(row, pivots):
        calls.append(eliminate(row, pivots))
        return calls[-1]

    monkeypatch.setattr(rewrite, "_eliminate", counting)
    braid = [parse_polynomial(t, ABC) for t in BRAID]
    # 1, 3, 8, 19, 43, 94, 202, 429 words of B4+ per degree
    assert quotient_dims(ABC, braid, SPEC, 7) == [1, 4, 12, 31, 74, 168, 370, 799]
    assert (len(calls), calls.count(False)) == (334, 98)


def test_quotient_dims_raise_where_the_oracle_does():
    tower = Tower("t", "t^-1")
    # under the tower order t outranks a*a*a, so the leading word is not of maximal degree
    short_lead = [Polynomial.parse("t - a*a*a", TOWER_AB).make_monic(tower)]
    # the whole set is checked for monicity before any relation is scaled
    then_not_monic = short_lead + [Polynomial.parse("2*t*a - b", TOWER_AB)]
    cases = [
        (AB, GSB, SPEC, 3, 14, CapacityError),
        (AB, GSB, SPEC, 3, 15, None),
        (AB, GSB, SPEC, -1, None, LimitError),
        # a capacity is a positive int, and an int past the digit limit fails no message
        (AB, GSB, SPEC, 3, 0, LimitError),
        (AB, GSB, SPEC, 3, -5, LimitError),
        (AB, GSB, SPEC, 3, True, LimitError),
        (AB, GSB, SPEC, 3, -(10**5000), LimitError),
        (AB, GSB, SPEC, 10**5000, 10**5000, CapacityError),
        (TOWER_AB, short_lead, tower, 0, None, LimitError),
        (TOWER_AB, short_lead, tower, 3, None, LimitError),
        (TOWER_AB, then_not_monic, tower, 3, None, NonMonicRelationError),
    ]
    for alphabet, rels, spec, max_deg, cap, error in cases:
        for f in (quotient_dims, quotient_dim_oracle):
            if error is None:
                f(alphabet, rels, spec, max_deg, capacity=cap)
                continue
            with pytest.raises(error):
                f(alphabet, rels, spec, max_deg, capacity=cap)


HUGE = -(10**5000)


def _builder_limits():
    """(argument, minimum, maximum or None, call with the value) of each
    truncation index of the embedding builders."""
    from gsb.constructions import (
        GroupTable,
        MultTable,
        SimpleStepInput,
        bracket_embedding_words,
        build_hnn,
        build_malcev,
        build_module_cyclic,
        build_simple_step,
    )
    from gsb.orderings import ModuleTop
    from gsb.presentation import ModulePresentation, Presentation
    from gsb.words import ModuleBasis

    z2 = GroupTable(1, {(1, 1): 0}, {1: 1})
    x = Alphabet(("x1", "x2"))
    base = Presentation(x, SPEC, (parse_polynomial("x1*x2 - x2*x1", x),))
    module = ModulePresentation(AB, ModuleBasis(("y1", "y2")), ModuleTop(), ())
    table, no_pairs = MultTable(("x",), {(1, 1): "x"}), SimpleStepInput(())
    return {
        "build_hnn": ("index_bound", 1, 1, lambda v: build_hnn(z2, v)),
        "build_malcev": ("count", 1, 2, lambda v: build_malcev(base, v)),
        "build_module_cyclic": ("count", 1, 2, lambda v: build_module_cyclic(module, v)),
        "build_simple_step-m_bound": (
            "m_bound", 1, None, lambda v: build_simple_step(table, no_pairs, v, 1)
        ),
        "build_simple_step-n_bound": (
            "n_bound", 1, None, lambda v: build_simple_step(table, no_pairs, 1, v)
        ),
        "bracket_embedding_words": ("i_max", 1, None, bracket_embedding_words),
        "GroupTable.cyclic": ("order", 2, None, GroupTable.cyclic),
    }


@pytest.mark.parametrize(
    "case", [case for case, limit in _builder_limits().items() if limit[2] is not None]
)
def test_a_truncation_index_past_its_input_raises_index_out_of_range(case):
    name, _minimum, maximum, call = _builder_limits()[case]
    with pytest.raises(IndexOutOfRangeError) as caught:
        call(maximum + 1)
    assert isinstance(caught.value, LimitError)
    assert str(caught.value) == f"{name} must be <= {maximum}, got {maximum + 1}"
    call(maximum)


def _limit_cases():
    from gsb.completion import check_gsb
    from gsb.lyndon import alsw_up_to, nlsw_basis_count
    from gsb.modules import module_check_gsb, module_complete, module_irr
    from gsb.orderings import ModuleTop
    from gsb.poly import parse_module_element
    from gsb.words import ModuleBasis

    y = ModuleBasis(("y1", "y2"))
    module = [parse_module_element("a*y1 - y2", AB, y)]
    return {
        "irr_words": lambda: irr_words(AB, GSB, SPEC, HUGE),
        "irr_counts": lambda: irr_counts(AB, GSB, SPEC, HUGE),
        "quotient_dims": lambda: quotient_dims(AB, GSB, SPEC, HUGE),
        "quotient_dim_oracle": lambda: quotient_dim_oracle(AB, GSB, SPEC, HUGE),
        "shirshov_complete-max_deg": lambda: shirshov_complete(GSB, SPEC, max_deg=HUGE),
        "shirshov_complete-max_steps": lambda: shirshov_complete(GSB, SPEC, max_steps=HUGE),
        "check_gsb": lambda: check_gsb(GSB, SPEC, max_deg=HUGE),
        "module_complete": lambda: module_complete(module, ModuleTop(), max_deg=HUGE),
        "module_check_gsb": lambda: module_check_gsb(module, ModuleTop(), max_deg=HUGE),
        "module_irr": lambda: module_irr(AB, y, module, ModuleTop(), HUGE),
        "alsw_up_to": lambda: alsw_up_to(AB, HUGE),
        "nlsw_basis_count": lambda: nlsw_basis_count(AB, HUGE),
        **{case: lambda call=call: call(HUGE) for case, (*_, call) in _builder_limits().items()},
    }


@pytest.mark.parametrize("name", list(_limit_cases()))
def test_a_limit_past_the_int_digit_limit_raises_limit_error(name):
    # str() of an int past Python's int/str digit limit raises ValueError,
    # so the message writes the value in chunks
    with pytest.raises(LimitError, match="-1" + "0" * 5000):
        _limit_cases()[name]()


def _limit_arguments():
    """(argument, minimum, whether None is allowed, call with the value) of each limit."""
    from argparse import Namespace

    from gsb.cli import _cmd_lyndon
    from gsb.completion import check_gsb
    from gsb.lyndon import alsw_up_to, nlsw_basis_count
    from gsb.modules import module_check_gsb, module_irr
    from gsb.orderings import ModuleTop, check_monomial
    from gsb.poly import parse_module_element
    from gsb.words import ModuleBasis

    y = ModuleBasis(("y1", "y2"))
    module = [parse_module_element("a*y1 - y2", AB, y)]

    def lyndon_count(v):
        return _cmd_lyndon(Namespace(alphabet="a>b", max_len=v, count_only=True, bracket=False))

    return {
        "irr_words": ("max_deg", 0, False, lambda v: irr_words(AB, GSB, SPEC, v)),
        "irr_counts": ("max_deg", 0, False, lambda v: irr_counts(AB, GSB, SPEC, v)),
        "quotient_dims-max_deg": ("max_deg", 0, False, lambda v: quotient_dims(AB, GSB, SPEC, v)),
        "quotient_dims-capacity": (
            "capacity", 1, True, lambda v: quotient_dims(AB, GSB, SPEC, 0, capacity=v)
        ),
        "module_irr": ("max_deg", 0, False, lambda v: module_irr(AB, y, module, ModuleTop(), v)),
        "shirshov_complete-max_deg": (
            "max_deg", 1, False, lambda v: shirshov_complete(GSB, SPEC, max_deg=v)
        ),
        "shirshov_complete-max_steps": (
            "max_steps", 1, False, lambda v: shirshov_complete(GSB, SPEC, max_steps=v)
        ),
        "check_gsb": ("max_deg", 1, True, lambda v: check_gsb(GSB, SPEC, max_deg=v)),
        "module_check_gsb": (
            "max_deg", 1, True, lambda v: module_check_gsb(module, ModuleTop(), max_deg=v)
        ),
        "alsw_up_to": ("max_len", 1, False, lambda v: alsw_up_to(AB, v)),
        "gsb lyndon --count-only": ("max_len", 1, False, lyndon_count),
        "nlsw_basis_count": ("deg", 1, False, lambda v: nlsw_basis_count(AB, v)),
        "check_monomial-samples": (
            "samples", 1, False, lambda v: check_monomial(SPEC, AB, v, seed=1)
        ),
        "check_monomial-max_len": (
            "max_len", 0, False, lambda v: check_monomial(SPEC, AB, 5, seed=1, max_len=v)
        ),
        **{
            case: (name, minimum, False, call)
            for case, (name, minimum, _maximum, call) in _builder_limits().items()
        },
    }


@pytest.mark.parametrize("case", list(_limit_arguments()))
def test_every_limit_argument_takes_an_int_at_its_minimum_or_above(case):
    name, minimum, none_allowed, call = _limit_arguments()[case]
    bad = [2.5, True, "3"] + ([] if none_allowed else [None])
    for value in bad:
        message = f"{name} must be an int, not {type(value).__name__}"
        with pytest.raises(LimitError) as caught:
            call(value)
        assert str(caught.value) == message
    with pytest.raises(LimitError) as caught:
        call(minimum - 1)
    assert str(caught.value) == f"{name} must be >= {minimum}, got {minimum - 1}"
    call(minimum)
    if none_allowed:
        call(None)


def test_braid_degree_10_irr_words_pinned():
    # SHA-256 of the listing, one word per line
    abc = Alphabet(("a", "b", "c"))
    braid = [parse_polynomial(t, abc) for t in ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a")]
    report = shirshov_complete(braid, SPEC, max_deg=10)
    assert len(report.relations) == 47
    words = irr_words(abc, report.relations, SPEC, 10)
    assert len(words) == 7588
    digest = hashlib.sha256("\n".join(str(w) for w in words).encode()).hexdigest()
    assert digest == "87705c9305d6646faa88396ab378e4a77217b033464618ee46c9bbd32f88786a"


def test_oracle_agrees_with_irr_on_certified_sets():
    rng = random.Random(15)
    for _ in range(5):
        rels = [
            Polynomial(
                AB,
                [
                    (tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))), 1),
                    (tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))), -1),
                ],
            )
            for _ in range(rng.randint(1, 2))
        ]
        rels = [r for r in rels if not r.is_zero()]
        if not rels:
            continue
        report = shirshov_complete(rels, SPEC, max_deg=5, max_steps=5000)
        for d in range(6):
            assert len(irr_words(AB, report.relations, SPEC, d)) == quotient_dim_oracle(
                AB, report.relations, SPEC, d
            )


def test_is_member_examples():
    cert = GsbCertificate(tuple(GSB), SPEC)
    assert is_member(p("a*b - b*a"), cert)
    assert not is_member(p("a"), cert)
    assert is_member(p("a*b*a - b*b"), cert)
    with pytest.raises(UncertifiedBasisError):
        is_member(p("a"), GSB)


def test_randomized_strategy_agrees_on_certified_basis():
    rng = random.Random(16)
    for _ in range(100):
        terms = [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))), rng.choice((1, -1, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        f = Polynomial(AB, terms)
        assert normal_form(f, GSB, SPEC) == normal_form_random(f, GSB, SPEC, rng)


def test_integer_rows_agree_with_random_strategy_on_fractional_bases():
    # certified bases with denominators, so the rules' integer rows are
    # scaled (p > 1), reduced from inputs with fractional coefficients: the
    # pseudo-remainder steps against the Fraction-valued randomized
    # reduction, and each trace replayed exactly
    rng = random.Random(71)
    abc = Alphabet(("a", "b", "c"))
    coeffs = (1, -1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(-2, 3))

    def poly(alphabet, count, max_len):
        terms = []
        for _ in range(count):
            word = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_len)))
            terms.append((word, rng.choice(coeffs)))
        return Polynomial(alphabet, terms)

    bases = 0
    while bases < 40:
        alphabet = rng.choice((AB, abc))
        rels = [f for f in (poly(alphabet, rng.randint(2, 3), 3) for _ in range(rng.randint(1, 3))) if f]
        if not rels:
            continue
        report = shirshov_complete(rels, SPEC, max_deg=6, max_steps=200)
        basis = report.relations
        if not report.is_certified or all(
            c.denominator == 1 for f in basis for c in f.raw_terms().values()
        ):
            continue
        bases += 1
        for _ in range(10):
            f = poly(alphabet, rng.randint(1, 5), 5)
            nf, trace = normal_form_with_trace(f, basis, SPEC)
            assert nf == normal_form(f, basis, SPEC)
            assert nf == normal_form_random(f, basis, SPEC, rng)
            assert trace.reconstruct(basis) == f


# -- the rule index against the per-rule scan it replaced -----------------------


def _find_first(u, lead):
    """Position of the first occurrence of ``lead`` in ``u``, or None."""
    n = len(lead)
    if n == 0:
        return 0
    if n > len(u):
        return None
    first = lead[0]
    for i in range(len(u) - n + 1):
        if u[i] == first and u[i : i + n] == lead:
            return i
    return None


def _leftmost_match(u, rules):
    """(position, rule index) of the leftmost match, lowest index there: a
    scan of every rule."""
    best = None
    for ridx, (lead, _tail) in enumerate(rules):
        pos = _find_first(u, lead)
        if pos is not None and (best is None or (pos, ridx) < best):
            best = (pos, ridx)
    return best


def _random_lead(rng, letters):
    """A lead over ``letters`` letters, sometimes empty, sometimes longer
    than the words it is matched against."""
    return tuple(rng.randrange(letters) for _ in range(rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 4, 6))))


def _random_rules(rng, letters):
    """Up to six leads, sometimes one of them repeated."""
    leads = [_random_lead(rng, letters) for _ in range(rng.randint(0, 6))]
    if leads and rng.random() < 0.4:
        leads.insert(rng.randrange(len(leads) + 1), rng.choice(leads))
    if rng.random() < 0.8:
        leads = [lead for lead in leads if lead] or leads  # the empty lead matches everywhere
    return [(lead, ()) for lead in leads]


def _hit(found):
    return None if found is None else (found[0], found[1].rank)


def _trie(node):
    """A trie node with each ``below`` list as a multiset, so that two
    indexes built in different orders compare equal."""
    children, held, below = node
    return {c: _trie(child) for c, child in children.items()}, held, Counter(below)


def _holding(node, prefix=()):
    """Each lead whose node holds rules, with the rules it holds."""
    children, held, _ = node
    found = {} if held is None else {prefix: held}
    for c, child in children.items():
        found.update(_holding(child, prefix + (c,)))
    return found


def _by_lead(rules):
    """Each lead of ``rules`` with its rules, lowest rank first."""
    found = {}
    for rule in sorted(rules, key=lambda r: r.rank):
        found.setdefault(rule.lead, []).append(rule)
    return found


def test_indexed_leftmost_match_equals_scan():
    rng = random.Random(61)
    empty_leads = repeated_leads = long_leads = 0
    for _ in range(3000):
        letters = rng.randint(1, 3)
        rules = _random_rules(rng, letters)
        leads = [lead for lead, _ in rules]
        empty_leads += () in leads
        repeated_leads += len(set(leads)) < len(leads)
        index = _RuleIndex(
            [_Rule({lead: 1, **dict(tail)}, lead, idx) for idx, (lead, tail) in enumerate(rules)]
        )
        for _ in range(4):
            u = tuple(rng.randrange(letters) for _ in range(rng.randint(0, 7)))
            long_leads += any(len(lead) > len(u) for lead in leads)
            assert _hit(index.leftmost(u)) == _leftmost_match(u, rules)
            if not rules:
                continue
            # with one rule discarded, the index is a scan of the others
            drop = rng.randrange(len(rules))
            (rule,) = [r for r in _holding(index.trie)[leads[drop]] if r.rank == drop]
            expected = _leftmost_match(u, rules[:drop] + rules[drop + 1 :])
            if expected is not None and expected[1] >= drop:
                expected = (expected[0], expected[1] + 1)
            index.discard(rule)
            assert _hit(index.leftmost(u)) == expected
            index.add(rule)
    assert min(empty_leads, repeated_leads, long_leads) > 100


def test_rule_index_updates_match_a_fresh_scan():
    # rules enter and leave with arbitrary ranks, leads repeating
    rng = random.Random(62)
    for _ in range(200):
        letters = rng.randint(1, 3)
        index = _RuleIndex()
        live = []
        ranks = iter(rng.sample(range(1000), 1000))
        for _ in range(30):
            if live and rng.random() < 0.35:
                index.discard(live.pop(rng.randrange(len(live))))
            else:
                lead = _random_lead(rng, letters)
                rule = _Rule({lead: 1}, lead, next(ranks))
                index.add(rule)
                live.append(rule)
            by_rank = sorted(live, key=lambda r: r.rank)
            rules = [(r.lead, r.tail) for r in by_rank]
            fresh = _RuleIndex(live)
            assert _trie(index.trie) == _trie(fresh.trie)
            assert _holding(index.trie) == _by_lead(live)
            for _ in range(3):
                u = tuple(rng.randrange(letters) for _ in range(rng.randint(0, 7)))
                found = index.leftmost(u)
                expected = _leftmost_match(u, rules)
                got = None if found is None else (found[0], by_rank.index(found[1]))
                assert got == expected


def _assert_index_equals_scan(index, rules, words):
    """``index`` holds the ``_Rule``s ``rules``: its redexes, prefix probes
    and lead factors are those a scan of every rule finds."""
    by_rank = sorted(rules, key=lambda r: r.rank)
    scan = [(r.lead, r.tail) for r in by_rank]
    by_lead = _by_lead(rules)
    assert _holding(index.trie) == by_lead
    for u in words:
        found = index.leftmost(u)
        got = None if found is None else (found[0], by_rank.index(found[1]))
        assert got == _leftmost_match(u, scan)
        assert list(index.factors(u)) == [
            (i, j, by_lead[u[i:j]])
            for i in range(len(u) + 1)
            for j in range(i, len(u) + 1)
            if u[i:j] in by_lead
        ]
    for prefix in {r.lead[:o] for r in rules for o in range(1, len(r.lead) + 1)}:
        assert set(index.extending(prefix)) == {
            r for r in rules if len(r.lead) > len(prefix) and r.lead[: len(prefix)] == prefix
        }


def test_rule_index_with_leads_that_prefix_other_leads():
    # every lead is a chain a, ab, abb, ... cut from one word, so most leads
    # are proper prefixes of others and a word matches several at a position
    rng = random.Random(63)
    nested = 0
    for _ in range(300):
        letters = rng.randint(1, 3)
        stems = [tuple(rng.randrange(letters) for _ in range(6)) for _ in range(rng.randint(1, 2))]
        leads = [s[:k] for s in stems for k in rng.sample(range(1, 7), rng.randint(1, 4))]
        ranks = rng.sample(range(100), len(leads))
        rules = [_Rule({lead: 1}, lead, rank) for lead, rank in zip(leads, ranks)]
        index = _RuleIndex(rules)
        nested += any(f != g and g[: len(f)] == f for f in leads for g in leads)
        words = [tuple(rng.randrange(letters) for _ in range(rng.randint(0, 8))) for _ in range(4)]
        _assert_index_equals_scan(index, rules, words + stems)
    assert nested > 200


def test_rule_index_emptied_by_discards_holds_nothing():
    # the trie is all an index holds
    assert _RuleIndex.__slots__ == ("trie",)
    rng = random.Random(64)
    for _ in range(200):
        letters = rng.randint(1, 3)
        leads = [_random_lead(rng, letters) for _ in range(rng.randint(1, 12))]
        rules = [_Rule({lead: 1}, lead, rank) for rank, lead in enumerate(leads)]
        rules += [_Rule({r.lead: 1}, r.lead, 100 + k) for k, r in enumerate(rules[:3])]
        index = _RuleIndex(rules)
        rng.shuffle(rules)
        for rule in rules:
            index.discard(rule)
        assert index.trie == [{}, None, []]
        assert index.leftmost((0,) * 5) is None


def test_rule_index_under_reversed_leads_finds_the_leads_ending_in_a_word():
    # as the completion engine's second index files its relations: probed
    # with a word reversed, it gives the rules whose lead ends in that word
    rng = random.Random(66)
    found = 0
    for _ in range(200):
        letters = rng.randint(1, 3)
        leads = [_random_lead(rng, letters) for _ in range(rng.randint(1, 12))]
        rules = [_Rule({lead: 1}, lead, rank) for rank, lead in enumerate(leads)]
        rules += [_Rule({r.lead: 1}, r.lead, 100 + k) for k, r in enumerate(rules[:3])]
        index = _RuleIndex()
        for rule in rules:
            index.add(rule, rule.lead[::-1])
        assert _holding(index.trie) == {lead[::-1]: held for lead, held in _by_lead(rules).items()}
        words = {r.lead[o:] for r in rules for o in range(len(r.lead) + 1)}
        words |= {tuple(rng.randrange(letters) for _ in range(rng.randint(1, 4))) for _ in range(4)}
        for p in words:
            ending = set(index.extending(p[::-1]))
            assert ending == {
                r for r in rules if len(r.lead) > len(p) and r.lead[len(r.lead) - len(p) :] == p
            }
            found += bool(ending)
        rng.shuffle(rules)
        for rule in rules:
            index.discard(rule, rule.lead[::-1])
        assert index.trie == [{}, None, []]
    assert found > 500


def test_rule_index_after_ranks_are_reassigned():
    # as ``_Engine.sort`` does: distinct leads stay indexed while their
    # ranks become their places in a new order
    rng = random.Random(65)
    for _ in range(200):
        letters = rng.randint(1, 3)
        leads = list(dict.fromkeys(_random_lead(rng, letters) for _ in range(rng.randint(1, 10))))
        rules = [_Rule({lead: 1}, lead, rank) for rank, lead in enumerate(leads)]
        index = _RuleIndex(rules)
        words = [tuple(rng.randrange(letters) for _ in range(rng.randint(0, 8))) for _ in range(4)]
        rng.shuffle(rules)
        for rank, rule in enumerate(rules):
            rule.rank = rank
        _assert_index_equals_scan(index, rules, words)
        # and later updates see the new ranks
        gone = rules.pop(rng.randrange(len(rules)))
        index.discard(gone)
        lead = _random_lead(rng, letters)
        if lead not in {r.lead for r in rules}:
            rules.append(_Rule({lead: 1}, lead, -1))
            index.add(rules[-1])
        _assert_index_equals_scan(index, rules, words)
        fresh = _RuleIndex(rules)
        assert _trie(index.trie) == _trie(fresh.trie)


def _irr_oracle(alphabet, relations, spec, max_deg):
    """Every word of degree <= max_deg with no leading word as a factor,
    sorted by ``spec.key``."""
    leads = [f.leading_word(spec).letters for f in relations]
    words = [
        Word(alphabet, w)
        for d in range(max_deg + 1)
        for w in product(range(alphabet.size), repeat=d)
        if not any(
            w[i : i + len(lead)] == lead for lead in leads for i in range(d - len(lead) + 1)
        )
    ]
    return sorted(words, key=spec.key)


@pytest.mark.parametrize("seed", range(12))
def test_irr_words_under_tower_match_brute_force(seed):
    tower = Tower("t", "t^-1")
    rng = random.Random(900 + seed)
    rels = _seeded_relations(rng, TOWER_AB, tower, rng.randint(1, 4))
    for max_deg in (0, 1, 4):
        assert irr_words(TOWER_AB, rels, tower, max_deg) == _irr_oracle(
            TOWER_AB, rels, tower, max_deg
        )


class ReversedDegLex(DegLex):
    """Deg-lex with the letter precedence reversed: a subclass that reorders letters."""

    def letter_key(self, alphabet):
        last = alphabet.size - 1
        return lambda letters: _deglex_key(tuple(last - x for x in letters))


def test_irr_words_under_a_deglex_subclass_follow_its_own_key():
    # listed in the base class's order this would be 1, b, a, b*b, b*a, a*b, a*a
    words = irr_words(AB, [], ReversedDegLex(), 2)
    assert [str(w) for w in words] == ["1", "a", "b", "a*a", "a*b", "b*a", "b*b"]


@pytest.mark.parametrize("seed", range(12))
def test_irr_words_under_deglex_match_brute_force(seed):
    # monomial relations, so the leads are the words drawn: single letters
    # (nothing left to match after the first), leads that extend another
    # (an unreduced set) and leads longer than the listing
    rng = random.Random(1100 + seed)
    alphabet = Alphabet(("a", "b", "c", "d")[: 1 + seed % 4])
    k = alphabet.size
    leads = [
        tuple(rng.randrange(k) for _ in range(rng.randint(2, 7))) for _ in range(rng.randint(1, 6))
    ]
    leads.append(leads[0] + (rng.randrange(k),))
    leads.append((rng.randrange(k),) + leads[-1])
    if seed % 3 == 0:
        leads.append((rng.randrange(k),))
    rels = [Polynomial(alphabet, [(lead, 1)]) for lead in dict.fromkeys(leads)]
    for spec in (SPEC, ReversedDegLex()):
        for max_deg in range(6):
            words = irr_words(alphabet, rels, spec, max_deg)
            assert words == _irr_oracle(alphabet, rels, spec, max_deg)
            assert len(set(words)) == len(words)
            keys = [spec.key(w) for w in words]
            assert all(u < v for u, v in zip(keys, keys[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_irr_counts_match_irr_words_per_degree(seed):
    rng = random.Random(700 + seed)
    cases = [
        (AB, SPEC, 6),
        (Alphabet(("a", "b", "c")), SPEC, 5),
        (TOWER_AB, Tower("t", "t^-1"), 4),
    ]
    for alphabet, spec, max_deg in cases:
        rels = _seeded_relations(rng, alphabet, spec, rng.randint(0, 4))
        words = irr_words(alphabet, rels, spec, max_deg)
        per_degree = [0] * (max_deg + 1)
        for w in words:
            per_degree[w.degree] += 1
        assert irr_counts(alphabet, rels, spec, max_deg) == per_degree
        assert irr_counts(alphabet, rels, spec, 0) == per_degree[:1]


def test_irr_counts_edge_cases():
    assert irr_counts(AB, [], SPEC, 4) == [1, 2, 4, 8, 16]
    assert irr_counts(AB, [Polynomial.unit(AB)], SPEC, 3) == [0, 0, 0, 0]
    assert irr_counts(AB, GSB, SPEC, 3) == [1, 2, 2, 2]
    with pytest.raises(LimitError):
        irr_counts(AB, GSB, SPEC, -1)
    with pytest.raises(NonMonicRelationError):
        irr_counts(AB, [p("2*a - b")], SPEC, 2)
    for f in (irr_words, irr_counts):
        with pytest.raises(TowerSymbolMissingError):
            f(AB, [], Tower("t", "t^-1"), 2)


def _deligne_series(max_deg):
    """Coefficients of 1/(1 - 3t + t^2 + 2t^3 - t^6), the growth series of B4+."""
    coeffs = []
    for n in range(max_deg + 1):
        value = 1 if n == 0 else 0
        for shift, weight in ((1, 3), (2, -1), (3, -2), (6, 1)):
            if n >= shift:
                value += weight * coeffs[n - shift]
        coeffs.append(value)
    return coeffs


def test_braid_degree_12_irr_counts_follow_deligne_series():
    abc = Alphabet(("a", "b", "c"))
    braid = [parse_polynomial(t, abc) for t in ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a")]
    report = shirshov_complete(braid, SPEC, max_deg=12)
    assert len(report.relations) == 106
    counts = irr_counts(abc, report.relations, SPEC, 12)
    assert counts == _deligne_series(12)
    assert counts[-1] == 17413
