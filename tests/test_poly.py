import random
from fractions import Fraction

import pytest

from gsb.errors import (
    AlphabetError,
    AlphabetMismatchError,
    UnknownSymbolError,
    WordSyntaxError,
    ZeroPolynomialError,
)
from gsb.orderings import DegLex, ModuleTop
from gsb.poly import (
    ModuleElement,
    Polynomial,
    act,
    format_polynomial,
    parse_module_element,
    parse_polynomial,
)
from gsb.words import Alphabet, ModuleBasis

AB = Alphabet(("a", "b"))
SPEC = DegLex()


def p(text):
    return parse_polynomial(text, AB)


def test_noncommutative_expansion():
    assert p("a + b") * p("a - b") == p("a*a - a*b + b*a - b*b")


def test_additive_inverse():
    q = p("a*b - 2*b")
    assert (q + (-1) * q).is_zero()
    assert q - q == Polynomial.zero(AB)


def test_scalar_and_division():
    q = p("2*a - 4*b")
    assert q * Fraction(1, 2) == p("a - 2*b")
    assert q / 2 == p("a - 2*b")
    assert 3 * p("a") == p("3*a")


def test_ring_axioms_random():
    rng = random.Random(8)

    def rand_poly():
        terms = [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))), rng.choice((1, -1, 2, Fraction(1, 3))))
            for _ in range(rng.randint(0, 3))
        ]
        return Polynomial(AB, terms)

    for _ in range(150):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_leading_examples():
    assert p("a*a - b").leading(SPEC) == (Fraction(1), AB.word("a*a"))
    assert p("a*b - b*a").leading(SPEC) == (Fraction(1), AB.word("a*b"))
    assert p("3/2*b + 2*a").leading(SPEC) == (Fraction(2), AB.word("a"))
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(AB).leading(SPEC)


def test_make_monic():
    assert p("2*a*a - 4*b").make_monic(SPEC) == p("a*a - 2*b")
    monic = p("a*a - b")
    assert monic.make_monic(SPEC) is monic
    rng = random.Random(9)
    for _ in range(1000):
        terms = [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))), rng.choice((2, -3, Fraction(5, 7), -1)))
            for _ in range(rng.randint(1, 4))
        ]
        q = Polynomial(AB, terms)
        if q.is_zero():
            continue
        assert q.make_monic(SPEC).leading(SPEC)[0] == 1


def test_leading_of_product_concatenates():
    # the monomial-ordering consequence leading(p*q) = leading(p)*leading(q)
    rng = random.Random(10)
    for _ in range(300):
        terms = lambda: [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))), rng.choice((1, -1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        f, g = Polynomial(AB, terms()), Polynomial(AB, terms())
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            continue
        assert (f * g).leading_word(SPEC) == f.leading_word(SPEC) * g.leading_word(SPEC)


def test_parse_coefficients_and_unit():
    q = parse_polynomial("1/2*a*b + 1", AB)
    assert q.coefficient(AB.word("a*b")) == Fraction(1, 2)
    assert q.coefficient(AB.word("1")) == 1
    assert parse_polynomial("-a + 2", AB) == Polynomial(AB, {(0,): -1, (): 2})
    with pytest.raises(WordSyntaxError):
        parse_polynomial("a + ", AB)
    with pytest.raises(WordSyntaxError):
        parse_polynomial("", AB)


def test_parse_zero_denominator_is_a_syntax_error():
    with pytest.raises(WordSyntaxError) as exc:
        parse_polynomial("a*a - 1/0*b", AB)
    assert exc.value.position == 6
    with pytest.raises(WordSyntaxError):
        m("0/0*y1")


def test_empty_factor_reports_its_own_position():
    for text, position in (("a** b + a", 2), ("*a", 0), ("b + a*", 6), ("a - b* *a", 6)):
        with pytest.raises(WordSyntaxError) as exc:
            Polynomial.parse(text, AB)
        assert exc.value.position == position, text
        assert str(exc.value) == f"empty factor (at position {position})"


def test_parse_errors_point_at_the_offending_factor():
    with pytest.raises(UnknownSymbolError) as exc:
        parse_polynomial("b + 2 * zz*a", AB)
    assert str(exc.value) == "unknown symbol 'zz' (at position 8)"
    assert exc.value.position == 8
    for text, name, position in (("a*b + y1", "b", 2), ("y1 - 2*a* a", "a", 10)):
        with pytest.raises(WordSyntaxError) as exc:
            m(text)
        assert exc.value.position == position, text
        assert exc.value.message == f"module term must end in a basis generator, got {name!r}"


def test_format_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        terms = [
            (
                tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))),
                rng.choice((1, -1, 2, Fraction(-3, 2), Fraction(1, 2))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        q = Polynomial(AB, terms)
        if q.is_zero():
            assert format_polynomial(q) == "0"
            continue
        assert parse_polynomial(format_polynomial(q), AB) == q


def test_alphabet_mismatch():
    other = Alphabet(("c",))
    with pytest.raises(AlphabetMismatchError):
        p("a") + parse_polynomial("c", other)


def test_hashable_and_equal():
    assert hash(p("a - b")) == hash(p("a - b"))
    assert len({p("a - b"), p("a - b"), p("a")}) == 2


BASIS = ModuleBasis(("y1", "y2"))


def m(text):
    return parse_module_element(text, AB, BASIS)


def test_action_example():
    q = parse_polynomial("a", AB)
    elt = m("b*y1 + y2")
    assert act(q, elt) == m("a*b*y1 + a*y2")
    assert q * elt == act(q, elt)


def test_action_distributes_random():
    rng = random.Random(12)
    for _ in range(100):
        f = Polynomial(
            AB,
            [
                (tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))), rng.choice((1, -1, 2)))
                for _ in range(rng.randint(0, 2))
            ],
        )
        u = ModuleElement(
            AB,
            BASIS,
            [
                ((tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))), rng.randrange(2)), 1)
                for _ in range(rng.randint(0, 2))
            ],
        )
        v = ModuleElement(
            AB,
            BASIS,
            [
                ((tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))), rng.randrange(2)), -1)
                for _ in range(rng.randint(0, 2))
            ],
        )
        assert act(f, u + v) == act(f, u) + act(f, v)


def test_module_element_leading_and_parse_errors():
    spec = ModuleTop()
    elt = m("a*y1 - y2")
    coeff, lead = elt.leading(spec)
    assert coeff == 1 and str(lead) == "a*y1"
    with pytest.raises(WordSyntaxError):
        m("a + y1")  # first term has no generator
    with pytest.raises(WordSyntaxError):
        m("2")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Polynomial(AB, {(5,): 1}),
        lambda: Polynomial(AB, {(-1,): 1}),
        lambda: Polynomial(AB, [((0, 2), 1), ((1,), 1)]),
        lambda: ModuleElement(AB, BASIS, {((2,), 0): 1}),
        lambda: ModuleElement(AB, BASIS, {((-1,), 0): 1}),
        lambda: ModuleElement(AB, BASIS, {((0,), -1): 1}),
        lambda: ModuleElement(AB, BASIS, {((0,), 3): 1}),
        lambda: Polynomial(AB, {(1.0,): 1}),
        lambda: Polynomial(AB, {(True,): 1}),
        lambda: ModuleElement(AB, BASIS, {((0.0,), 0): 1}),
        lambda: ModuleElement(AB, BASIS, {((0,), 1.0): 1}),
        lambda: ModuleElement(AB, BASIS, {((0,), False): 1}),
    ],
    ids=[
        "letter-5",
        "letter-minus-1",
        "letter-2-inside-a-word",
        "prefix-letter-2",
        "prefix-letter-minus-1",
        "generator-minus-1",
        "generator-3",
        "letter-float",
        "letter-bool",
        "prefix-letter-float",
        "generator-float",
        "generator-bool",
    ],
)
def test_constructors_range_check_raw_letters(make):
    # (-1,) would otherwise print as b without being equal to b
    with pytest.raises(AlphabetError):
        make()


@pytest.mark.parametrize(
    "coeff, text",
    [
        (Fraction(10**700 + 123), "1" + "0" * 697 + "123"),
        (Fraction(1, 10**700 + 123), "1/1" + "0" * 697 + "123"),
        (Fraction(10**640, 3), "1" + "0" * 640 + "/3"),
        (Fraction(10**640 - 1), "9" * 640),
        (Fraction(7 * 10**5000 + 1, 10**4400), "7" + "0" * 4999 + "1/1" + "0" * 4400),
    ],
    ids=["703-digits", "703-digit-denominator", "641-digits-over-3", "640-digits", "5001-digits"],
)
def test_long_coefficients_print_and_parse_back(coeff, text):
    # Python refuses int/str conversions beyond sys.get_int_max_str_digits()
    # digits, 4300 by default and 640 at the lowest; chunk edges included
    f = Polynomial(AB, [((0,), -coeff), ((), coeff)])
    assert str(f) == f"-{text}*a + {text}"
    assert parse_polynomial(str(f), AB) == f
    m = ModuleElement(AB, ModuleBasis(("e",)), [(((1,), 0), coeff)])
    assert str(m) == f"{text}*b*e"
    assert parse_module_element(str(m), AB, m.basis) == m


def test_removed_relations_with_long_coefficients_print_and_parse_back():
    from gsb.completion import shirshov_complete

    abc = Alphabet(("a", "b", "c"))
    texts = (
        "b*b - 2/3*a - 2/3*c",
        "2*a*c + 1/2*a + 1",
        "2*a*a*b + 1/2*b*c + 1",
        "-b*c*b - 3*c*b + 2*a",
    )
    rels = [parse_polynomial(t, abc) for t in texts]
    report = shirshov_complete(rels, SPEC, max_deg=5, max_steps=25)
    removed = [e.relation for e in report.removed]
    # one coefficient is far beyond the default limit of 4300 digits
    assert max(c.denominator.bit_length() for f in removed for c in f.raw_terms().values()) > 15000
    for f in removed:
        assert parse_polynomial(str(f), abc) == f
