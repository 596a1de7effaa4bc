"""The polynomial and module-element reader against a character-by-character
reference reader, on seeded generated lines, and the word reader against
the polynomial reader's terms."""

import random
import re
from fractions import Fraction

import pytest

from gsb.errors import GsbError, UnknownSymbolError, WordSyntaxError
from gsb.poly import ModuleElement, Polynomial, parse_module_element, parse_polynomial
from gsb.presentation import load_presentation
from gsb.words import Alphabet, ModuleBasis, Word, parse_word

# -- the reference reader ------------------------------------------------------
#
# Walks the text one character at a time, as the package's reader once did.
# Its \d also reads other scripts' digits as coefficients; the package reads
# ASCII digits only, the one difference the comparison below allows.

_REF_COEFF_RE = re.compile(r"\d+(?:/\d+)?")


def _ref_int(digits: str) -> int:
    # at most 640 digits per int(), Python's lowest int/str digit limit
    n = 0
    for i in range(0, len(digits), 640):
        piece = digits[i : i + 640]
        n = n * 10 ** len(piece) + int(piece)
    return n


def _split_signed_terms(text: str):
    """Split on top-level +/-, keeping '^-1' tokens intact."""
    chunks = []
    sign = 1
    pending_sign = False
    buf = []
    prev = ""
    for i, ch in enumerate(text):
        if ch in "+-" and prev != "^":
            if "".join(buf).strip():
                chunks.append((sign, "".join(buf), i))
            elif chunks or pending_sign:
                raise WordSyntaxError("empty term", i)
            buf = []
            sign = 1 if ch == "+" else -1
            pending_sign = True
        else:
            buf.append(ch)
        if not ch.isspace():
            prev = ch
    tail = "".join(buf)
    if tail.strip():
        chunks.append((sign, tail, len(text)))
    else:
        raise WordSyntaxError("empty term", len(text))
    return chunks


def _parse_term_factors(chunk: str, position: int):
    """Split one term (the text ending at ``position``) into its coefficient
    and its factors, each as (name, position of its first character)."""
    pieces = chunk.split("*")
    factors = []
    start = position - len(chunk)  # each piece is followed by '*'
    for piece in pieces:
        name = piece.strip()
        if not name:
            raise WordSyntaxError("empty factor", start)
        factors.append((name, start + len(piece) - len(piece.lstrip())))
        start += len(piece) + 1
    coeff = Fraction(1)
    if _REF_COEFF_RE.fullmatch(factors[0][0]):
        num, _, den = factors[0][0].partition("/")
        den = _ref_int(den) if den else 1
        if not den:
            raise WordSyntaxError("zero denominator", factors[0][1])
        coeff = Fraction(_ref_int(num), den)
        factors = factors[1:]
    return coeff, factors


def _letters(factors, alphabet: Alphabet) -> tuple[int, ...]:
    """Letter indices of (name, position) factors; an unknown one names its position."""
    letters = []
    for name, position in factors:
        try:
            letters.append(alphabet.index(name))
        except UnknownSymbolError:
            raise UnknownSymbolError(name, position) from None
    return tuple(letters)


def reference_parse_polynomial(text: str, alphabet: Alphabet) -> Polynomial:
    terms = []
    for sign, chunk, pos in _split_signed_terms(text):
        coeff, factors = _parse_term_factors(chunk, pos)
        terms.append((_letters(factors, alphabet), sign * coeff))
    return Polynomial(alphabet, terms)


def reference_parse_module_element(
    text: str, alphabet: Alphabet, basis: ModuleBasis
) -> ModuleElement:
    terms = []
    for sign, chunk, pos in _split_signed_terms(text):
        coeff, factors = _parse_term_factors(chunk, pos)
        if not factors:
            raise WordSyntaxError("a module term needs a generator", pos)
        gen, gen_pos = factors[-1]
        try:
            g = basis.index(gen)
        except UnknownSymbolError:
            raise WordSyntaxError(
                f"module term must end in a basis generator, got {gen!r}", gen_pos
            ) from None
        terms.append(((_letters(factors[:-1], alphabet), g), sign * coeff))
    return ModuleElement(alphabet, basis, terms)


# -- generated lines ------------------------------------------------------------

ALPHABET = Alphabet(("t", "t^-1", "a", "a^-1", "x1", "y_2"))
BASIS = ModuleBasis(("y1", "y2"))
NON_ASCII_DIGITS = "٣١४７"  # Arabic-Indic 3 and 1, Devanagari 4, fullwidth 7
BLANKS = ("", "", "", " ", "  ", "\t", " \t")
ODD_NAMES = ("z", "y1", "t ^-1", "t^ -1", "t^+1", "a^-1^-1", "1", "2", "", " ", "x1 a", "٣")


def _long_digits(rng: random.Random) -> str:
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(640, 1400)))
    return str(rng.randint(1, 9)) + digits


def _coefficient(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(("1", "0", "2", "12", "007"))
    if roll < 0.6:
        return f"{rng.randint(0, 30)}/{rng.choice((1, 2, 3, 4, 6, 0, 10))}"
    if roll < 0.75:
        return _long_digits(rng) + rng.choice(("", f"/{_long_digits(rng)}"))
    if roll < 0.85:
        return rng.choice(NON_ASCII_DIGITS) + rng.choice(("", "/2", "0"))
    return rng.choice(("1/", "/2", "3//4", "2/ 3", "1 /2"))


def _term(rng: random.Random, module: bool) -> str:
    factors = [rng.choice(ALPHABET.symbols) for _ in range(rng.randint(0, 3))]
    if module and rng.random() < 0.9:
        factors.append(rng.choice(BASIS.symbols))
    if rng.random() < 0.06:
        factors.insert(rng.randrange(len(factors) + 1), rng.choice(ODD_NAMES))
    if rng.random() < 0.4:
        factors.insert(0, _coefficient(rng))
    if not factors:
        factors = [rng.choice(("1", "1", "a", ""))]
    return "*".join(rng.choice(BLANKS) + f + rng.choice(BLANKS) for f in factors)


def _line(rng: random.Random, module: bool) -> str:
    parts = []
    if rng.random() < 0.3:
        parts.append(rng.choice(("-", "+", "- ", "-", "+", "- -")))
    for k in range(rng.randint(1, 4)):
        if k:
            parts.append(rng.choice(("+", "-") * 5 + ("+ +",)))
        if rng.random() < 0.02:
            continue  # an empty term
        parts.append(_term(rng, module))
    if rng.random() < 0.02:
        parts.append(rng.choice(("+", "-")))
    return "".join(rng.choice(BLANKS) + p for p in parts) + rng.choice(BLANKS)


def _outcome(parse, text):
    """The parsed element with its term order, or the error's type, text and position."""
    try:
        element = parse(text)
    except GsbError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))
    terms = element.code.raw_terms() if isinstance(element, ModuleElement) else element.raw_terms()
    return (element, list(terms.items()))


READERS = {
    "polynomial": (
        lambda text: parse_polynomial(text, ALPHABET),
        lambda text: reference_parse_polynomial(text, ALPHABET),
    ),
    "module element": (
        lambda text: parse_module_element(text, ALPHABET, BASIS),
        lambda text: reference_parse_module_element(text, ALPHABET, BASIS),
    ),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_matches_the_reference_reader(kind):
    parse, reference = READERS[kind]
    rng = random.Random(20261019)
    accepted = rejected = digit_lines = 0
    for _ in range(2000):
        text = _line(rng, kind == "module element")
        got, want = _outcome(parse, text), _outcome(reference, text)
        if any(ch in NON_ASCII_DIGITS for ch in text):
            # the one allowed difference: other scripts' digits are no coefficient
            assert isinstance(got[0], type) and issubclass(got[0], GsbError), text
            digit_lines += got != want
            continue
        assert got == want, text
        if isinstance(got[0], type):
            rejected += 1
        else:
            accepted += 1
    # every kind of outcome is exercised
    assert min(accepted, rejected) >= 500 and digit_lines >= 50, (accepted, rejected, digit_lines)


def test_other_scripts_digits_are_no_coefficient():
    ab = Alphabet(("a", "b"))
    with pytest.raises(UnknownSymbolError) as exc:
        Polynomial.parse("١*a", ab)
    assert (exc.value.token, exc.value.position) == ("١", 0)
    assert str(exc.value) == "unknown symbol '١' (at position 0)"
    with pytest.raises(UnknownSymbolError) as exc:
        parse_module_element("a*y1 + ７/2*y2", ab, ModuleBasis(("y1", "y2")))
    assert (exc.value.token, exc.value.position) == ("７/2", 7)
    text = "alphabet: a > b\nordering: deglex\nrelations:\n٣*a - b\n"
    with pytest.raises(UnknownSymbolError) as exc:
        load_presentation(text)
    assert str(exc.value) == "line 4: unknown symbol '٣' (at position 0)"
    # ASCII digits still read
    assert parse_polynomial("3*a - b", ab) == Polynomial(ab, {(0,): 3, (1,): -1})


# -- words ----------------------------------------------------------------------


def test_a_word_reads_as_one_term_of_the_polynomial_reader():
    rng = random.Random(20261020)
    accepted = rejected = 0
    for _ in range(2000):
        text = _term(rng, module=False)
        got = _outcome(lambda t: Polynomial.from_word(parse_word(t, ALPHABET)), text)
        want = _outcome(lambda t: parse_polynomial(t, ALPHABET), text)
        factors = [f.strip() for f in text.split("*")]
        coefficient = re.fullmatch(r"[0-9]+(?:/[0-9]+)?", factors[0])
        if text.strip() != "1" and "" not in factors and coefficient:
            at = len(text) - len(text.lstrip())
            want = (WordSyntaxError, f"a word takes no coefficient (at position {at})", at)
        assert got == want, text
        if isinstance(got[0], type):
            rejected += 1
        else:
            accepted += 1
    assert min(accepted, rejected) >= 300, (accepted, rejected)


@pytest.mark.parametrize(
    "text,error,token,position",
    [
        ("2*a", WordSyntaxError, None, 0),
        ("1*a", WordSyntaxError, None, 0),
        ("-a", WordSyntaxError, None, 0),
        ("a + a", WordSyntaxError, None, 2),
        ("a - b", WordSyntaxError, None, 2),
        ("a b", UnknownSymbolError, "a b", 0),
        # positions count from the raw text, and an unknown symbol has one
        ("  a*?", UnknownSymbolError, "?", 4),
        ("a*z", UnknownSymbolError, "z", 2),
        ("a* *b", WordSyntaxError, None, 2),
        ("", WordSyntaxError, None, 0),
    ],
)
def test_a_word_takes_no_sign_coefficient_or_blank(text, error, token, position):
    ab = Alphabet(("a", "b"))
    with pytest.raises(error) as exc:
        ab.word(text)
    assert type(exc.value) is error
    assert exc.value.position == position
    if token is not None:
        assert exc.value.token == token


def test_the_lone_one_is_the_empty_word():
    ab = Alphabet(("a", "b"))
    assert ab.word(" 1 ") == ab.empty() == Word(ab, ())
    assert ab.word(" b *a ").letters == (1, 0)
