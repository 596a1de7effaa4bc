"""Module-element arithmetic against a dict-based reference.

A ``ModuleElement`` is stored as a polynomial over its code alphabet.  The
reference below is the direct form: a map from (prefix letters, generator)
keys to coefficients, with sums, scalings and the left action written as
loops over those keys.
"""

import random
from fractions import Fraction

import pytest

from gsb.errors import AlphabetMismatchError, BasisMismatchError
from gsb.orderings import ModuleTop, Tower
from gsb.poly import ModuleElement, Polynomial, act, format_module_element, parse_module_element
from gsb.words import Alphabet, ModuleBasis, ModuleWord, Word

AB = Alphabet(("a", "b"))
Y = ModuleBasis(("y1", "y2", "y3"))
SHARED = Alphabet(("a", "y"))
SHARED_Y = ModuleBasis(("y",))
TOWER_A = Alphabet(("t", "t^-1", "a", "b"))
TOWER_Y = ModuleBasis(("y1", "y2"))

SETUPS = [
    pytest.param(AB, Y, ModuleTop(), id="deglex"),
    pytest.param(SHARED, SHARED_Y, ModuleTop(), id="shared-name"),
    pytest.param(TOWER_A, TOWER_Y, ModuleTop(Tower("t", "t^-1")), id="tower"),
]
COEFFS = (1, -1, 2, -2, 3, "1/2", "-3/4")


# -- the reference: (prefix, g) -> coefficient maps ---------------------------


def ref_accumulate(items):
    acc = {}
    for key, c in items:
        acc[key] = acc.get(key, Fraction(0)) + Fraction(c)
    return {k: v for k, v in acc.items() if v != 0}


def ref_add(x, y):
    return ref_accumulate(list(x.items()) + list(y.items()))


def ref_neg(x):
    return {k: -c for k, c in x.items()}


def ref_scale(x, c):
    return ref_accumulate((k, v * c) for k, v in x.items())


def ref_act(p, x):
    """Left action: sum over terms of p and x of c1*c2 * (w1*u)*y_g."""
    return ref_accumulate(
        ((w1 + u, g), c1 * c2) for w1, c1 in p.items() for (u, g), c2 in x.items()
    )


def ref_leading(x, spec, alphabet):
    wkey = spec.word_order.letter_key(alphabet)
    key = max(x, key=lambda k: (wkey(k[0]), -k[1]))
    return x[key], key


def ref_make_monic(x, spec, alphabet):
    c, _ = ref_leading(x, spec, alphabet)
    return ref_scale(x, 1 / c)


# -- seeded inputs -------------------------------------------------------------


def random_terms(rng, A, B, max_terms=4):
    return [
        (
            (tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 3))), rng.randrange(B.size)),
            Fraction(rng.choice(COEFFS)),
        )
        for _ in range(rng.randint(0, max_terms))
    ]


def random_poly_terms(rng, A):
    return [
        (tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 2))), Fraction(rng.choice(COEFFS)))
        for _ in range(rng.randint(0, 3))
    ]


@pytest.mark.parametrize("A,B,spec", SETUPS)
def test_arithmetic_matches_reference(A, B, spec):
    rng = random.Random(83)
    for _ in range(300):
        xt, yt, pt = random_terms(rng, A, B), random_terms(rng, A, B), random_poly_terms(rng, A)
        x, y, p = ModuleElement(A, B, xt), ModuleElement(A, B, yt), Polynomial(A, pt)
        rx, ry, rp = ref_accumulate(xt), ref_accumulate(yt), ref_accumulate(pt)
        c = Fraction(rng.choice(COEFFS))
        assert x.raw_terms() == rx
        assert (x + y).raw_terms() == ref_add(rx, ry)
        assert (x - y).raw_terms() == ref_add(rx, ref_neg(ry))
        assert (-x).raw_terms() == ref_neg(rx)
        assert (x * c).raw_terms() == (c * x).raw_terms() == ref_scale(rx, c)
        assert (x * 0).is_zero() and (x / c).raw_terms() == ref_scale(rx, 1 / c)
        assert act(p, x).raw_terms() == (p * x).raw_terms() == ref_act(rp, rx)
        assert len(x) == len(rx) and bool(x) == bool(rx)
        if rx:
            coeff, key = ref_leading(rx, spec, A)
            assert x.leading(spec) == (coeff, ModuleWord(Word(A, key[0]), B, key[1]))
            assert x.make_monic(spec).raw_terms() == ref_make_monic(rx, spec, A)
            assert x.make_monic(spec).is_monic(spec)
        words = {ModuleWord(Word(A, u), B, g): v for (u, g), v in rx.items()}
        assert dict(x.terms()) == words
        assert set(x.support()) == set(words)


@pytest.mark.parametrize("A,B,spec", SETUPS)
def test_equality_and_hash_agree(A, B, spec):
    rng = random.Random(89)
    for _ in range(200):
        xt = random_terms(rng, A, B)
        x = ModuleElement(A, B, xt)
        shuffled = list(xt)
        rng.shuffle(shuffled)
        same = ModuleElement(A, B, shuffled)
        assert x == same and hash(x) == hash(same)
        y = ModuleElement(A, B, random_terms(rng, A, B))
        assert x + y - y == x and hash(x + y - y) == hash(x)
        assert (x == y) == (x.raw_terms() == y.raw_terms())
        assert len({x, same, x + y - y}) == 1


def test_equality_sees_alphabet_and_basis():
    # the code alphabets coincide, the elements do not
    terms = [(((0, 1), 0), 1), (((), 1), -2)]
    renamed = ModuleBasis(("z1", "z2"))
    assert ModuleElement(AB, TOWER_Y, terms) != ModuleElement(AB, renamed, terms)
    # the pairing is read off the names, so alphabets of equal symbols are equal
    assert ModuleElement(Alphabet(("t", "t^-1")), TOWER_Y, terms) == ModuleElement(
        Alphabet(("t", "t^-1")), TOWER_Y, terms
    )


@pytest.mark.parametrize("A,B,spec", SETUPS)
def test_text_round_trip(A, B, spec):
    rng = random.Random(97)
    for _ in range(200):
        x = ModuleElement(A, B, random_terms(rng, A, B))
        text = format_module_element(x, spec)
        if x.is_zero():
            assert text == "0"
            continue
        assert parse_module_element(text, A, B) == x
        assert format_module_element(parse_module_element(text, A, B), spec) == text


def test_mismatched_operands_raise():
    x = ModuleElement(AB, Y, [(((0,), 0), 1)])
    other_basis = ModuleElement(AB, ModuleBasis(("y1", "y2", "y4")), [(((0,), 0), 1)])
    other_alphabet = ModuleElement(Alphabet(("a", "c")), Y, [(((0,), 0), 1)])
    with pytest.raises(BasisMismatchError):
        x + other_basis
    with pytest.raises(BasisMismatchError):
        x - other_basis
    with pytest.raises(AlphabetMismatchError):
        x + other_alphabet
    with pytest.raises(AlphabetMismatchError):
        act(Polynomial(Alphabet(("a", "c")), [((0,), 1)]), x)
