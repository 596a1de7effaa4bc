import copy
import dataclasses
import pickle
import random

import pytest

from gsb.errors import (
    AlphabetError,
    AlphabetMismatchError,
    EmptyPatternError,
    UnknownSymbolError,
    WordSyntaxError,
)
from gsb.words import (
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

AB = Alphabet(("a", "b"))


def w(text):
    return parse_word(text, AB)


def test_parse_basic():
    assert w("a*a*b").letters == (0, 0, 1)
    assert w("1").letters == ()
    assert w("1").degree == 0


def test_parse_whitespace_and_inverse_tokens():
    g = Alphabet(("a", "a^-1"))
    assert parse_word(" a * a^-1 ", g).letters == (0, 1)
    assert g.inverse_index(0) == 1
    assert g.inverse_index(1) == 0


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        w("a*c")


def test_parse_syntax_errors():
    with pytest.raises(WordSyntaxError) as exc:
        w("a**b")
    assert exc.value.position == 2
    with pytest.raises(WordSyntaxError):
        w("a*")
    with pytest.raises(WordSyntaxError):
        w("")


def test_print_parse_roundtrip_random():
    rng = random.Random(1)
    alphabet = Alphabet(("a", "b", "xx", "a^-1"))
    for _ in range(1000):
        word = Word(
            alphabet, tuple(rng.randrange(4) for _ in range(rng.randint(0, 8)))
        )
        assert parse_word(print_word(word), alphabet) == word


def test_alphabet_validation():
    with pytest.raises(AlphabetError):
        Alphabet(())
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(AlphabetError):
        Alphabet(("a", "2b"))


def test_pair_formal_inverses():
    assert pair_formal_inverses(("t", "t^-1", "b")) == (("t", "t^-1"),)
    # an alphabet's pairing is read off its names, never given
    for symbols in [("a", "b"), ("t^-1", "b", "t", "b^-1"), ("a", "a^-1", "b^-1")]:
        alphabet = Alphabet(symbols)
        assert alphabet.inverse_pairs == pair_formal_inverses(symbols)
        partners = [alphabet.inverse_index(i) for i in range(alphabet.size)]
        assert all(j is None or partners[j] == i for i, j in enumerate(partners))
    assert Alphabet(("t^-1", "b", "t", "b^-1")).inverse_pairs == (("b", "b^-1"), ("t", "t^-1"))
    assert Alphabet(("a", "a^-1", "b^-1")).inverse_index(2) is None
    with pytest.raises(TypeError):
        Alphabet(("x", "y"), (("x", "y"),))


def test_concat_examples():
    assert (w("a") * w("b")).letters == (0, 1)
    assert (w("1") * w("a*b")) == w("a*b")
    assert concat(w("a*b"), w("1")) == w("a*b")


def test_concat_degree_additive_random():
    rng = random.Random(2)
    for _ in range(200):
        u = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
        v = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))))
        assert (u * v).degree == u.degree + v.degree


def test_concat_associative_random():
    rng = random.Random(3)
    for _ in range(200):
        u, v, z = (
            Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
            for _ in range(3)
        )
        assert (u * v) * z == u * (v * z)


def test_concat_alphabet_mismatch():
    other = Alphabet(("a", "b"))
    assert w("a") * parse_word("b", other) == w("a*b")  # equal alphabets interoperate
    with pytest.raises(AlphabetMismatchError):
        w("a") * parse_word("c", Alphabet(("c",)))



@pytest.mark.parametrize("word", [w("1"), w("a*b*b"), Word(AB, (1, 0))])
def test_word_is_slotted_and_survives_pickle_and_deepcopy(word):
    assert not hasattr(word, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.letters = ()
    for copied in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word)):
        assert copied == word
        assert hash(copied) == hash(word)
        assert copied.alphabet == AB

def test_occurrences_examples():
    out = occurrences(w("a*b"), w("a*a*b"))
    assert out == [(w("a"), w("1"))]
    out = occurrences(w("a"), w("a*a"))
    assert out == [(w("1"), w("a")), (w("a"), w("1"))]
    assert occurrences(w("b*a"), w("a*a*b")) == []


def test_occurrences_empty_pattern():
    with pytest.raises(EmptyPatternError):
        occurrences(w("1"), w("a"))


def test_occurrences_against_position_scan():
    rng = random.Random(4)
    for _ in range(300):
        host = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 10))))
        pattern = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))))
        got = occurrences(pattern, host)
        expected = []
        for i in range(len(host.letters) - len(pattern.letters) + 1):
            if host.letters[i : i + len(pattern.letters)] == pattern.letters:
                expected.append(i)
        assert [len(left) for left, _ in got] == expected
        for left, right in got:
            assert left * pattern * right == host


@pytest.mark.parametrize(
    "letters",
    [(2,), (-1,), (0, 5), (1.0,), (True,), ("a",)],
    ids=["2", "minus-1", "5-inside", "float", "bool", "str"],
)
def test_word_checks_its_letters(letters):
    with pytest.raises(AlphabetError):
        Word(AB, letters)


@pytest.mark.parametrize("generator", [2, -1, 1.0, True], ids=["2", "minus-1", "float", "bool"])
def test_module_word_checks_its_generator(generator):
    with pytest.raises(AlphabetError):
        ModuleWord(Word(AB, (0,)), ModuleBasis(("y1", "y2")), generator)
