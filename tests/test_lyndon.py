import hashlib
from functools import cmp_to_key
from itertools import product

import pytest

from gsb.cli import run
from gsb.errors import EmptyWordError, LimitError, NotAlswError
from gsb.lyndon import (
    BracketedWord,
    alsw_up_to,
    clf_factorize,
    is_alsw,
    lex_cmp,
    nlsw_basis_count,
    satisfies_nlsw_conditions,
    std_bracketing,
)
from gsb.words import Alphabet, Word

X = Alphabet(("x2", "x1"))  # x2 > x1


def w(text):
    return X.word(text)


def _split_definition_alsw(word):
    # the defining property, written independently: every proper split
    # u = v*w has v*w lexicographically greater than w*v
    ls = word.letters
    for i in range(1, len(ls)):
        v, rest = ls[:i], ls[i:]
        if lex_cmp(Word(word.alphabet, v + rest), Word(word.alphabet, rest + v)) <= 0:
            return False
    return True


def test_is_alsw_examples():
    assert is_alsw(w("x2"))
    assert is_alsw(w("x2*x1"))
    assert not is_alsw(w("x1*x2"))
    assert not is_alsw(w("x1*x1"))
    with pytest.raises(EmptyWordError):
        is_alsw(w("1"))


def test_split_definition_agrees_up_to_8():
    for n in range(1, 9):
        for ls in product(range(2), repeat=n):
            word = Word(X, ls)
            assert is_alsw(word) == _split_definition_alsw(word)


def _necklace(k, n):
    def mobius(m):
        result, q = 1, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                result = -result
            q += 1
        return -result if m > 1 else result

    return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_counts_two_letters():
    words = alsw_up_to(X, 8)
    counts = [sum(1 for u in words if len(u) == n) for n in range(1, 9)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]
    assert counts == [_necklace(2, n) for n in range(1, 9)]


def test_counts_three_letters():
    X3 = Alphabet(("x3", "x2", "x1"))
    words = alsw_up_to(X3, 5)
    counts = [sum(1 for u in words if len(u) == n) for n in range(1, 6)]
    assert counts == [3, 3, 8, 18, 48]


def test_alsw_up_to_is_grouped_and_descending():
    words = alsw_up_to(X, 5)
    lengths = [len(u) for u in words]
    assert lengths == sorted(lengths)
    for n in range(1, 6):
        group = [u for u in words if len(u) == n]
        for a, b in zip(group, group[1:]):
            assert lex_cmp(a, b) > 0
    assert [str(u) for u in words if len(u) == 1] == ["x2", "x1"]


def test_std_bracketing_examples():
    leaf = std_bracketing(w("x2"))
    assert leaf.is_leaf() and str(leaf) == "x2"
    assert str(std_bracketing(w("x2*x1*x1"))) == "[[x2 x1] x1]"
    with pytest.raises(NotAlswError):
        std_bracketing(w("x1*x2"))


def _all_brackets(ls):
    if len(ls) == 1:
        return [BracketedWord.leaf(X, ls[0])]
    out = []
    for i in range(1, len(ls)):
        for left in _all_brackets(ls[:i]):
            for right in _all_brackets(ls[i:]):
                out.append(BracketedWord.pair(left, right))
    return out


def test_bracketing_unique_and_flatten_identity():
    for word in alsw_up_to(X, 6):
        valid = [b for b in _all_brackets(word.letters) if satisfies_nlsw_conditions(b)]
        built = std_bracketing(word)
        assert len(valid) == 1
        assert str(valid[0]) == str(built)
        assert built.flatten() == word
        assert satisfies_nlsw_conditions(built)


def test_clf_examples():
    assert [str(u) for u in clf_factorize(w("x2*x1"))] == ["x2*x1"]
    assert [str(u) for u in clf_factorize(w("x1*x2"))] == ["x1", "x2"]
    with pytest.raises(EmptyWordError):
        clf_factorize(w("1"))


def _all_factorizations(ls):
    if not ls:
        return [[]]
    out = []
    for i in range(1, len(ls) + 1):
        head = Word(X, ls[:i])
        if is_alsw(head):
            for rest in _all_factorizations(ls[i:]):
                out.append([head] + rest)
    return out


def test_clf_unique_up_to_8():
    for n in range(1, 9):
        for ls in product(range(2), repeat=n):
            word = Word(X, ls)
            ascending = [
                fs
                for fs in _all_factorizations(ls)
                if all(lex_cmp(fs[i], fs[i + 1]) <= 0 for i in range(len(fs) - 1))
            ]
            mine = clf_factorize(word)
            assert len(ascending) == 1
            assert ascending[0] == mine
            joined = mine[0]
            for part in mine[1:]:
                joined = joined * part
            assert joined == word


def test_nlsw_basis_count():
    assert nlsw_basis_count(X, 1) == 2
    assert nlsw_basis_count(X, 2) == 1
    assert nlsw_basis_count(X, 6) == 9
    with pytest.raises(ValueError):
        nlsw_basis_count(X, 0)


def test_embedding_words_are_alsw():
    # the defining words a*a*b^i*a*b used by the two-generator embeddings
    ab = Alphabet(("a", "b"))
    for i in range(1, 9):
        word = Word(ab, (0, 0) + (1,) * i + (0, 1))
        assert is_alsw(word)
        assert std_bracketing(word).flatten() == word


# Brute-force definitions, kept as oracles for the textbook algorithms in
# gsb.lyndon: the rotation test, enumeration sorted by a comparison
# function, the longest-ALSW-suffix split and the greedy longest-ALSW-prefix
# factorization.  They share no code with the library beyond Word.

def _loop_lex_cmp(u, v):
    a, b = u.letters, v.letters
    for x, y in zip(a, b):
        if x != y:
            return 1 if x < y else -1
    if len(a) == len(b):
        return 0
    return 1 if len(a) < len(b) else -1


def _rotation_is_alsw(word):
    ls = word.letters
    return all(ls < ls[i:] + ls[:i] for i in range(1, len(ls)))


def _enumerated_alsw_up_to(alphabet, max_len):
    out = []
    for n in range(1, max_len + 1):
        group = [
            Word(alphabet, ls)
            for ls in product(range(alphabet.size), repeat=n)
            if _rotation_is_alsw(Word(alphabet, ls))
        ]
        group.sort(key=cmp_to_key(_loop_lex_cmp), reverse=True)
        out.extend(group)
    return out


def _suffix_bracketing(word):
    ls = word.letters
    if len(ls) == 1:
        return BracketedWord.leaf(word.alphabet, ls[0])
    for i in range(1, len(ls)):
        suffix = Word(word.alphabet, ls[i:])
        if _rotation_is_alsw(suffix):
            prefix = Word(word.alphabet, ls[:i])
            return BracketedWord.pair(_suffix_bracketing(prefix), _suffix_bracketing(suffix))
    raise AssertionError(f"{word} has no ALSW suffix split")


def _greedy_factorization(word):
    ls, out, start = word.letters, [], 0
    while start < len(ls):
        end = next(
            e
            for e in range(len(ls), start, -1)
            if _rotation_is_alsw(Word(word.alphabet, ls[start:e]))
        )
        out.append(Word(word.alphabet, ls[start:end]))
        start = end
    return out


def _enumerated_count(alphabet, deg):
    return sum(
        1
        for ls in product(range(alphabet.size), repeat=deg)
        if _rotation_is_alsw(Word(alphabet, ls))
    )


# (alphabet, longest length checked exhaustively)
EXHAUSTIVE = [
    (Alphabet(("x1",)), 10),
    (Alphabet(("x2", "x1")), 10),
    (Alphabet(("x3", "x2", "x1")), 7),
]
EXHAUSTIVE_IDS = ["1-letter", "2-letter", "3-letter"]


def _all_words(alphabet, max_len):
    for n in range(1, max_len + 1):
        for ls in product(range(alphabet.size), repeat=n):
            yield Word(alphabet, ls)


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_is_alsw_matches_rotation_oracle(alphabet, max_len):
    for word in _all_words(alphabet, max_len):
        assert is_alsw(word) == _rotation_is_alsw(word), word


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_alsw_up_to_matches_enumeration_oracle(alphabet, max_len):
    for n in range(1, max_len + 1):
        assert alsw_up_to(alphabet, n) == _enumerated_alsw_up_to(alphabet, n)


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_std_bracketing_matches_suffix_oracle(alphabet, max_len):
    for word in _enumerated_alsw_up_to(alphabet, max_len):
        built, expected = std_bracketing(word), _suffix_bracketing(word)
        assert built == expected, word
        assert hash(built) == hash(expected)
        assert str(built) == str(expected)
        assert repr(built) == repr(expected)


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_std_bracketing_decides_the_alsw_test(alphabet, max_len):
    # the bracketing pass is the ALSW test: every word, not only the ALSWs
    for word in _all_words(alphabet, max_len):
        if _rotation_is_alsw(word):
            built = std_bracketing(word)
            assert satisfies_nlsw_conditions(built), word
            assert built.flatten() == word
        else:
            with pytest.raises(NotAlswError, match="is not an associative Lyndon-Shirshov word"):
                std_bracketing(word)
    with pytest.raises(EmptyWordError):
        std_bracketing(alphabet.empty())


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_clf_factorize_matches_greedy_oracle(alphabet, max_len):
    for word in _all_words(alphabet, max_len):
        assert clf_factorize(word) == _greedy_factorization(word), word


@pytest.mark.parametrize("alphabet,max_len", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_nlsw_basis_count_matches_enumeration(alphabet, max_len):
    for n in range(1, max_len + 1):
        assert nlsw_basis_count(alphabet, n) == _enumerated_count(alphabet, n)


def test_nlsw_basis_count_large_degrees():
    # Witt's formula against the necklace count, well past enumeration
    X3 = Alphabet(("x3", "x2", "x1"))
    for n in (12, 13, 30, 64, 97, 360):
        assert nlsw_basis_count(X3, n) == _necklace(3, n)


def test_lex_cmp_matches_loop_oracle():
    for alphabet, max_len in ((X, 4), (Alphabet(("x3", "x2", "x1")), 3)):
        words = list(_all_words(alphabet, max_len)) + [alphabet.empty()]
        for u in words:
            for v in words:
                assert lex_cmp(u, v) == _loop_lex_cmp(u, v), (u, v)


def test_limits_and_error_types():
    for bad in (0, -3):
        with pytest.raises(LimitError):
            nlsw_basis_count(X, bad)
        with pytest.raises(LimitError):
            alsw_up_to(X, bad)
    with pytest.raises(EmptyWordError):
        std_bracketing(w("1"))
    with pytest.raises(NotAlswError):
        std_bracketing(w("x2*x1*x2"))


def test_public_bracket_constructors_still_validate():
    leaf = BracketedWord.leaf(X, 0)
    with pytest.raises(ValueError):
        BracketedWord(X)
    with pytest.raises(ValueError):
        BracketedWord(X, letter=0, left=leaf, right=leaf)
    with pytest.raises(ValueError):
        BracketedWord(X, left=leaf)


# SHA-256 of the stdout of the brute-force implementation these algorithms
# replaced, on the same commands
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["lyndon", "--alphabet", "c>b>a", "--max-len", "8", "--bracket"],
            "33aefffb126a0c5491e4dec4707d3611562c58fa830579dd779bce08b64390ef",
        ),
        (
            ["construct", "lie-words", "--max-i", "8"],
            "ee58b806a7b39a59a496d3f1bbf0864772b40ddc0871b2930f4ad06ce2cd6456",
        ),
    ],
    ids=["lyndon-bracket", "lie-words"],
)
def test_cli_stdout_digests(capsys, argv, digest):
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
