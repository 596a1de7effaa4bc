import random
from functools import cmp_to_key
from itertools import product as iproduct

import pytest

from gsb.completion import shirshov_complete
from gsb.errors import AlphabetMismatchError, BasisMismatchError, TowerSymbolMissingError
from gsb.orderings import (
    EQUAL,
    GREATER,
    LESS,
    DegLex,
    ModuleTop,
    Tower,
    _spelled_key,
    _spelling,
    check_monomial,
    compare,
    compare_module,
)
from gsb.poly import parse_polynomial
from gsb.rewrite import irr_words
from gsb.words import Alphabet, ModuleBasis, ModuleWord, Word

AB = Alphabet(("a", "b"))
TOWER_ALPHABET = Alphabet(("t", "t^-1", "b^-1", "b", "a^-1", "a", "g1"))


def test_deglex_examples():
    spec = DegLex()
    assert compare(spec, AB.word("a*b"), AB.word("b*a")) == GREATER
    assert compare(spec, AB.word("b*b*b"), AB.word("a*a")) == GREATER
    assert compare(spec, AB.word("a"), AB.word("a")) == EQUAL
    assert compare(spec, AB.word("1"), AB.word("b")) == LESS


def test_compare_mismatch():
    with pytest.raises(AlphabetMismatchError):
        compare(DegLex(), AB.word("a"), Alphabet(("c",)).word("c"))


def test_tower_example():
    spec = Tower("t", "t^-1")
    u = TOWER_ALPHABET.word("t*a")
    v = TOWER_ALPHABET.word("a^-1*t")
    assert compare(spec, u, v) == LESS


def test_tower_counts_stable_letters_first():
    spec = Tower("t", "t^-1")
    long_base = TOWER_ALPHABET.word("b^-1*b^-1*b^-1*b^-1")
    one_t = TOWER_ALPHABET.word("t")
    assert compare(spec, long_base, one_t) == LESS
    assert compare(spec, TOWER_ALPHABET.word("t"), TOWER_ALPHABET.word("t^-1")) == GREATER


def test_tower_symbol_missing():
    with pytest.raises(TowerSymbolMissingError):
        compare(Tower("t", "t^-1"), AB.word("a"), AB.word("b"))


def _random_words(rng, alphabet, count, max_len=5):
    return [
        Word(alphabet, tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_len))))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "alphabet,spec",
    [(AB, DegLex()), (TOWER_ALPHABET, Tower("t", "t^-1"))],
    ids=["deglex", "tower"],
)
def test_totality_and_antisymmetry(alphabet, spec):
    rng = random.Random(6)
    words = _random_words(rng, alphabet, 120)
    for u in words[:40]:
        for v in words[:40]:
            c1 = compare(spec, u, v)
            c2 = compare(spec, v, u)
            assert c1 == -c2
            assert (c1 == EQUAL) == (u == v)
    # sort-and-check: sorting by key and by pairwise comparison agree
    by_key = sorted(words, key=spec.key)
    by_cmp = sorted(words, key=cmp_to_key(lambda x, y: compare(spec, x, y)))
    assert by_key == by_cmp


def test_deglex_decreasing_chains_bounded():
    # desk-scale well-foundedness: chains below a fixed word cannot outrun
    # the count of words of bounded degree
    spec = DegLex()
    rng = random.Random(7)
    all_words = [
        Word(AB, ls) for d in range(5) for ls in iproduct(range(2), repeat=d)
    ]
    bound = len(all_words)
    for _ in range(50):
        current = AB.word("b*b*b*b")
        chain = [current]
        while True:
            smaller = [u for u in all_words if compare(spec, u, current) == LESS]
            if not smaller:
                break
            current = rng.choice(smaller)
            chain.append(current)
        assert len(chain) <= bound


BASIS = ModuleBasis(("y2", "y1"))  # listed descending, so y1 < y2


def mw(text_prefix, gen):
    return ModuleWord(AB.word(text_prefix), BASIS, BASIS.index(gen))


def test_module_compare_examples():
    spec = ModuleTop()
    assert compare_module(spec, mw("a", "y1"), mw("a*a", "y1")) == LESS
    assert compare_module(spec, mw("a", "y1"), mw("a", "y2")) == LESS
    assert compare_module(spec, mw("a*b", "y1"), mw("a*b", "y1")) == EQUAL
    # the prefix dominates the generator
    assert compare_module(spec, mw("b", "y2"), mw("a", "y1")) == LESS


def test_module_compare_mismatch():
    other = ModuleBasis(("z",))
    with pytest.raises(BasisMismatchError):
        compare_module(
            ModuleTop(), mw("a", "y1"), ModuleWord(AB.word("a"), other, 0)
        )


def test_check_monomial_runs_clean():
    assert check_monomial(DegLex(), Alphabet(("a", "b", "c")), 2000, seed=11).ok
    assert check_monomial(Tower("t", "t^-1"), TOWER_ALPHABET, 2000, seed=12).ok
    assert check_monomial(ModuleTop(), AB, 2000, seed=13, basis=BASIS).ok


class LetterKeyOnly(DegLex):
    """A subclass that reorders letters by overriding ``letter_key`` alone:
    here ``last`` gets the lowest index's place, so over {a, b} a < b."""

    def letter_key(self, alphabet):
        last = alphabet.size - 1
        return lambda letters: (len(letters), tuple(x - last for x in letters))


def test_a_deglex_subclass_overriding_letter_key_alone_has_one_order():
    # compare, check_monomial, leading words, completion and irr_words all
    # follow the subclass's letter_key, so a < b wherever the order is read
    spec = LetterKeyOnly()
    a, b = AB.word("a"), AB.word("b")
    assert compare(spec, a, b) == LESS
    words = [Word(AB, ls) for d in range(4) for ls in iproduct(range(2), repeat=d)]
    ascending = sorted(words, key=cmp_to_key(lambda u, v: compare(spec, u, v)))
    assert [str(u) for u in ascending[:7]] == ["1", "a", "b", "a*a", "a*b", "b*a", "b*b"]
    assert irr_words(AB, [], spec, 3) == ascending
    for u, v in iproduct(words, repeat=2):
        if u != v:
            top = (u if compare(spec, u, v) == GREATER else v).letters
            sum_ = parse_polynomial(f"{u} + {v}", AB)
            assert sum_.leading_word(spec).letters == top, (u, v)
    # completion takes b*b as the lead of a*a - b*b, and each lead it ends
    # with is the greatest word of its relation under compare
    report = shirshov_complete([parse_polynomial("a*a - b*b", AB)], spec)
    leads = [r.leading_word(spec) for r in report.relations]
    assert [str(lead) for lead in leads] == ["b*b", "b*a*a"]
    for r, lead in zip(report.relations, leads):
        assert all(compare(spec, u, lead) == LESS for u in r.support() if u != lead)
    assert check_monomial(spec, AB, 500, seed=3).ok

    class LexOnly(DegLex):
        # plain tuple order, not a monomial order: b < b*a, yet b*b > b*a*b
        def letter_key(self, alphabet):
            return tuple

    violations = check_monomial(LexOnly(), AB, 500, seed=3).violations
    assert violations
    for u, v, left, right in violations:
        assert u.letters < v.letters
        assert (left * u * right).letters > (left * v * right).letters


def test_check_monomial_rejects_bad_samples():
    with pytest.raises(ValueError):
        check_monomial(DegLex(), AB, 0, seed=1)
    with pytest.raises(ValueError):
        check_monomial(ModuleTop(), AB, 10, seed=1)


@pytest.mark.parametrize("size", [3, 300])
@pytest.mark.parametrize(
    "spec",
    [DegLex(), Tower(), ModuleTop(), ModuleTop(Tower())],
    ids=["deglex", "tower", "module-top", "module-tower"],
)
def test_spelled_keys_compare_as_letter_keys(spec, size):
    # 300 letters spell past Latin-1; the stable letters are 1 and the last
    symbols = [f"x{i}" for i in range(size)]
    symbols[1], symbols[-1] = "t", "t^-1"
    alphabet = Alphabet(tuple(symbols))
    letter_key, key = spec.letter_key(alphabet), _spelled_key(spec, alphabet)
    spell, decode = _spelling(size)
    rng = random.Random(size)
    # few letters, so equal lengths, shared prefixes and equal words all occur
    pool = sorted({0, 1, size // 2, size - 2, size - 1})

    def word():
        return tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))

    seen = set()
    for _ in range(2000):
        u = word()
        v = rng.choice((u, word(), u[:-1] + word()[:1], u + word()[:1]))
        assert decode(spell(u)) == u
        ku, kv = key(spell(u)), key(spell(v))
        lu, lv = letter_key(u), letter_key(v)
        order = (ku < kv) - (ku > kv)
        assert order == (lu < lv) - (lu > lv), (u, v)
        assert (ku == kv) == (u == v)
        seen.add(order)
    assert seen == {-1, 0, 1}
