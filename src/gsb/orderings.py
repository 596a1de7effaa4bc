"""Monomial orderings on words and module words.

Every ordering is realized as a sort key: ``spec.key(w)`` returns a tuple
whose natural comparison agrees with the ordering, so ``sorted``/``max``
work directly.  ``compare`` returns -1, 0 or +1 and returns 0 only on
structural equality.  All comparisons are pure functions of (spec, words);
several orderings can coexist in one process.

The rewriting engine spells a word as a string (``_spelling``): letter x
of a k-letter alphabet is the character ``chr(k - 1 - x)``, so within a
degree string order is deg-lex order.  ``_spelled_key`` gives each
ordering's key on spellings, which compares as ``letter_key`` does on the
letters: ``(len(s), s)`` for ``DegLex``, the same pair on each segment
between stable letters for ``Tower``, and for ``ModuleTop`` the word
order's key on the reversed prefix, then the generator character.  Any
other ordering, a subclass included, keeps its own ``letter_key``, applied
to the decoded word.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import neg

from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    TowerSymbolMissingError,
    UnknownSymbolError,
    _checked_limit,
)
from .words import Alphabet, ModuleBasis, ModuleWord, Word, module_code

LESS, EQUAL, GREATER = -1, 0, 1


def _deglex_key(letters):
    # precedence rank == alphabet index, smaller index == greater letter
    return (len(letters), tuple(map(neg, letters)))


@dataclass(frozen=True)
class DegLex:
    """Compare by degree first, then by letter precedence left to right."""

    def letter_key(self, alphabet: Alphabet):
        return _deglex_key

    def key(self, word: Word):
        return self.letter_key(word.alphabet)(word.letters)


@dataclass(frozen=True)
class Tower:
    """Weight-tuple ordering for presentations with a designated stable letter.

    A word splits uniquely as u0 t^e1 u1 ... t^en un around occurrences of
    the stable letters.  Words are compared by the tuple
    (n, u0, e1, u1, ..., en, un) lexicographically, base segments deg-lex,
    with t > t^-1.
    """

    stable: str = "t"
    stable_inv: str = "t^-1"

    key = DegLex.key

    def _stable_letters(self, alphabet: Alphabet) -> tuple[int, int]:
        try:
            return alphabet.index(self.stable), alphabet.index(self.stable_inv)
        except UnknownSymbolError as exc:
            raise TowerSymbolMissingError(
                f"tower letters ({self.stable}, {self.stable_inv}) not in alphabet"
            ) from exc

    def letter_key(self, alphabet: Alphabet):
        up, down = self._stable_letters(alphabet)

        def key(letters):
            parts = []
            seg = []
            count = 0
            for c in letters:
                if c == up or c == down:
                    parts.append(_deglex_key(tuple(seg)))
                    parts.append(1 if c == up else -1)
                    seg = []
                    count += 1
                else:
                    seg.append(c)
            parts.append(_deglex_key(tuple(seg)))
            return (count, *parts)

        return key


@dataclass(frozen=True)
class ModuleTop:
    """Ordering on module words: prefixes first, generator order on ties.

    Its keys are of codes (``words.module_code``): u*y_g is Y_g*rev(u) over
    the code alphabet, where each letter keeps its index and generator g is
    the letter n + g, so the algebra engine runs on this ordering as it is.
    """

    word_order: DegLex | Tower = DegLex()

    def letter_key(self, alphabet: Alphabet):
        wkey = self.word_order.letter_key(alphabet)
        return lambda code: (wkey(code[:0:-1]), -code[0])

    def key(self, mw: ModuleWord):
        alphabet, encode, _ = module_code(mw.prefix.alphabet, mw.basis)
        return self.letter_key(alphabet)(encode(mw.prefix.letters, mw.generator))


@lru_cache(maxsize=None)
def _spelling(size: int):
    """``(spell, decode)`` for words over a ``size``-letter alphabet: ``spell``
    takes a letter tuple to its string, letter x to ``chr(size - 1 - x)``,
    and ``decode`` takes the string back, each through one table.  The pair
    is built once per size, as ``words.module_code`` is per alphabet."""
    chars = [chr(size - 1 - x) for x in range(size)]
    char, letter = chars.__getitem__, {c: x for x, c in enumerate(chars)}.__getitem__

    def spell(letters) -> str:
        return "".join(map(char, letters))

    def decode(s: str) -> tuple[int, ...]:
        return tuple(map(letter, s))

    return spell, decode


def _spelled_deglex_key(s: str):
    return (len(s), s)


def _spelled_key(spec, alphabet: Alphabet):
    """The key of ``spec`` on spellings over ``alphabet``: keys of two
    spellings compare as ``spec.letter_key(alphabet)`` does on their letters,
    and are equal only for equal words.  Picked by exact type, so any other
    ordering, a subclass included, gets its own ``letter_key`` over the
    decoded word."""
    kind = type(spec)
    if kind is DegLex:
        return _spelled_deglex_key
    if kind is Tower:
        spell = _spelling(alphabet.size)[0]
        up, down = spec._stable_letters(alphabet)
        up, down = spell((up,)), spell((down,))
        split = re.compile(f"([{re.escape(up + down)}])").split
        # up last, so it wins should the two stable symbols be one letter
        sign = {down: -1, up: 1}.__getitem__

        def tower_key(s):
            # [u0, t1, u1, ..., tn, un]: base segments between stable letters
            parts = split(s)
            parts[::2] = [(len(u), u) for u in parts[::2]]
            parts[1::2] = map(sign, parts[1::2])
            return (len(parts) // 2, *parts)

        return tower_key
    if kind is ModuleTop:
        wkey = _spelled_key(spec.word_order, alphabet)
        return lambda s: (wkey(s[:0:-1]), s[0])
    keyf, decode = spec.letter_key(alphabet), _spelling(alphabet.size)[1]
    return lambda s: keyf(decode(s))


def _compare_keys(ku, kv) -> int:
    """LESS, EQUAL or GREATER as the key ``ku`` is below, equal to or above ``kv``."""
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


def compare(spec, u: Word, v: Word) -> int:
    """Total comparison; LESS/EQUAL/GREATER."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    return _compare_keys(spec.key(u), spec.key(v))


def compare_module(spec: ModuleTop, w1: ModuleWord, w2: ModuleWord) -> int:
    if w1.basis != w2.basis:
        raise BasisMismatchError("cannot compare module words over different bases")
    if w1.prefix.alphabet != w2.prefix.alphabet:
        raise AlphabetMismatchError("cannot compare module words over different alphabets")
    return _compare_keys(spec.key(w1), spec.key(w2))


@dataclass
class OrderCheckReport:
    """Result of a randomized monomiality / compatibility check."""

    samples: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> Word:
    n = rng.randint(0, max_len)
    return Word(alphabet, tuple(rng.randrange(alphabet.size) for _ in range(n)))


def check_monomial(
    spec,
    alphabet: Alphabet,
    samples: int,
    seed: int,
    basis: ModuleBasis | None = None,
    max_len: int = 5,
) -> OrderCheckReport:
    """Randomized check that the ordering respects one-hole contexts.

    For word orderings: draws triples (u, v, context) with u < v and checks
    that the context preserves strictness.  For ModuleTop: draws module
    words w < w' and a left factor a, and checks a*w < a*w'.  Returns every
    violation found (expected none for the shipped orderings).
    """
    _checked_limit("samples", samples, 1)
    _checked_limit("max_len", max_len, 0)
    rng = random.Random(seed)
    violations = []
    if isinstance(spec, ModuleTop):
        if basis is None:
            raise ValueError("ModuleTop check needs a basis")
        for _ in range(samples):
            m1 = ModuleWord(_random_word(rng, alphabet, max_len), basis, rng.randrange(basis.size))
            m2 = ModuleWord(_random_word(rng, alphabet, max_len), basis, rng.randrange(basis.size))
            c = compare_module(spec, m1, m2)
            if c == EQUAL:
                continue
            if c == GREATER:
                m1, m2 = m2, m1
            a = _random_word(rng, alphabet, max_len)
            n1 = ModuleWord(a * m1.prefix, basis, m1.generator)
            n2 = ModuleWord(a * m2.prefix, basis, m2.generator)
            if compare_module(spec, n1, n2) != LESS:
                violations.append((m1, m2, a))
        return OrderCheckReport(samples, violations)

    for _ in range(samples):
        u = _random_word(rng, alphabet, max_len)
        v = _random_word(rng, alphabet, max_len)
        c = compare(spec, u, v)
        if c == EQUAL:
            continue
        if c == GREATER:
            u, v = v, u
        left = _random_word(rng, alphabet, max_len)
        right = _random_word(rng, alphabet, max_len)
        if compare(spec, left * u * right, left * v * right) != LESS:
            violations.append((u, v, left, right))
    return OrderCheckReport(samples, violations)
