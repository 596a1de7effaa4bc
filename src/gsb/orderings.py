"""Monomial orderings on words and module words.

Every ordering is realized as a sort key: ``spec.key(w)`` returns a tuple
whose natural comparison agrees with the ordering, so ``sorted``/``max``
work directly.  ``compare`` returns -1, 0 or +1 and returns 0 only on
structural equality.  All comparisons are pure functions of (spec, words);
several orderings can coexist in one process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import neg

from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    TowerSymbolMissingError,
    UnknownSymbolError,
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
        return _deglex_key(word.letters)


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

    def letter_key(self, alphabet: Alphabet):
        try:
            up = alphabet.index(self.stable)
            down = alphabet.index(self.stable_inv)
        except UnknownSymbolError as exc:
            raise TowerSymbolMissingError(
                f"tower letters ({self.stable}, {self.stable_inv}) not in alphabet"
            ) from exc

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

    def key(self, word: Word):
        return self.letter_key(word.alphabet)(word.letters)


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
    if samples <= 0:
        raise ValueError("samples must be positive")
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
