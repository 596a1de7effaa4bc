"""Associative and non-associative Lyndon-Shirshov word machinery.

The convention throughout makes these words maximal: a word is an ALSW
when every proper split u = v*w satisfies v*w > w*v in the pure
lexicographic order (alphabet precedence: earlier symbol = greater).
Between words of different lengths the proper prefix compares greater,
which is the convention under which the ascending factorization and the
standard bracketing below are unique; both facts are validated by the
brute-force checks in the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import product

from .errors import EmptyWordError, LimitError, NotAlswError
from .words import Alphabet, Word


def lex_cmp(u: Word, v: Word) -> int:
    """Pure lexicographic comparison; a proper prefix is the greater word."""
    a, b = u.letters, v.letters
    for x, y in zip(a, b):
        if x != y:
            # smaller alphabet index = greater letter
            return 1 if x < y else -1
    if len(a) == len(b):
        return 0
    return 1 if len(a) < len(b) else -1


def is_alsw(u: Word) -> bool:
    """True when every proper split v*w of u satisfies v*w > w*v."""
    ls = u.letters
    if not ls:
        raise EmptyWordError("the empty word is not eligible")
    n = len(ls)
    for i in range(1, n):
        rotated = ls[i:] + ls[:i]
        # equal lengths: u > rotation (lex_cmp) iff u < rotation as index tuples
        if ls >= rotated:
            return False
    return True


def alsw_up_to(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All ALSWs of length <= max_len, grouped by length, descending inside."""
    if max_len < 1:
        raise LimitError(f"max_len must be >= 1, got {max_len}")
    out = []
    for n in range(1, max_len + 1):
        group = [
            Word(alphabet, ls)
            for ls in product(range(alphabet.size), repeat=n)
            if is_alsw(Word(alphabet, ls))
        ]
        group.sort(key=cmp_to_key(lambda x, y: lex_cmp(x, y)), reverse=True)
        out.extend(group)
    return out


@dataclass(frozen=True, repr=False)
class BracketedWord:
    """A binary bracketing of a word; leaves are single letters."""

    alphabet: Alphabet
    letter: int | None = None
    left: BracketedWord | None = None
    right: BracketedWord | None = None

    def __post_init__(self):
        if (self.letter is None) == (self.left is None):
            raise ValueError("a bracketed word is either a leaf or a pair")
        if (self.left is None) != (self.right is None):
            raise ValueError("both children are required")

    @classmethod
    def leaf(cls, alphabet: Alphabet, letter: int) -> BracketedWord:
        return cls(alphabet, letter=letter)

    @classmethod
    def pair(cls, left: BracketedWord, right: BracketedWord) -> BracketedWord:
        return cls(left.alphabet, left=left, right=right)

    def is_leaf(self) -> bool:
        return self.letter is not None

    def flatten(self) -> Word:
        return Word(self.alphabet, self._letters())

    def _letters(self) -> tuple[int, ...]:
        if self.letter is not None:
            return (self.letter,)
        return self.left._letters() + self.right._letters()

    def __str__(self) -> str:
        if self.letter is not None:
            return self.alphabet.name(self.letter)
        return f"[{self.left} {self.right}]"

    def __repr__(self) -> str:
        return f"BracketedWord({self})"


def satisfies_nlsw_conditions(bw: BracketedWord) -> bool:
    """Direct evaluation of the three defining bracketing conditions.

    Independent of the recursive construction in std_bracketing; used as
    the acceptance judge for it.
    """
    if not is_alsw(bw.flatten()):
        return False
    if bw.is_leaf():
        return True
    if not satisfies_nlsw_conditions(bw.left) or not satisfies_nlsw_conditions(bw.right):
        return False
    v = bw.left
    if not v.is_leaf():
        v2 = v.right.flatten()
        w = bw.right.flatten()
        if lex_cmp(v2, w) > 0:
            return False
    return True


def std_bracketing(u: Word) -> BracketedWord:
    """The unique bracketing of an ALSW that satisfies the conditions above.

    Computed by splitting off the longest proper suffix that is itself an
    ALSW and recursing on both parts.
    """
    if not is_alsw(u):
        raise NotAlswError(f"{u} is not an associative Lyndon-Shirshov word")
    return _std_bracketing(u)


def _std_bracketing(u: Word) -> BracketedWord:
    ls = u.letters
    if len(ls) == 1:
        return BracketedWord.leaf(u.alphabet, ls[0])
    for i in range(1, len(ls)):
        suffix = Word(u.alphabet, ls[i:])
        if is_alsw(suffix):
            prefix = Word(u.alphabet, ls[:i])
            return BracketedWord.pair(_std_bracketing(prefix), _std_bracketing(suffix))
    raise NotAlswError(f"{u} has no Lyndon-Shirshov suffix split")


def clf_factorize(u: Word) -> list[Word]:
    """The unique factorization into a lex-ascending sequence of ALSWs.

    Greedy: repeatedly strip the longest ALSW prefix of the remainder.
    """
    ls = u.letters
    if not ls:
        raise EmptyWordError("the empty word has no factorization")
    out = []
    start = 0
    n = len(ls)
    while start < n:
        best = start + 1
        for end in range(n, start, -1):
            if is_alsw(Word(u.alphabet, ls[start:end])):
                best = end
                break
        out.append(Word(u.alphabet, ls[start:best]))
        start = best
    return out


def nlsw_basis_count(alphabet: Alphabet, deg: int) -> int:
    """Number of degree-``deg`` bracketed basis elements.

    Equals the number of ALSWs of that length via the unique-bracketing
    bijection; computed by enumeration.  The test suite cross-checks the
    values against the necklace-counting formula.
    """
    if deg < 1:
        raise ValueError("deg must be >= 1")
    return sum(
        1
        for ls in product(range(alphabet.size), repeat=deg)
        if is_alsw(Word(alphabet, ls))
    )
