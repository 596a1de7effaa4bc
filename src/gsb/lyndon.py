"""Associative and non-associative Lyndon-Shirshov word machinery.

A word is an ALSW when every proper split u = v*w has v*w > w*v under
``lex_cmp`` (earlier symbol = greater; a proper prefix is the greater
word).  ``lex_cmp`` is reversed tuple order on letter indices, so an ALSW
is an ordinary Lyndon word on its index tuple and the textbook Lyndon
algorithms apply; the tests check them against brute-force definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyWordError, LimitError, NotAlswError
from .words import Alphabet, Word, _trusted_word


def lex_cmp(u: Word, v: Word) -> int:
    """Pure lexicographic comparison; a proper prefix is the greater word."""
    a, b = u.letters, v.letters
    return (a < b) - (a > b)  # reversed tuple order: a smaller index is a greater letter


def _is_lyndon(s: tuple[int, ...]) -> bool:
    # Duval's scan: s[:j] stays a prefix of a power of the Lyndon word s[:j - k]
    if not s:
        raise EmptyWordError("the empty word is not eligible")
    k = 0
    for j in range(1, len(s)):
        if s[k] > s[j]:
            return False
        k = k + 1 if s[k] == s[j] else 0
    return k == 0  # that Lyndon word is all of s


def is_alsw(u: Word) -> bool:
    """True when every proper split v*w of u satisfies v*w > w*v (Duval's Lyndon test)."""
    return _is_lyndon(u.letters)


def alsw_up_to(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All ALSWs of length <= max_len, grouped by length, descending inside.

    Duval's generation (Fredricksen-Kessler-Maiorana order) yields ascending
    tuple order, i.e. descending ``lex_cmp``; a stable bucket groups lengths.
    """
    if max_len < 1:
        # loaded only here, so listing Lyndon words loads no polynomial layer
        from .poly import _digits

        raise LimitError(f"max_len must be >= 1, got {_digits(max_len)}")
    top, groups, w = alphabet.size - 1, [[] for _ in range(max_len)], [-1]
    while w:
        w[-1] += 1
        groups[len(w) - 1].append(_trusted_word(alphabet, tuple(w)))
        w = [w[i % len(w)] for i in range(max_len)]  # periodic extension
        while w and w[-1] == top:
            w.pop()
    return [u for group in groups for u in group]


@dataclass(frozen=True, repr=False, slots=True)
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


# a frozen dataclass: its fields are set through the slot descriptors, as
# its __init__ does, bypassing the frozen __setattr__
_set_node_alphabet = BracketedWord.alphabet.__set__
_set_node_letter = BracketedWord.letter.__set__
_set_node_left = BracketedWord.left.__set__
_set_node_right = BracketedWord.right.__set__


def _trusted_node(alphabet, letter, left, right) -> BracketedWord:
    """A ``BracketedWord`` known to be a valid leaf or pair; skips the checks."""
    node = object.__new__(BracketedWord)
    _set_node_alphabet(node, alphabet)
    _set_node_letter(node, letter)
    _set_node_left(node, left)
    _set_node_right(node, right)
    return node


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

    The standard factorization, recursively: the right factor is the longest
    proper ALSW suffix, i.e. the least proper suffix in tuple order.  One
    right-to-left pass keeps the bracketed Lyndon factors of the suffix read
    so far; a new letter merges with each factor it is below, and each merge
    splits off a last factor, which is the least suffix.
    """
    if not _is_lyndon(u.letters):
        raise NotAlswError(f"{u} is not an associative Lyndon-Shirshov word")
    stack = []  # (letters, bracketing) per factor, the first factor on top
    leaves = {}  # one leaf per letter, shared: the nodes are immutable
    for c in reversed(u.letters):
        tree = leaves.get(c)
        if tree is None:
            tree = leaves[c] = _trusted_node(u.alphabet, c, None, None)
        word = (c,)
        while stack and word < stack[-1][0]:
            right_word, right = stack.pop()
            word, tree = word + right_word, _trusted_node(u.alphabet, None, tree, right)
        stack.append((word, tree))
    return tree


def clf_factorize(u: Word) -> list[Word]:
    """The unique lex-ascending factorization into ALSWs, by Duval's algorithm."""
    s = u.letters
    if not s:
        raise EmptyWordError("the empty word has no factorization")
    out, i, n = [], 0, len(s)
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            out.append(_trusted_word(u.alphabet, s[i : i + j - k]))
            i += j - k
    return out


def nlsw_basis_count(alphabet: Alphabet, deg: int) -> int:
    """Number of degree-``deg`` bracketed basis elements.

    The number of ALSWs of that length, by the unique-bracketing bijection:
    Witt's formula n * L(n) = sum of mu(d) * k**(n/d) over d | n for k
    letters, evaluated through the identity it inverts, k**n = sum of
    d * L(d) over d | n.
    """
    if deg < 1:
        from .poly import _digits

        raise LimitError(f"deg must be >= 1, got {_digits(deg)}")
    k, counts = alphabet.size, {}
    for n in (d for d in range(1, deg + 1) if deg % d == 0):
        counts[n] = (k**n - sum(d * c for d, c in counts.items() if n % d == 0)) // n
    return counts[deg]
