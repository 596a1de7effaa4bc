"""Associative and non-associative Lyndon-Shirshov word machinery.

A word is an ALSW when every proper split u = v*w has v*w > w*v under
``lex_cmp`` (earlier symbol = greater; a proper prefix is the greater
word).  ``lex_cmp`` is reversed tuple order on letter indices, so an ALSW
is an ordinary Lyndon word on its index tuple and the textbook Lyndon
algorithms apply; the tests check them against brute-force definitions.

The hot paths keep per-word and per-node work out of bytecode calls:
``alsw_up_to`` lists letter tuples and wraps them as words in one bulk
step (``words._trusted_words``), and ``std_bracketing`` builds its nodes
inline through the slot setters and decides the ALSW test in the same
pass, so ``is_alsw`` (Duval's scan) stays an independent check of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyWordError, NotAlswError, _checked_limit
from .words import Alphabet, Word, _trusted_word, _trusted_words


def lex_cmp(u: Word, v: Word) -> int:
    """Pure lexicographic comparison; a proper prefix is the greater word."""
    a, b = u.letters, v.letters
    return (a < b) - (a > b)  # reversed tuple order: a smaller index is a greater letter


def is_alsw(u: Word) -> bool:
    """True when every proper split v*w of u satisfies v*w > w*v (Duval's Lyndon test)."""
    s = u.letters
    if not s:
        raise EmptyWordError("the empty word is not eligible")
    k = 0  # s[:j] stays a prefix of a power of the Lyndon word s[:j - k]
    for j in range(1, len(s)):
        if s[k] > s[j]:
            return False
        k = k + 1 if s[k] == s[j] else 0
    return k == 0  # that Lyndon word is all of s


def alsw_up_to(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All ALSWs of length <= max_len, grouped by length, descending inside.

    Duval's generation (Fredricksen-Kessler-Maiorana order) yields ascending
    tuple order, i.e. descending ``lex_cmp``; a stable bucket groups lengths.
    Each step extends the word periodically to max_len by one slice of its
    repetition, and the letter tuples are wrapped as words once, at the end.
    """
    _checked_limit("max_len", max_len, 1)
    top, groups, w = alphabet.size - 1, [[] for _ in range(max_len)], [-1]
    while w:
        w[-1] += 1
        groups[len(w) - 1].append(tuple(w))
        w = (w * (max_len // len(w) + 1))[:max_len]  # periodic extension
        while w and w[-1] == top:
            w.pop()
    return _trusted_words(alphabet, [t for group in groups for t in group])


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
_node_setters = tuple(getattr(BracketedWord, f).__set__ for f in ("alphabet", "letter", "left", "right"))


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
    splits off a last factor, which is the least suffix.  The factors left
    at the end are the Lyndon factorization of u, so the same pass decides
    the ALSW test: u is one exactly when a single factor is left.
    """
    s = u.letters
    if not s:
        raise EmptyWordError("the empty word is not eligible")
    alphabet, new = u.alphabet, object.__new__
    set_alphabet, set_letter, set_left, set_right = _node_setters
    # (letters, bracketing) of the factors below the first; the first is held
    # in top_word, top, and () sits at the bottom, which no letter is below
    stack, top_word, top = [], (), None
    leaves = {}  # one leaf per letter, shared: the nodes are immutable
    for c in reversed(s):
        tree = leaves.get(c)
        if tree is None:
            tree = leaves[c] = new(BracketedWord)
            set_alphabet(tree, alphabet)
            set_letter(tree, c)
            set_left(tree, None)
            set_right(tree, None)
        word = (c,)
        while word < top_word:
            node = new(BracketedWord)
            set_alphabet(node, alphabet)
            set_letter(node, None)
            set_left(node, tree)
            set_right(node, top)
            word, tree = word + top_word, node
            top_word, top = stack.pop()
        stack.append((top_word, top))
        top_word, top = word, tree
    if len(stack) > 1:
        raise NotAlswError(f"{u} is not an associative Lyndon-Shirshov word")
    return top


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
    _checked_limit("deg", deg, 1)
    k, counts = alphabet.size, {}
    for n in (d for d in range(1, deg + 1) if deg % d == 0):
        counts[n] = (k**n - sum(d * c for d, c in counts.items() if n % d == 0)) // n
    return counts[deg]
