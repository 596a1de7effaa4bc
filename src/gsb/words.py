"""Alphabets, free-monoid words, module words, and their codes as words.

Symbols are interned: a word stores indices into its alphabet, and the
alphabet's listing order is its precedence (earlier symbol = greater).  An
alphabet pairs each ``s`` with its formal inverse ``s^-1`` by name.  The
text form of words, polynomials and module elements is split into terms and
factors here, and a word is read as one term.  All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    AlphabetError,
    AlphabetMismatchError,
    EmptyPatternError,
    UnknownSymbolError,
    WordSyntaxError,
)

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\^-1)?")


def _validate_symbols(symbols):
    if not symbols:
        raise AlphabetError("a symbol list must not be empty")
    seen = set()
    for name in symbols:
        if not isinstance(name, str) or _SYMBOL_RE.fullmatch(name) is None:
            raise AlphabetError(f"bad symbol name {name!r}")
        if name in seen:
            raise AlphabetError(f"duplicate symbol {name!r}")
        seen.add(name)


class _Symbols:
    """What ``Alphabet`` and ``ModuleBasis`` share: distinct symbols, listed
    in order, each found through the map ``_index`` built once.  The map is
    not a dataclass field, so equality, hashing and repr ignore it."""

    def __post_init__(self):
        symbols = tuple(self.symbols)
        _validate_symbols(symbols)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise UnknownSymbolError(name) from None

    def name(self, index: int) -> str:
        return self.symbols[index]


@dataclass(frozen=True)
class Alphabet(_Symbols):
    """A finite ordered symbol set; listing order is descending precedence.

    ``inverse_pairs`` pairs each symbol ``s`` with its formal inverse
    ``s^-1`` when both are listed (for group presentations); it is read off
    the names, never given.  The engine attaches no semantics to the
    pairing; unit relations are ordinary relations emitted by the
    constructions that need them.
    """

    symbols: tuple[str, ...]
    inverse_pairs: tuple[tuple[str, str], ...] = field(init=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "inverse_pairs", pair_formal_inverses(self.symbols))

    def inverse_index(self, index: int) -> int | None:
        """Index of the formal inverse of a symbol, if listed."""
        name = self.symbols[index]
        return self._index.get(name[:-3] if name.endswith("^-1") else name + "^-1")

    def empty(self) -> Word:
        return _trusted_word(self, ())

    def word(self, text: str) -> Word:
        return parse_word(text, self)

    def word_from_names(self, names) -> Word:
        return _trusted_word(self, tuple(self.index(n) for n in names))


def pair_formal_inverses(symbols) -> tuple[tuple[str, str], ...]:
    """Pair every symbol ``s`` with ``s^-1`` when both are present."""
    present = set(symbols)
    pairs = []
    for name in symbols:
        if not name.endswith("^-1") and name + "^-1" in present:
            pairs.append((name, name + "^-1"))
    return tuple(pairs)


@dataclass(frozen=True, repr=False, slots=True)
class Word:
    """An element of the free monoid over an alphabet.

    The empty word is the monoid unit and prints as ``1``.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", _checked_letters(self.letters, self.alphabet.size))

    @property
    def degree(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def names(self) -> tuple[str, ...]:
        return tuple(self.alphabet.name(c) for c in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return _trusted_word(self.alphabet, self.letters + other.letters)

    def __str__(self) -> str:
        return print_word(self)

    def __repr__(self) -> str:
        return f"Word({print_word(self)})"


def _checked_index(i, size: int, what: str) -> None:
    """Check that ``i`` is an ``int`` (not a ``bool``) in 0..size-1."""
    if type(i) is not int or not 0 <= i < size:
        raise AlphabetError(f"{what} index {i!r} is not an int in 0..{size - 1}")


def _checked_letters(letters, size: int) -> tuple[int, ...]:
    """``letters`` as a tuple, each checked to be an index in 0..size-1."""
    letters = tuple(letters)
    for c in letters:
        _checked_index(c, size, "letter")
    return letters


# a frozen dataclass: its fields are set through the slot descriptors, as
# its __init__ does, bypassing the frozen __setattr__
_set_word_alphabet = Word.alphabet.__set__
_set_word_letters = Word.letters.__set__


def _trusted_word(alphabet: Alphabet, letters: tuple[int, ...]) -> Word:
    """A ``Word`` from a letter tuple known to lie in range; skips the check."""
    word = object.__new__(Word)
    _set_word_alphabet(word, alphabet)
    _set_word_letters(word, letters)
    return word


def concat(u: Word, v: Word) -> Word:
    """Monoid product; degrees add."""
    return u * v


# -- text form ---------------------------------------------------------------
#
# Terms joined by '+'/'-' (one sign may open the text), each an optional
# integer or p/q coefficient and '*'-joined symbols, blanks free around each;
# a module term ends in a generator.  ``poly._read`` reads polynomials and
# module elements with the helpers below, and ``parse_word`` reads a word as
# one term.  A reading error gives the offset in the text of the sign,
# factor or end at fault.

# a sign splits terms, except one after '^' (blanks between allowed): that
# one belongs to a name such as 't^-1'
_SIGN_RE = re.compile(r"\^\s*[+-]|[+-]")
# ASCII digits only: int() would also read other scripts' digits
_COEFF_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")


def _split_terms(text: str) -> list[tuple[int, str, int]]:
    """(sign, term text, offset of the term in ``text``) for each term; a
    blank term is an error at the sign or end that closes it."""
    terms = []
    sign, start = 1, 0
    for m in _SIGN_RE.finditer(text):
        i = m.start()
        if text[i] == "^":
            continue
        term = text[start:i]
        if term.strip():
            terms.append((sign, term, start))
        elif start:  # only a leading sign may open the text
            raise WordSyntaxError("empty term", i)
        sign, start = (1 if text[i] == "+" else -1), i + 1
    term = text[start:]
    if not term.strip():
        raise WordSyntaxError("empty term", len(text))
    terms.append((sign, term, start))
    return terms


def _factor_position(term: str, start: int, k: int, blank: bool = False) -> int:
    """Offset in the text of the k-th '*'-separated factor of ``term`` (a term
    at offset ``start``): of its first non-blank character, or with ``blank``
    of its first character."""
    pieces = term.split("*")
    at = start + sum(len(piece) + 1 for piece in pieces[:k])
    return at if blank else at + len(pieces[k]) - len(pieces[k].lstrip())


def _factors(term: str, start: int) -> list[str]:
    """The '*'-separated factors of ``term`` (at offset ``start``), stripped;
    an empty one is an error at its offset."""
    names = list(map(str.strip, term.split("*")))
    if "" in names:
        at = _factor_position(term, start, names.index(""), blank=True)
        raise WordSyntaxError("empty factor", at)
    return names


def _unknown_symbol(names, first: int, symbols, term: str, start: int) -> UnknownSymbolError:
    """The error for the first factor from ``names[first]`` on that is not in
    ``symbols``, at its offset."""
    k = next(k for k in range(first, len(names)) if names[k] not in symbols)
    return UnknownSymbolError(names[k], _factor_position(term, start, k))


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Read ``a*a*b``-style text as one term with no sign and no coefficient;
    the lone ``1`` is the empty word."""
    if text.strip() == "1":
        return _trusted_word(alphabet, ())
    (_, term, start), *rest = _split_terms(text)
    if start or rest:  # a sign opens the text, or splits it after the term
        raise WordSyntaxError("a word takes no sign", (start or rest[0][2]) - 1)
    names = _factors(term, start)
    if _COEFF_RE.fullmatch(names[0]):
        raise WordSyntaxError("a word takes no coefficient", _factor_position(term, start, 0))
    symbols = alphabet._index
    try:
        return _trusted_word(alphabet, tuple(map(symbols.__getitem__, names)))
    except KeyError:
        raise _unknown_symbol(names, 0, symbols, term, start) from None


def print_word(word: Word) -> str:
    if not word.letters:
        return "1"
    return "*".join(word.names())


def occurrences(pattern: Word, host: Word) -> list[tuple[Word, Word]]:
    """All factorizations ``host = left * pattern * right``.

    Returned by increasing length of ``left``; empty if there is none.
    """
    if pattern.is_empty():
        raise EmptyPatternError("occurrence search needs a non-empty pattern")
    if pattern.alphabet != host.alphabet:
        raise AlphabetMismatchError("pattern and host live over different alphabets")
    A, p, h = host.alphabet, pattern.letters, host.letters
    out = []
    for i in range(len(h) - len(p) + 1):
        if h[i : i + len(p)] == p:
            out.append((_trusted_word(A, h[:i]), _trusted_word(A, h[i + len(p) :])))
    return out


@dataclass(frozen=True)
class ModuleBasis(_Symbols):
    """Ordered free-module generator symbols (earlier = greater)."""

    symbols: tuple[str, ...]


@dataclass(frozen=True, repr=False)
class ModuleWord:
    """A module monomial ``u*y``: a word prefix and one basis generator."""

    prefix: Word
    basis: ModuleBasis
    generator: int

    def __post_init__(self):
        _checked_index(self.generator, self.basis.size, "generator")

    @property
    def degree(self) -> int:
        return self.prefix.degree

    def generator_name(self) -> str:
        return self.basis.name(self.generator)

    def __str__(self) -> str:
        if self.prefix.is_empty():
            return self.generator_name()
        return f"{self.prefix}*{self.generator_name()}"

    def __repr__(self) -> str:
        return f"ModuleWord({self})"


@lru_cache(maxsize=None)
def module_code(alphabet: Alphabet, basis: ModuleBasis):
    """The code of the module word u*y_g: the algebra word Y_g*rev(u).

    The code alphabet is ``alphabet`` followed by one letter per generator:
    generator g is the letter ``alphabet.size + g``, named ``Y<g>`` with
    ``_`` prepended to the stem until no alphabet symbol starts with it, so
    it cannot clash with an alphabet symbol.  Returns the code alphabet,
    ``encode`` from a (prefix letters, generator) key to its code, and
    ``decode`` back.
    """
    stem = "Y"
    while any(s.startswith(stem) for s in alphabet.symbols):
        stem = "_" + stem
    n = alphabet.size

    def encode(letters, g):
        return (n + g,) + tuple(letters)[::-1]

    def decode(code):
        return code[:0:-1], code[0] - n

    names = tuple(f"{stem}{g}" for g in range(basis.size))
    return Alphabet(alphabet.symbols + names), encode, decode
