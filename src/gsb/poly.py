"""Noncommutative polynomials and module elements over exact rationals.

Terms are stored unordered, keyed by word; leading-term queries take the
ordering as a parameter, so one polynomial can be inspected under several
orderings.  Arithmetic is exact; canceling terms vanish from storage.
Instances are immutable and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    UnknownSymbolError,
    WordSyntaxError,
    ZeroPolynomialError,
)
from .orderings import DegLex, ModuleTop
from .words import Alphabet, ModuleBasis, ModuleWord, Word

_COEFF_RE = re.compile(r"\d+(?:/\d+)?")


def _accumulate(items):
    acc = {}
    for key, c in items:
        c = Fraction(c)
        if key in acc:
            acc[key] += c
        else:
            acc[key] = c
    return {k: v for k, v in acc.items() if v != 0}


class Polynomial:
    """A finite formal sum of rational multiples of words."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = []
        for w, c in items:
            if isinstance(w, Word):
                if w.alphabet != alphabet:
                    raise AlphabetMismatchError("term word over a different alphabet")
                pairs.append((w.letters, c))
            else:
                pairs.append((tuple(w), c))
        self.alphabet = alphabet
        self._terms = _accumulate(pairs)

    @classmethod
    def zero(cls, alphabet: Alphabet) -> Polynomial:
        return cls(alphabet, ())

    @classmethod
    def unit(cls, alphabet: Alphabet, coeff=1) -> Polynomial:
        return cls(alphabet, (((), coeff),))

    @classmethod
    def from_word(cls, word: Word, coeff=1) -> Polynomial:
        return cls(word.alphabet, ((word.letters, coeff),))

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> Polynomial:
        return parse_polynomial(text, alphabet)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Word, Fraction]]:
        return [(Word(self.alphabet, w), c) for w, c in self._terms.items()]

    def raw_terms(self) -> dict[tuple[int, ...], Fraction]:
        """Internal term map (letters tuple -> coefficient); do not mutate."""
        return self._terms

    def support(self) -> list[Word]:
        return [Word(self.alphabet, w) for w in self._terms]

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(word.letters, Fraction(0))

    def leading(self, spec) -> tuple[Fraction, Word]:
        """Ordering-greatest term as (coefficient, word)."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        key = spec.letter_key(self.alphabet)
        w = max(self._terms, key=key)
        return self._terms[w], Word(self.alphabet, w)

    def leading_word(self, spec) -> Word:
        return self.leading(spec)[1]

    def degree(self, spec) -> int:
        return len(self.leading(spec)[1])

    def is_monic(self, spec) -> bool:
        return bool(self._terms) and self.leading(spec)[0] == 1

    def make_monic(self, spec) -> Polynomial:
        c, _ = self.leading(spec)
        if c == 1:
            return self
        return self / c

    def is_binomial_difference(self) -> bool:
        """True when the polynomial is a difference of two distinct words."""
        return len(self._terms) == 2 and sorted(self._terms.values()) == [
            Fraction(-1),
            Fraction(1),
        ]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Polynomial):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
        return Polynomial(self.alphabet, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.alphabet)
            return Polynomial(
                self.alphabet, {w: c * other for w, c in self._terms.items()}
            )
        if isinstance(other, Word):
            other = Polynomial.from_word(other)
        if isinstance(other, ModuleElement):
            return act(self, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        acc = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                v = acc.get(w, 0) + c1 * c2
                if v:
                    acc[w] = v
                elif w in acc:
                    del acc[w]
        return Polynomial(self.alphabet, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Word):
            return Polynomial.from_word(other) * self
        return NotImplemented

    def __truediv__(self, c) -> Polynomial:
        c = Fraction(c)
        return Polynomial(self.alphabet, {w: v / c for w, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


class ModuleElement:
    """A finite formal sum of rational multiples of module words."""

    __slots__ = ("alphabet", "basis", "_terms")

    def __init__(self, alphabet: Alphabet, basis: ModuleBasis, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = []
        for mw, c in items:
            if isinstance(mw, ModuleWord):
                if mw.prefix.alphabet != alphabet:
                    raise AlphabetMismatchError("module word over a different alphabet")
                if mw.basis != basis:
                    raise BasisMismatchError("module word over a different basis")
                pairs.append(((mw.prefix.letters, mw.generator), c))
            else:
                letters, gen = mw
                pairs.append(((tuple(letters), gen), c))
        self.alphabet = alphabet
        self.basis = basis
        self._terms = _accumulate(pairs)

    @classmethod
    def zero(cls, alphabet: Alphabet, basis: ModuleBasis) -> ModuleElement:
        return cls(alphabet, basis, ())

    @classmethod
    def from_module_word(cls, mw: ModuleWord, alphabet: Alphabet, coeff=1) -> ModuleElement:
        return cls(alphabet, mw.basis, ((mw, coeff),))

    @classmethod
    def generator(cls, alphabet: Alphabet, basis: ModuleBasis, name: str, coeff=1) -> ModuleElement:
        return cls(alphabet, basis, ((((), basis.index(name)), coeff),))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[ModuleWord, Fraction]]:
        return [
            (ModuleWord(Word(self.alphabet, w), self.basis, g), c)
            for (w, g), c in self._terms.items()
        ]

    def raw_terms(self):
        return self._terms

    def support(self) -> list[ModuleWord]:
        return [ModuleWord(Word(self.alphabet, w), self.basis, g) for w, g in self._terms]

    def leading(self, spec: ModuleTop) -> tuple[Fraction, ModuleWord]:
        if not self._terms:
            raise ZeroPolynomialError("the zero element has no leading term")
        key = spec.module_key(self.alphabet)
        k = max(self._terms, key=key)
        return self._terms[k], ModuleWord(Word(self.alphabet, k[0]), self.basis, k[1])

    def leading_word(self, spec: ModuleTop) -> ModuleWord:
        return self.leading(spec)[1]

    def is_monic(self, spec: ModuleTop) -> bool:
        return bool(self._terms) and self.leading(spec)[0] == 1

    def make_monic(self, spec: ModuleTop) -> ModuleElement:
        c, _ = self.leading(spec)
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def _check(self, other: ModuleElement):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("module elements over different alphabets")
        if self.basis != other.basis:
            raise BasisMismatchError("module elements over different bases")

    def __add__(self, other: ModuleElement) -> ModuleElement:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return ModuleElement(self.alphabet, self.basis, out)

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> ModuleElement:
        return ModuleElement(
            self.alphabet, self.basis, {k: -c for k, c in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ModuleElement(
                self.alphabet, self.basis, {k: c * other for k, c in self._terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Polynomial):
            return act(other, self)
        if isinstance(other, Word):
            return act(Polynomial.from_word(other), self)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.alphabet == other.alphabet
            and self.basis == other.basis
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.basis, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return format_module_element(self)

    def __repr__(self) -> str:
        return f"ModuleElement({format_module_element(self)})"


def act(p: Polynomial, m: ModuleElement) -> ModuleElement:
    """Left action of the free algebra on the free module."""
    if p.alphabet != m.alphabet:
        raise AlphabetMismatchError("action operands over different alphabets")
    acc = {}
    for w1, c1 in p.raw_terms().items():
        for (w2, g), c2 in m.raw_terms().items():
            k = (w1 + w2, g)
            v = acc.get(k, 0) + c1 * c2
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
    return ModuleElement(m.alphabet, m.basis, acc)


# -- text form ---------------------------------------------------------------


def _split_signed_terms(text: str):
    """Split on top-level +/-, keeping '^-1' tokens intact."""
    chunks = []
    sign = 1
    pending_sign = False
    buf = []
    prev = ""
    for i, ch in enumerate(text):
        if ch in "+-" and prev != "^":
            if "".join(buf).strip():
                chunks.append((sign, "".join(buf), i))
            elif chunks or pending_sign:
                raise WordSyntaxError("empty term", i)
            buf = []
            sign = 1 if ch == "+" else -1
            pending_sign = True
        else:
            buf.append(ch)
        if not ch.isspace():
            prev = ch
    tail = "".join(buf)
    if tail.strip():
        chunks.append((sign, tail, len(text)))
    else:
        raise WordSyntaxError("empty term", len(text))
    return chunks


def _parse_term_factors(chunk: str, position: int):
    """Split one term (the text ending at ``position``) into its coefficient
    and its factors, each as (name, position of its first character)."""
    pieces = chunk.split("*")
    factors = []
    start = position - len(chunk)  # each piece is followed by '*'
    for piece in pieces:
        name = piece.strip()
        if not name:
            raise WordSyntaxError("empty factor", start)
        factors.append((name, start + len(piece) - len(piece.lstrip())))
        start += len(piece) + 1
    coeff = Fraction(1)
    if _COEFF_RE.fullmatch(factors[0][0]):
        try:
            coeff = Fraction(factors[0][0])
        except ZeroDivisionError:
            raise WordSyntaxError("zero denominator", factors[0][1]) from None
        factors = factors[1:]
    elif factors[0][0] == "1" and len(factors) == 1:
        factors = []
    return coeff, factors


def _letters(factors, alphabet: Alphabet) -> tuple[int, ...]:
    """Letter indices of (name, position) factors; an unknown one names its position."""
    letters = []
    for name, position in factors:
        try:
            letters.append(alphabet.index(name))
        except UnknownSymbolError:
            raise UnknownSymbolError(name, position) from None
    return tuple(letters)


def parse_polynomial(text: str, alphabet: Alphabet) -> Polynomial:
    """Parse terms joined by +/- with integer or p/q coefficients."""
    terms = []
    for sign, chunk, pos in _split_signed_terms(text):
        coeff, factors = _parse_term_factors(chunk, pos)
        terms.append((_letters(factors, alphabet), sign * coeff))
    return Polynomial(alphabet, terms)


def parse_module_element(text: str, alphabet: Alphabet, basis: ModuleBasis) -> ModuleElement:
    """Parse a module element; each term ends in a basis generator."""
    terms = []
    for sign, chunk, pos in _split_signed_terms(text):
        coeff, factors = _parse_term_factors(chunk, pos)
        if not factors:
            raise WordSyntaxError("a module term needs a generator", pos)
        gen, gen_pos = factors[-1]
        try:
            g = basis.index(gen)
        except UnknownSymbolError:
            raise WordSyntaxError(
                f"module term must end in a basis generator, got {gen!r}", gen_pos
            ) from None
        terms.append(((_letters(factors[:-1], alphabet), g), sign * coeff))
    return ModuleElement(alphabet, basis, terms)


def _coeff_str(c: Fraction) -> str:
    return str(c)


def format_polynomial(p: Polynomial, spec=None) -> str:
    if p.is_zero():
        return "0"
    spec = spec or DegLex()
    key = spec.letter_key(p.alphabet)
    pieces = []
    for w in sorted(p.raw_terms(), key=key, reverse=True):
        c = p.raw_terms()[w]
        word = "*".join(p.alphabet.name(i) for i in w) if w else "1"
        mag = abs(c)
        if not w:
            body = _coeff_str(mag)
        elif mag == 1:
            body = word
        else:
            body = f"{_coeff_str(mag)}*{word}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_module_element(m: ModuleElement, spec: ModuleTop | None = None) -> str:
    if m.is_zero():
        return "0"
    spec = spec or ModuleTop()
    key = spec.module_key(m.alphabet)
    pieces = []
    for k in sorted(m.raw_terms(), key=key, reverse=True):
        c = m.raw_terms()[k]
        letters, g = k
        word = "*".join(m.alphabet.name(i) for i in letters)
        gen = m.basis.name(g)
        body = f"{word}*{gen}" if word else gen
        mag = abs(c)
        if mag != 1:
            body = f"{_coeff_str(mag)}*{body}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
