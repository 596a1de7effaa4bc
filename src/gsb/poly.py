"""Noncommutative polynomials and module elements over exact rationals.

Terms are stored unordered, keyed by word; leading-term queries take the
ordering as a parameter, so one polynomial can be inspected under several
orderings.  Arithmetic is exact; canceling terms vanish from storage.
Instances are immutable and safe to share.  Letters are checked once, where
values enter: the constructors ``Polynomial`` and ``ModuleElement``
range-check raw letters and generators.  Values derived from checked ones
(arithmetic, action, normal forms, completion residuals) and values read
from text, whose letters come from the alphabet's own symbol map, are built
by ``Polynomial._of``, and words read from them by ``_trusted_word``.

A polynomial may carry its leading word under one ordering, recorded by
the code that made it when that code already knew it: ``_of`` takes it
from its caller, ``make_monic`` records the lead it found on the quotient,
scalar multiples, negation and ``/`` keep their operand's, and the
rewriting engine records the first word of each normal form it returns.
``_lead_letters`` returns the recorded lead when asked under the same
ordering and otherwise finds it.  A lead is recorded only when the object
is made, never when it is read, so a polynomial's state is fixed at
construction and reading it costs the same work on every call.

A module element is stored encoded, as a polynomial over a code alphabet:
the module word u*y_g is the algebra word Y_g*rev(u) (``words.module_code``).
Its sums, scalings, equality and leading term are the polynomial's, as
``ModuleTop`` orders codes, and the left action of the free algebra is one
polynomial product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    WordSyntaxError,
    ZeroPolynomialError,
)
from .orderings import DegLex, ModuleTop
from .words import Alphabet, ModuleBasis, ModuleWord, Word, module_code
from .words import _checked_index, _checked_letters, _trusted_word
from .words import _COEFF_RE, _factor_position, _factors, _split_terms, _unknown_symbol

# Python refuses int/str conversions of more digits than a settable limit
# (sys.set_int_max_str_digits), 640 at the lowest, so coefficients are
# converted at most 640 digits at a time
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


def _sum_terms(pairs) -> dict:
    """Add up (letters, coefficient) pairs as ``Fraction``s; zero sums are dropped."""
    acc = {}
    for w, c in pairs:
        c = Fraction(c)
        acc[w] = acc[w] + c if w in acc else c
    return {w: c for w, c in acc.items() if c}


class _FormalSum:
    """What polynomials and module elements share: helpers over
    ``leading(spec)`` and the text form."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self

    def leading_word(self, spec):
        return self.leading(spec)[1]

    def is_monic(self, spec) -> bool:
        return bool(self) and self.leading(spec)[0] == 1

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_element(self)})"


class Polynomial(_FormalSum):
    """A finite formal sum of rational multiples of words."""

    __slots__ = ("alphabet", "_terms", "_lead_spec", "_lead")

    def __init__(self, alphabet: Alphabet, terms=()):
        """Terms keyed by ``Word`` or by a letter tuple, range-checked."""
        pairs = []
        for w, c in terms.items() if hasattr(terms, "items") else terms:
            if isinstance(w, Word):
                if w.alphabet != alphabet:
                    raise AlphabetMismatchError("term word over a different alphabet")
                w = w.letters
            else:
                w = _checked_letters(w, alphabet.size)
            pairs.append((w, c))
        self.alphabet = alphabet
        self._terms = _sum_terms(pairs)
        self._lead_spec = self._lead = None

    @classmethod
    def _of(cls, alphabet: Alphabet, terms: dict, spec=None, lead=None) -> Polynomial:
        """Wrap a map of in-range letter tuples to nonzero ``Fraction``s, unchecked.

        A caller that knows the greatest word ``lead`` of a nonzero ``terms``
        under the ordering ``spec`` passes both, and the polynomial records them.
        """
        p = object.__new__(cls)
        p.alphabet, p._terms, p._lead_spec, p._lead = alphabet, terms, spec, lead
        return p

    @classmethod
    def zero(cls, alphabet: Alphabet) -> Polynomial:
        return cls._of(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet, coeff=1) -> Polynomial:
        return cls(alphabet, (((), coeff),))

    @classmethod
    def from_word(cls, word: Word, coeff=1) -> Polynomial:
        return cls(word.alphabet, ((word, coeff),))

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> Polynomial:
        return parse_polynomial(text, alphabet)

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Word, Fraction]]:
        return [(_trusted_word(self.alphabet, w), c) for w, c in self._terms.items()]

    def raw_terms(self) -> dict[tuple[int, ...], Fraction]:
        """Internal term map (letters tuple -> coefficient); do not mutate."""
        return self._terms

    def support(self) -> list[Word]:
        return [_trusted_word(self.alphabet, w) for w in self._terms]

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(word.letters, Fraction(0))

    def _lead_letters(self, spec, keyf=None) -> tuple[int, ...]:
        """The greatest word under ``spec`` as a letter tuple: the recorded
        lead when it was recorded under ``spec``, else found with ``keyf``
        (``spec.letter_key(alphabet)`` when None)."""
        known = self._lead_spec
        if known is spec or (known is not None and known == spec):
            return self._lead
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        return max(self._terms, key=keyf or spec.letter_key(self.alphabet))

    def leading(self, spec) -> tuple[Fraction, Word]:
        """Ordering-greatest term as (coefficient, word)."""
        w = self._lead_letters(spec)
        return self._terms[w], _trusted_word(self.alphabet, w)

    def make_monic(self, spec) -> Polynomial:
        """The polynomial divided by its leading coefficient; itself when monic."""
        lead = self._lead_letters(spec)
        c = self._terms[lead]
        if c == 1:
            return self
        terms = {w: v / c for w, v in self._terms.items()}
        return Polynomial._of(self.alphabet, terms, spec, lead)

    def degree(self, spec) -> int:
        return len(self.leading(spec)[1])

    def is_binomial_difference(self) -> bool:
        """True when the polynomial is a difference of two distinct words."""
        return len(self._terms) == 2 and sorted(self._terms.values()) == [
            Fraction(-1),
            Fraction(1),
        ]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        out = dict(self._terms)
        for w, c in other._terms.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
        return Polynomial._of(self.alphabet, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Polynomial:
        terms = {w: -c for w, c in self._terms.items()}
        return Polynomial._of(self.alphabet, terms, self._lead_spec, self._lead)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.alphabet)
            terms = {w: c * other for w, c in self._terms.items()}
            return Polynomial._of(self.alphabet, terms, self._lead_spec, self._lead)
        if isinstance(other, Word):
            other = Polynomial.from_word(other)
        if isinstance(other, ModuleElement):
            return act(self, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        acc = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                v = acc.get(w, 0) + c1 * c2
                if v:
                    acc[w] = v
                elif w in acc:
                    del acc[w]
        return Polynomial._of(self.alphabet, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Word):
            return Polynomial.from_word(other) * self
        return NotImplemented

    def __truediv__(self, c) -> Polynomial:
        c = Fraction(c)
        terms = {w: v / c for w, v in self._terms.items()}
        return Polynomial._of(self.alphabet, terms, self._lead_spec, self._lead)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))


class ModuleElement(_FormalSum):
    """A finite formal sum of rational multiples of module words.

    Stored as its ``code``, a ``Polynomial`` over the code alphabet of
    ``module_code(alphabet, basis)``, whose arithmetic it uses; terms keyed
    by (prefix letters, generator) are decoded on demand.
    """

    __slots__ = ("alphabet", "basis", "code")

    def __init__(self, alphabet: Alphabet, basis: ModuleBasis, terms=()):
        """Terms keyed by ``ModuleWord`` or by (prefix letters, generator), range-checked."""
        code_alphabet, encode, _ = module_code(alphabet, basis)
        pairs = []
        for mw, c in terms.items() if hasattr(terms, "items") else terms:
            if isinstance(mw, ModuleWord):
                if mw.prefix.alphabet != alphabet:
                    raise AlphabetMismatchError("module word over a different alphabet")
                if mw.basis != basis:
                    raise BasisMismatchError("module word over a different basis")
                u, g = mw.prefix.letters, mw.generator
            else:
                u, g = mw
                u = _checked_letters(u, alphabet.size)
                _checked_index(g, basis.size, "generator")
            pairs.append((encode(u, g), c))
        self.alphabet = alphabet
        self.basis = basis
        self.code = Polynomial._of(code_alphabet, _sum_terms(pairs))

    @classmethod
    def _of_code(cls, alphabet: Alphabet, basis: ModuleBasis, code: Polynomial) -> ModuleElement:
        """Wrap a polynomial over the code alphabet of (alphabet, basis)."""
        m = object.__new__(cls)
        m.alphabet, m.basis, m.code = alphabet, basis, code
        return m

    @classmethod
    def zero(cls, alphabet: Alphabet, basis: ModuleBasis) -> ModuleElement:
        return cls(alphabet, basis, ())

    def __bool__(self) -> bool:
        return bool(self.code)

    def __len__(self) -> int:
        return len(self.code)

    def raw_terms(self) -> dict[tuple[tuple[int, ...], int], Fraction]:
        """Term map (prefix letters, generator) -> coefficient, decoded anew."""
        decode = module_code(self.alphabet, self.basis)[2]
        return {decode(w): c for w, c in self.code.raw_terms().items()}

    def _module_word(self, key) -> ModuleWord:
        return ModuleWord(_trusted_word(self.alphabet, key[0]), self.basis, key[1])

    def terms(self) -> list[tuple[ModuleWord, Fraction]]:
        return [(self._module_word(k), c) for k, c in self.raw_terms().items()]

    def support(self) -> list[ModuleWord]:
        return [self._module_word(k) for k in self.raw_terms()]

    def leading(self, spec: ModuleTop) -> tuple[Fraction, ModuleWord]:
        if not self.code:
            raise ZeroPolynomialError("the zero element has no leading term")
        c, w = self.code.leading(spec)
        return c, self._module_word(module_code(self.alphabet, self.basis)[2](w.letters))

    def make_monic(self, spec: ModuleTop) -> ModuleElement:
        """The element divided by its leading coefficient; itself when monic."""
        if not self.code:
            raise ZeroPolynomialError("the zero element has no leading term")
        code = self.code.make_monic(spec)
        return self if code is self.code else self._of_code(self.alphabet, self.basis, code)

    def __add__(self, other: ModuleElement) -> ModuleElement:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("module elements over different alphabets")
        if self.basis != other.basis:
            raise BasisMismatchError("module elements over different bases")
        return self._of_code(self.alphabet, self.basis, self.code + other.code)

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> ModuleElement:
        return self._of_code(self.alphabet, self.basis, -self.code)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._of_code(self.alphabet, self.basis, self.code * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Word):
            return act(Polynomial.from_word(other), self)
        return NotImplemented

    def __truediv__(self, c) -> ModuleElement:
        return self._of_code(self.alphabet, self.basis, self.code / c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.alphabet == other.alphabet
            and self.basis == other.basis
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.code))


def act(p: Polynomial, m: ModuleElement) -> ModuleElement:
    """Left action of the free algebra on the free module.

    The code of a*u*y_g is the code of u*y_g followed by rev(a), so the
    action is one product of ``m.code`` with ``p`` reversed word by word.
    """
    if p.alphabet != m.alphabet:
        raise AlphabetMismatchError("action operands over different alphabets")
    rev = Polynomial._of(m.code.alphabet, {w[::-1]: c for w, c in p.raw_terms().items()})
    return m._of_code(m.alphabet, m.basis, m.code * rev)


# -- text form ---------------------------------------------------------------
#
# The grammar and its term and factor helpers are in ``words``; a reading
# error gives the offset in the text of the sign, factor or end at fault.

_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _read(text: str, alphabet: Alphabet, basis: ModuleBasis | None = None) -> dict:
    """The term map of ``text``: letters tuple -> nonzero ``Fraction``.

    With a ``basis`` every term ends in one of its generators, and the term
    u*y_g is keyed by its code (n + g, *reversed u), n = ``alphabet.size``,
    as ``module_code`` encodes it.  Letters come from the symbol maps, so
    they need no range check.
    """
    symbols = alphabet._index
    acc = {}
    for sign, term, start in _split_terms(text):
        names = _factors(term, start)
        try:
            coeff = _coefficient(names[0], sign)
        except ZeroDivisionError:
            raise WordSyntaxError("zero denominator", _factor_position(term, start, 0)) from None
        if coeff is None:
            first, coeff = 0, _ONE if sign > 0 else _MINUS_ONE
        else:
            first = 1
        try:
            if basis is None:
                key = tuple(map(symbols.__getitem__, names[first:]))
            else:
                stop = len(names) - 1
                if stop < first:
                    raise WordSyntaxError("a module term needs a generator", start + len(term))
                g = basis._index.get(names[stop])
                if g is None:
                    raise WordSyntaxError(
                        f"module term must end in a basis generator, got {names[stop]!r}",
                        _factor_position(term, start, stop),
                    )
                key = (alphabet.size + g, *map(symbols.__getitem__, reversed(names[first:stop])))
        except KeyError:
            raise _unknown_symbol(names, first, symbols, term, start) from None
        if key in acc:
            acc[key] += coeff
        else:
            acc[key] = coeff
    return acc if all(acc.values()) else {w: c for w, c in acc.items() if c}


def parse_polynomial(text: str, alphabet: Alphabet) -> Polynomial:
    """Parse terms joined by +/- with integer or p/q coefficients."""
    return Polynomial._of(alphabet, _read(text, alphabet))


def parse_module_element(text: str, alphabet: Alphabet, basis: ModuleBasis) -> ModuleElement:
    """Parse a module element; each term ends in a basis generator."""
    code = Polynomial._of(module_code(alphabet, basis)[0], _read(text, alphabet, basis))
    return ModuleElement._of_code(alphabet, basis, code)


def _coefficient(text: str, sign: int) -> Fraction | None:
    """``sign`` times the coefficient ``text`` (``_COEFF_RE``: ASCII digits,
    then optionally ``/`` and more), or None when ``text`` is none; a zero
    denominator raises ``ZeroDivisionError``."""
    if not _COEFF_RE.fullmatch(text):
        return None
    num, _, den = text.partition("/")
    return Fraction(sign * _int_of_digits(num), _int_of_digits(den) if den else 1)


def _int_of_digits(digits: str) -> int:
    """The value of a decimal digit string, read in chunks of ``_CHUNK_DIGITS``."""
    n = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        piece = digits[i : i + _CHUNK_DIGITS]
        n = n * 10 ** len(piece) + int(piece)
    return n


def _digits(n: int) -> str:
    """The decimal digits of an int, a minus sign first when it is negative,
    written in chunks of ``_CHUNK_DIGITS``."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _join_signed(terms) -> str:
    """Join (word text, coefficient) pairs as signed terms; the unit word's text is empty."""
    pieces = []
    for word, c in terms:
        num, den = c.numerator, c.denominator
        positive = num > 0
        if not positive:
            num = -num
        digits = str if num < _CHUNK and den < _CHUNK else _digits
        mag = digits(num) if den == 1 else f"{digits(num)}/{digits(den)}"
        if not word:
            body = mag
        elif mag == "1":
            body = word
        else:
            body = f"{mag}*{word}"
        if not pieces:
            pieces.append(body if positive else f"-{body}")
        else:
            pieces.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(pieces)


def _format_terms(p: Polynomial, spec, read) -> str:
    """The terms of ``p``, greatest first under ``spec``; ``read`` gives a word's text."""
    terms = p.raw_terms()
    if not terms:
        return "0"
    key = spec.letter_key(p.alphabet)
    return _join_signed((read(w), terms[w]) for w in sorted(terms, key=key, reverse=True))


def format_polynomial(p: Polynomial, spec=None) -> str:
    names = p.alphabet.symbols
    return _format_terms(p, spec or DegLex(), lambda w: "*".join(map(names.__getitem__, w)))


def format_module_element(m: ModuleElement, spec: ModuleTop | None = None) -> str:
    names, gens = m.alphabet.symbols, m.basis.symbols
    decode = module_code(m.alphabet, m.basis)[2]

    def read(code):
        u, g = decode(code)
        return "*".join([*(names[i] for i in u), gens[g]])

    return _format_terms(m.code, spec or ModuleTop(), read)


def format_element(x, spec=None) -> str:
    """Render a polynomial or module element with its leading term first."""
    if isinstance(x, ModuleElement):
        return format_module_element(x, spec)
    return format_polynomial(x, spec)
