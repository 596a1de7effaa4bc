"""Builders for the embedding presentations, certified at finite truncation.

The table classes refuse inexact values (a float, a bool, or a string that
a relation line would not read as an integer or a coefficient).  Each
builder emits the relation families for user-chosen index bounds, computes
(never transcribes) the orientation of every relation (``_oriented``), and
runs the full composition check; it fails loudly when the predicted
zero-nontrivial-compositions certification does not hold on the instance.
Each builder compiles its relation set once: one scan, a ``RuleSet`` with
its overlaps (``completion._Scan``, ``modules._ModuleScan``), serves the
ambiguity shape check, the composition check (``_extension_report`` reads
an extended base's own compositions off it too) and the witness normal
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .completion import CheckReport, _Scan, check_gsb
from .errors import (
    AlphabetMismatchError,
    CertificationError,
    IndexOutOfRangeError,
    NonCanonicalSupportError,
    OrientationError,
    PresentationFormatError,
    SingleLetterAlphabetError,
    SymbolClashError,
    TableIncompleteError,
    UncertifiedBasisError,
    ZeroPolynomialError,
)
from .lyndon import BracketedWord, is_alsw, std_bracketing
from .modules import _ModuleScan
from .orderings import DegLex, Tower
from .poly import ModuleElement, Polynomial, _coefficient, _int_of_digits
from .presentation import ModulePresentation, Presentation
from .rewrite import INTERSECTION
from .words import Alphabet, ModuleBasis, ModuleWord, Word, module_code


def _table_int(value, what: str) -> int:
    """``value`` as a table integer: an int (not a bool), or a string of
    ASCII digits, read as a relation line reads them."""
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return _int_of_digits(value)
    raise PresentationFormatError(f"{what} is {value!r}, not an integer")


def _table_coefficient(value, what: str) -> Fraction:
    """``value`` as a ``Fraction``, refusing a float or a bool; a string is
    read as a relation line reads a coefficient: an optional sign, then
    digits or ``p/q``."""
    if not isinstance(value, str):
        if isinstance(value, (bool, float)):
            raise PresentationFormatError(f"{what} is {value!r}, not an exact number")
        return Fraction(value)
    sign = -1 if value[:1] == "-" else 1
    try:
        coeff = _coefficient(value[1:] if value[:1] in ("+", "-") else value, sign)
    except ZeroDivisionError:
        raise PresentationFormatError(f"{what} is {value!r}, with a zero denominator") from None
    if coeff is None:
        raise PresentationFormatError(f"{what} is {value!r}, not an integer or p/q")
    return coeff


def _oriented(p, spec, lead, message: str):
    """``p``, once its computed leading word is ``lead``, the displayed left side."""
    if p.leading_word(spec) != lead:
        raise OrientationError(message)
    return p


def _shifted(p: Polynomial, alphabet: Alphabet, offset: int) -> Polynomial:
    """``p`` over ``alphabet``, its letters moved up by ``offset``, unchecked."""
    return Polynomial._of(
        alphabet, {tuple(c + offset for c in w): coeff for w, coeff in p.raw_terms().items()}
    )


def _extension_report(scan, base_len: int, what: str, uncertified: str) -> CheckReport:
    """The one check of a base of ``base_len`` relations and new ones whose
    leads hold a letter no base relation has, so the base's compositions are
    its own: a nontrivial one raises ``UncertifiedBasisError(uncertified)``,
    then any ambiguity of a new relation raises; ``what`` is "" or "module "."""
    report = scan.check()
    if any(max(amb.f_index, amb.g_index) < base_len for amb, _ in report.nontrivial):
        raise UncertifiedBasisError(uncertified)
    new = sum(1 for _kind, i, j, *_ in scan.overlaps if max(i, j) >= base_len)
    if new:
        raise CertificationError(f"{new} unexpected new {what}compositions")
    return report


class GroupTable:
    """A (possibly truncated) group multiplication table.

    Elements are indexed 1..size; index 0 stands for the identity.
    ``product`` maps (j, k) to an element index, ``inverse`` maps j to the
    index of its inverse.  Associativity is checked wherever every lookup
    involved is defined.  The size, the keys and the entries are ints or
    strings of ASCII digits (``_table_int``).
    """

    def __init__(self, size: int, product, inverse):
        size = _table_int(size, "the table size")
        if size < 1:
            raise PresentationFormatError("a group table needs at least one element")
        self.size = size
        self.product, self.inverse = {}, {}
        for key, v in dict(product).items():
            if type(key) is not tuple or len(key) != 2:
                raise PresentationFormatError(f"product key {key!r} is not a pair")
            j, k = (_table_int(c, "a product key") for c in key)
            if (j, k) in self.product:
                raise PresentationFormatError(f"product entry ({j},{k}) is given twice")
            self.product[j, k] = _table_int(v, f"product entry ({j},{k})")
        for j, v in dict(inverse).items():
            j = _table_int(j, "an inverse key")
            if j in self.inverse:
                raise PresentationFormatError(f"inverse entry {j} is given twice")
            self.inverse[j] = _table_int(v, f"inverse entry {j}")
        for (j, k), v in self.product.items():
            if not (1 <= j <= size and 1 <= k <= size and 0 <= v <= size):
                raise PresentationFormatError(f"product entry ({j},{k})->{v} out of range")
        for j, v in self.inverse.items():
            if not (1 <= j <= size and 0 <= v <= size):
                raise PresentationFormatError(f"inverse entry {j}->{v} out of range")
        self._check_associativity()
        self._check_inverses()

    @classmethod
    def cyclic(cls, order: int) -> GroupTable:
        """The cyclic group of the given order; size is order - 1."""
        if order < 2:
            raise PresentationFormatError("cyclic tables need order >= 2")
        size = order - 1
        product = {
            (j, k): (j + k) % order for j in range(1, size + 1) for k in range(1, size + 1)
        }
        inverse = {j: (order - j) % order for j in range(1, size + 1)}
        return cls(size, product, inverse)

    def _mul(self, x: int, y: int):
        """Product with identity folded in; None when the entry is missing."""
        if x == 0:
            return y
        if y == 0:
            return x
        return self.product.get((x, y))

    def _check_associativity(self):
        """Check (j*k)*l == j*(k*l) over the defined entries (j, k) and
        (k, l), in ascending (j, k, l), so the cost follows the entries and
        not ``size``."""
        rows = {}
        for (j, k), jk in sorted(self.product.items()):
            rows.setdefault(j, []).append((k, jk))
        for j, row in rows.items():
            for k, jk in row:
                for l, kl in rows.get(k, ()):
                    left = self._mul(jk, l)
                    right = self._mul(j, kl)
                    if left is None or right is None:
                        continue
                    if left != right:
                        raise PresentationFormatError(
                            f"table is not associative at ({j},{k},{l})"
                        )

    def _check_inverses(self):
        for j, v in self.inverse.items():
            for pair in ((j, v), (v, j)):
                if 0 not in pair and pair in self.product and self.product[pair] != 0:
                    raise PresentationFormatError(
                        f"inverse entry {j}->{v} conflicts with the product table"
                    )

    def require(self, j: int, k: int) -> int:
        v = self.product.get((j, k))
        if v is None:
            raise TableIncompleteError(f"product ({j},{k}) is missing")
        return v

    def require_inverse(self, j: int) -> int:
        v = self.inverse.get(j)
        if v is None:
            raise TableIncompleteError(f"inverse of element {j} is missing")
        return v


@dataclass(frozen=True)
class HnnResult:
    presentation: Presentation
    report: CheckReport


def build_hnn(table: GroupTable, index_bound: int) -> HnnResult:
    """The two-generator group embedding presentation, truncated.

    Emits the eight relation families over {g_i, a, b, t and inverses}
    under the tower ordering and certifies that every composition is
    trivial on the instance.
    """
    if not 1 <= index_bound <= table.size:
        raise IndexOutOfRangeError(
            f"index bound {index_bound} outside 1..{table.size}"
        )
    names = ("t", "t^-1", "b^-1", "b", "a^-1", "a") + tuple(
        f"g{i}" for i in range(1, table.size + 1)
    )
    alphabet = Alphabet(names)
    spec = Tower("t", "t^-1")

    def run(name: str, power: int = 1):
        return [name] * power

    def g_word(index: int):
        return [] if index == 0 else [f"g{index}"]

    def word(parts) -> Word:
        return alphabet.word_from_names(parts)

    relations = []

    def rel(lhs_parts, rhs_parts):
        lhs = word(lhs_parts)
        rhs = word(rhs_parts)
        p = Polynomial.from_word(lhs) - Polynomial.from_word(rhs)
        if p.is_zero():
            raise ZeroPolynomialError(f"degenerate relation at {lhs}")
        message = f"computed leading side of {lhs} = {rhs} is not the displayed left side"
        relations.append(_oriented(p, spec, lhs, message))

    b_ = index_bound
    # family 1: the group table
    for j in range(1, b_ + 1):
        for k in range(1, b_ + 1):
            rel(["g" + str(j), "g" + str(k)], g_word(table.require(j, k)))
    # families 2 and 3: the stable letter shifts a to b and back
    for eps in ("a", "a^-1"):
        rel([eps, "t"], ["t", "b" if eps == "a" else "b^-1"])
    for eps in ("b", "b^-1"):
        rel([eps, "t^-1"], ["t^-1", "a" if eps == "b" else "a^-1"])
    # families 4-7: the conjugation relations
    for i in range(1, b_ + 1):
        inv = table.require_inverse(i)
        core = g_word(i) + run("a^-1", i) + ["b"] + run("a", i)
        core_inv = run("a^-1", i) + ["b^-1"] + run("a", i) + g_word(inv)
        rel(["a"] + run("b", i) + ["t"], run("b", i) + ["t"] + core)
        rel(["a^-1"] + run("b", i) + ["t"], run("b", i) + ["t"] + core_inv)
        rel(
            ["b"] + run("a", i) + ["t^-1"],
            run("a", i) + g_word(inv) + ["t^-1"] + run("b^-1", i) + ["a"] + run("b", i),
        )
        rel(
            ["b^-1"] + run("a", i) + g_word(inv) + ["t^-1"],
            run("a", i) + ["t^-1"] + run("b^-1", i) + ["a^-1"] + run("b", i),
        )
    # family 8: formal inverses multiply to the unit
    for s in ("a", "b", "t"):
        rel([s, s + "^-1"], [])
        rel([s + "^-1", s], [])

    presentation = Presentation(alphabet, spec, tuple(relations))
    report = check_gsb(presentation.relations, spec)
    if not report.is_certificate:
        raise CertificationError(
            f"{len(report.nontrivial)} nontrivial compositions in the truncated instance"
        )
    return HnnResult(presentation, report)


@dataclass(frozen=True)
class MalcevResult:
    presentation: Presentation
    report: CheckReport
    witness: dict


def build_malcev(base: Presentation, count: int, a: str = "a", b: str = "b") -> MalcevResult:
    """Adjoin the two fresh generators and the defining words for x_1..x_count.

    The base must be a certified basis under deg-lex, which the one check
    of the extended set shows; the normal forms of the original generators
    are returned as the embedding witness.
    """
    if not isinstance(base.ordering, DegLex):
        raise PresentationFormatError("this construction works over deg-lex bases")
    if a == b:
        raise SymbolClashError(f"the two fresh symbols must differ, got {a!r} twice")
    if a in base.alphabet.symbols or b in base.alphabet.symbols:
        raise SymbolClashError(f"fresh symbols {a!r}, {b!r} clash with the base alphabet")
    if not 1 <= count <= base.alphabet.size:
        raise IndexOutOfRangeError(
            f"count {count} outside 1..{base.alphabet.size}"
        )
    spec = DegLex()
    alphabet = Alphabet((a, b) + base.alphabet.symbols)
    shift = 2
    relations = [_shifted(r, alphabet, shift) for r in base.relations]
    base_len = len(relations)
    ai, bi = 0, 1
    for i in range(1, count + 1):
        lhs = Word(alphabet, (ai, ai) + (bi,) * i + (ai, bi))
        p = Polynomial(alphabet, {lhs: 1, (shift + i - 1,): -1})
        relations.append(_oriented(p, spec, lhs, "defining word does not lead its generator"))
    scan = _Scan(relations, spec)
    report = _extension_report(
        scan, base_len, "", "the base presentation is not a certified basis"
    )
    witness = {
        alphabet.name(c): scan.normal_form(Polynomial.from_word(Word(alphabet, (c,))))
        for c in range(shift, shift + count)
    }
    return MalcevResult(Presentation(alphabet, spec, tuple(relations)), report, witness)


class MultTable:
    """A total multiplication table over a finite basis x_1..x_n.

    Values are linear combinations over the basis and the unit; entries may
    be given as a generator name, ``"1"``, or a {name: coeff} mapping with
    exact coefficients: integers, ``Fraction``s, or strings such as ``"3"``,
    ``"-1/2"`` (an optional sign, then ASCII digits, then optionally ``/``
    and a nonzero denominator).
    """

    def __init__(self, basis, products):
        self.basis = tuple(basis)
        n = len(self.basis)
        if n < 1:
            raise PresentationFormatError("a multiplication table needs a basis")
        index = {name: i for i, name in enumerate(self.basis)}
        self.entries = {}
        products = dict(products)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i, j) not in products:
                    raise TableIncompleteError(f"product ({i},{j}) is missing")
        for (i, j), value in products.items():
            if not (1 <= i <= len(self.basis) and 1 <= j <= len(self.basis)):
                raise PresentationFormatError(f"entry ({i},{j}) out of range")
            if isinstance(value, str):
                value = {value: 1}
            combo = []
            for name, coeff in value.items():
                coeff = _table_coefficient(coeff, f"entry ({i},{j}) coefficient of {name!r}")
                if coeff == 0:
                    continue
                if name == "1":
                    combo.append((None, coeff))
                elif name in index:
                    combo.append((index[name], coeff))
                else:
                    raise PresentationFormatError(
                        f"entry ({i},{j}) references unknown generator {name!r}"
                    )
            self.entries[(i, j)] = tuple(combo)

    def base_alphabet(self) -> Alphabet:
        return Alphabet(self.basis)


@dataclass(frozen=True)
class SimplePair:
    """One stage pair (f, g) with its two fresh letters."""

    f: Polynomial
    g: Polynomial
    x_symbol: str
    y_symbol: str


@dataclass(frozen=True)
class SimpleStepInput:
    pairs: tuple[SimplePair, ...]


@dataclass(frozen=True)
class SimpleStepResult:
    presentation: Presentation
    report: CheckReport
    ambiguity_words: tuple[Word, ...]
    exponents: tuple[int, ...]


def simple_relation_exponent(g: Polynomial, spec) -> int:
    """The power used on the pair's x-letter: one more than deg of g's lead."""
    return g.degree(spec) + 1


def build_simple_step(
    base: MultTable, steps: SimpleStepInput, m_bound: int, n_bound: int
) -> SimpleStepResult:
    """One stage of the simple two-generated algebra construction.

    Emits the table relations, the generator-defining (a,b)-words for all
    slots within the bounds, and one pair relation per supplied pair; the
    only ambiguities must be the degree-3 table overlaps, and all must be
    trivial.
    """
    pairs = tuple(steps.pairs)
    if m_bound < 1 or n_bound < 1:
        raise IndexOutOfRangeError("bounds must be at least 1")
    if len(pairs) > m_bound:
        raise IndexOutOfRangeError("more pairs than m_bound slots")
    nb = len(base.basis)
    spec = DegLex()

    x_names = {}
    y_names = {}
    for m in range(1, m_bound + 1):
        for n in range(1, n_bound + 1):
            if n == 1 and m <= len(pairs):
                x_names[(m, n)] = pairs[m - 1].x_symbol
                y_names[(m, n)] = pairs[m - 1].y_symbol
            else:
                x_names[(m, n)] = f"x{m}_{n}"
                y_names[(m, n)] = f"y{m}_{n}"
    x_order = [
        x_names[(m, n)] for n in range(n_bound, 0, -1) for m in range(1, m_bound + 1)
    ]
    y_order = [
        y_names[(m, n)] for n in range(1, n_bound + 1) for m in range(1, m_bound + 1)
    ]
    symbols = tuple(x_order) + ("a", "b") + base.basis + tuple(y_order)
    if len(set(symbols)) != len(symbols):
        raise SymbolClashError("fresh letters clash with the base or each other")
    alphabet = Alphabet(symbols)
    base_offset = len(x_order) + 2

    relations = []
    # table relations: x_i x_j = combination
    for (i, j), combo in sorted(base.entries.items()):
        lhs = (base_offset + i - 1, base_offset + j - 1)
        terms = {lhs: Fraction(1)}
        for target, coeff in combo:
            key = () if target is None else (base_offset + target,)
            terms[key] = terms.get(key, Fraction(0)) - coeff
        lead = Word(alphabet, lhs)
        message = "table relation does not lead with its product word"
        relations.append(_oriented(Polynomial(alphabet, terms), spec, lead, message))
    table_count = len(relations)

    ai = alphabet.index("a")
    bi = alphabet.index("b")

    def slot_word(n: int, tail_b: int) -> tuple[int, ...]:
        return (ai, ai) + (ai, bi) * n + (bi,) * tail_b + (ai, bi)

    for n in range(1, n_bound + 1):
        for m in range(1, m_bound + 1):
            for tail, names in ((2 * m + 1, x_names), (2 * m, y_names)):
                lhs = Word(alphabet, slot_word(n, tail))
                p = Polynomial(alphabet, {lhs: 1, (alphabet.index(names[(m, n)]),): -1})
                relations.append(_oriented(p, spec, lhs, "defining word does not lead its letter"))
    # the designated word for the first table generator
    lhs = (ai, ai, bi, bi, ai, bi)
    relations.append(Polynomial(alphabet, {lhs: 1, (base_offset,): -1}))

    table_leads = {
        (base_offset + i - 1, base_offset + j - 1) for (i, j) in base.entries
    }

    def canonical(p: Polynomial) -> bool:
        for w in p.raw_terms():
            for s in range(len(w) - 1):
                if w[s : s + 2] in table_leads:
                    return False
        return True

    base_alphabet = base.base_alphabet()
    exponents = []
    for pidx, pair in enumerate(pairs, start=1):
        if pair.f.alphabet != base_alphabet or pair.g.alphabet != base_alphabet:
            raise AlphabetMismatchError(f"pair #{pidx} is not over the table's basis")
        if pair.f.is_zero() or pair.g.is_zero():
            raise NonCanonicalSupportError(pidx, "pair members must be nonzero")
        f, g = _shifted(pair.f, alphabet, base_offset), _shifted(pair.g, alphabet, base_offset)
        if not canonical(f) or not canonical(g):
            raise NonCanonicalSupportError(pidx)
        power = simple_relation_exponent(g, spec)
        exponents.append(power)
        x_word = Word(alphabet, (alphabet.index(pair.x_symbol),) * power)
        y_word = Word(alphabet, (alphabet.index(pair.y_symbol),))
        p = (Polynomial.from_word(x_word) * f * Polynomial.from_word(y_word) - g).make_monic(spec)
        lead = x_word * f.leading_word(spec) * y_word
        relations.append(
            _oriented(p, spec, lead, "pair relation does not lead with its x-f-y word")
        )

    scan = _Scan(relations, spec)
    ambiguities = scan.ambiguities()
    base_range = range(base_offset, base_offset + nb)
    for amb in ambiguities:
        shape_ok = (
            amb.kind == INTERSECTION
            and amb.w.degree == 3
            and all(c in base_range for c in amb.w.letters)
            and amb.f_index < table_count
            and amb.g_index < table_count
        )
        if not shape_ok:
            raise CertificationError(f"unexpected ambiguity {amb.describe()}")
    report = scan.check()
    if not report.is_certificate:
        raise CertificationError(
            "a table overlap was nontrivial; the table is not associative"
        )
    return SimpleStepResult(
        Presentation(alphabet, spec, tuple(relations)),
        report,
        tuple(amb.w for amb in ambiguities),
        tuple(exponents),
    )


@dataclass(frozen=True)
class ModuleCyclicResult:
    presentation: ModulePresentation
    report: CheckReport
    witness: dict


def build_module_cyclic(
    base: ModulePresentation, count: int, generator: str = "y"
) -> ModuleCyclicResult:
    """Adjoin one generator mapping onto y_1..y_count via a*b^i words.

    Rejects single-letter alphabets: over one letter the construction
    cannot embed (the defining prefixes would collide).
    """
    if base.alphabet.size < 2:
        raise SingleLetterAlphabetError(
            "the cyclic-module construction needs at least two letters"
        )
    if generator in base.basis.symbols:
        raise SymbolClashError(f"generator {generator!r} clashes with the basis")
    if not 1 <= count <= base.basis.size:
        raise IndexOutOfRangeError(f"count {count} outside 1..{base.basis.size}")
    spec = base.ordering
    basis = ModuleBasis(base.basis.symbols + (generator,))
    alphabet = base.alphabet

    code_alphabet = module_code(alphabet, basis)[0]  # the base code alphabet plus one letter
    relations = [
        ModuleElement._of_code(alphabet, basis, Polynomial._of(code_alphabet, r.code.raw_terms()))
        for r in base.relations
    ]
    base_len = len(relations)
    y_new = basis.size - 1
    ai, bi = 0, 1
    for i in range(1, count + 1):
        prefix = (ai,) + (bi,) * i
        m = ModuleElement(alphabet, basis, {(prefix, y_new): 1, ((), i - 1): -1})
        lead = ModuleWord(Word(alphabet, prefix), basis, y_new)
        relations.append(_oriented(m, spec, lead, "defining prefix does not lead"))
    scan = _ModuleScan(relations, spec)
    report = _extension_report(
        scan, base_len, "module ", "the base module presentation is not certified"
    )
    witness = {
        basis.name(i): scan.normal_form(ModuleElement(alphabet, basis, {((), i): 1}))
        for i in range(base.basis.size)
    }
    return ModuleCyclicResult(
        ModulePresentation(alphabet, basis, spec, tuple(relations)), report, witness
    )


def bracket_embedding_words(i_max: int) -> list[tuple[Word, BracketedWord]]:
    """The words a*a*b^i*a*b with their standard bracketings, i = 1..i_max.

    Each word is checked to be an associative Lyndon-Shirshov word; no Lie
    completion is performed.
    """
    if i_max < 1:
        raise IndexOutOfRangeError("i_max must be >= 1")
    alphabet = Alphabet(("a", "b"))
    out = []
    for i in range(1, i_max + 1):
        word = Word(alphabet, (0, 0) + (1,) * i + (0, 1))
        if not is_alsw(word):
            raise CertificationError(f"{word} unexpectedly fails the rotation test")
        out.append((word, std_bracketing(word)))
    return out
