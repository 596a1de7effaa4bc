"""Presentations and their text file format.

File layout (UTF-8, ``#`` starts a comment):

    alphabet: a > b > x1 > x2
    ordering: deglex | tower(t, t^-1) | module-top | module-top(tower(t, t^-1))
    basis: y1 > y2            # modules only
    relations:
    a*a - b

Relation lines are read by ``parse_polynomial``/``parse_module_element``.
A file declares no inverse pairs: every alphabet pairs each ``s`` with
``s^-1`` by name, so a loaded alphabet equals the one written.
Presentations make their relations monic (scaling does not change the
ideal) and keep them sorted by leading word, so the loader and writer are
mutually inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    PresentationFormatError,
    UnknownSymbolError,
    WordSyntaxError,
    ZeroPolynomialError,
)
from .orderings import DegLex, ModuleTop, Tower
from .poly import (
    ModuleElement,
    Polynomial,
    format_element,
    parse_module_element,
    parse_polynomial,
)
from .words import Alphabet, ModuleBasis, _parse_symbol_chain

_TOWER = r"tower\(\s*([^\s,]+)\s*,\s*([^\s,)]+)\s*\)"
_TOWER_RE = re.compile(_TOWER)
_MODULE_TOWER_RE = re.compile(rf"module-top\(\s*{_TOWER}\s*\)")


@dataclass(frozen=True)
class Presentation:
    """An alphabet with precedence, an ordering spec, and monic relations."""

    alphabet: Alphabet
    ordering: object
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", _monic_by_lead(self, lambda r: r))


@dataclass(frozen=True)
class ModulePresentation:
    """A module presentation: alphabet, ordered basis, monic relations."""

    alphabet: Alphabet
    basis: ModuleBasis
    ordering: ModuleTop
    relations: tuple[ModuleElement, ...]

    def __post_init__(self):
        relations = _monic_by_lead(self, attrgetter("code"), self.basis)
        object.__setattr__(self, "relations", relations)


def _monic_by_lead(p, poly_of, basis=None) -> tuple:
    """The relations of ``p``, checked to lie over its alphabet (and ``basis``)
    and to be nonzero, made monic and sorted by the key of their leads.

    ``poly_of`` gives a relation as a polynomial: itself, or a module
    element's code.  Each lead key is computed once, and the stable sort
    keeps relations with equal leads in their given order."""
    spec = p.ordering
    # orders codes too, and rejects a word order whose letters the alphabet lacks
    keyf = spec.letter_key(p.alphabet)
    keyed = []
    for idx, r in enumerate(p.relations):
        if r.alphabet != p.alphabet:
            raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        if basis is not None and r.basis != basis:
            raise BasisMismatchError(f"relation #{idx} lives over a different basis")
        if r.is_zero():
            raise ZeroPolynomialError(f"relation #{idx} is zero")
        poly = poly_of(r)
        terms = poly.raw_terms()
        if poly._lead_spec is None:
            # no lead recorded: the key of each term is read, the lead's among them
            key, lead = max(zip(map(keyf, terms), terms))
        else:
            lead = poly._lead_letters(spec, keyf)
            key = keyf(lead)
        c = terms[lead]
        keyed.append((key, r if c == 1 else r / c))
    keyed.sort(key=itemgetter(0))
    return tuple(r for _, r in keyed)


def _parse_ordering(body: str):
    text = body.strip()
    if text == "deglex":
        return DegLex()
    if text == "module-top":
        return ModuleTop()
    m = _TOWER_RE.fullmatch(text)
    if m:
        return Tower(m.group(1), m.group(2))
    m = _MODULE_TOWER_RE.fullmatch(text)
    if m:
        return ModuleTop(Tower(m.group(1), m.group(2)))
    raise PresentationFormatError(f"unknown ordering {text!r}")


def load_presentation(text: str):
    """Parse a presentation file; returns Presentation or ModulePresentation."""
    sections: dict[str, str] = {}
    relation_lines: list[tuple[int, str]] = []
    in_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_relations:
            relation_lines.append((lineno, line.strip()))
            continue
        if ":" not in line:
            raise PresentationFormatError(f"line {lineno}: expected 'section: ...'")
        head, _, body = line.partition(":")
        section = head.strip()
        if section == "relations":
            if body.strip():
                raise PresentationFormatError(
                    f"line {lineno}: relations start on the following lines"
                )
            in_relations = True
            continue
        if section not in ("alphabet", "ordering", "basis"):
            raise PresentationFormatError(f"line {lineno}: unknown section {section!r}")
        if section in sections:
            raise PresentationFormatError(f"line {lineno}: duplicate section {section!r}")
        sections[section] = body.strip()
    if "alphabet" not in sections:
        raise PresentationFormatError("missing alphabet section")
    if "ordering" not in sections:
        raise PresentationFormatError("missing ordering section")
    alphabet = Alphabet(_parse_symbol_chain(sections["alphabet"], "alphabet section"))
    ordering = _parse_ordering(sections["ordering"])
    if "basis" in sections or isinstance(ordering, ModuleTop):
        if "basis" not in sections:
            raise PresentationFormatError("module-top ordering needs a basis section")
        if not isinstance(ordering, ModuleTop):
            raise PresentationFormatError("a basis section needs the module-top ordering")
        basis = ModuleBasis(_parse_symbol_chain(sections["basis"], "basis section"))
        rels = _parse_relations(
            relation_lines, lambda line: parse_module_element(line, alphabet, basis)
        )
        return ModulePresentation(alphabet, basis, ordering, rels)
    rels = _parse_relations(relation_lines, lambda line: parse_polynomial(line, alphabet))
    return Presentation(alphabet, ordering, rels)


def _parse_relations(relation_lines, parse):
    """Parse each (line number, text) pair; a syntax error or an unknown
    symbol names its line."""
    rels = []
    for lineno, line in relation_lines:
        try:
            rels.append(parse(line))
        except WordSyntaxError as exc:
            raise WordSyntaxError(f"line {lineno}: {exc.message}", exc.position) from None
        except UnknownSymbolError as exc:
            raise UnknownSymbolError(exc.token, exc.position, lineno) from None
    return tuple(rels)


def _format_ordering(ordering) -> str:
    if isinstance(ordering, DegLex):
        return "deglex"
    if isinstance(ordering, Tower):
        return f"tower({ordering.stable}, {ordering.stable_inv})"
    if isinstance(ordering, ModuleTop):
        if isinstance(ordering.word_order, DegLex):
            return "module-top"
        return f"module-top({_format_ordering(ordering.word_order)})"
    raise PresentationFormatError(f"cannot format ordering {ordering!r}")


def format_presentation(p) -> str:
    """The file text of ``p``, which ``load_presentation`` reads back equal."""
    lines = [f"alphabet: {' > '.join(p.alphabet.symbols)}"]
    lines.append(f"ordering: {_format_ordering(p.ordering)}")
    if isinstance(p, ModulePresentation):
        lines.append(f"basis: {' > '.join(p.basis.symbols)}")
    lines.append("relations:")
    lines.extend(format_element(r, p.ordering) for r in p.relations)
    return "\n".join(lines) + "\n"


def load_presentation_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PresentationFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return load_presentation(text)


def save_presentation_file(p, path) -> None:
    text = format_presentation(p)  # first, so an ordering it cannot write leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
