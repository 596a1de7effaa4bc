"""Groebner-Shirshov machinery for free left modules, run on the algebra engine.

Multiplication is one-sided, so a module word u*y is reducible by a
relation with leading word v*y exactly when v is a suffix of u; the only
composition between monic relations f and g arises when lead(f) = a*lead(g)
and equals f - a*g.

There is no second rewriting engine here.  A module word u*y_g is encoded
as the algebra word Y_g*rev(u): one fresh letter per basis generator, then
the prefix reversed.  The leading word v*y_g divides u*y_g exactly when
its code is a prefix of the code of u*y_g, so every match of the algebra
engine sits at position 0 and its "leftmost, then lowest rule index"
strategy is the module rule "lowest rule index".  A code holds one
generator letter, at its front, so leading words never overlap properly:
the only ambiguity is the inclusion lead(f) = lead(g)*b, which is the
module composition f - a*g with a = rev(b).  (The unreversed code u*Y_g
would let the engine pick the leftmost, that is the longest, matching
suffix, and it changed traces, check residuals and completions.)  Codes
are ordered by ``ModuleTop.module_key`` after decoding, so the module order
has one definition.  The functions below encode their input, call
``shirshov_complete``, ``check_gsb``, ``find_ambiguities``,
``normal_form_with_trace`` or ``compile_rules``, and decode the results
into module types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .completion import (
    CheckReport,
    CompletionReport,
    RemovedRelation,
    _replay,
    check_gsb,
    find_ambiguities,
    shirshov_complete,
)
from .errors import AlphabetMismatchError, BasisMismatchError, LimitError
from .orderings import ModuleTop
from .poly import ModuleElement, Polynomial, act
from .rewrite import compile_rules, normal_form_with_trace
from .words import Alphabet, ModuleBasis, ModuleWord, Word


class _Codec:
    """Module words over (alphabet, basis) as codes over an extended alphabet.

    Generator g is the letter ``alphabet.size + g``; its name cannot clash
    with an alphabet symbol.  The codec is also the algebra ordering of the
    codes: ``ModuleTop.module_key`` after decoding.
    """

    def __init__(self, alphabet: Alphabet, basis: ModuleBasis, spec: ModuleTop):
        self.alphabet = alphabet
        self.basis = basis
        self.spec = spec
        self.n = alphabet.size
        stem = "Y"
        while any(s.startswith(stem) for s in alphabet.symbols):
            stem = "_" + stem
        names = tuple(f"{stem}{g}" for g in range(basis.size))
        self.code_alphabet = Alphabet(alphabet.symbols + names)

    def letter_key(self, _code_alphabet):
        mkey = self.spec.module_key(self.alphabet)
        n = self.n
        return lambda code: mkey((code[:0:-1], code[0] - n))

    def encode(self, m: ModuleElement, idx=None) -> Polynomial:
        if m.alphabet != self.alphabet:
            raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        if m.basis != self.basis:
            raise BasisMismatchError(f"relation #{idx} lives over a different basis")
        return Polynomial(
            self.code_alphabet,
            {(self.n + g,) + u[::-1]: c for (u, g), c in m.raw_terms().items()},
        )

    def encode_all(self, relations) -> list[Polynomial]:
        return [self.encode(s, idx) for idx, s in enumerate(relations)]

    def element(self, p: Polynomial) -> ModuleElement:
        n = self.n
        terms = {(w[:0:-1], w[0] - n): c for w, c in p.raw_terms().items()}
        return ModuleElement(self.alphabet, self.basis, terms)

    def module_word(self, code) -> ModuleWord:
        return ModuleWord(Word(self.alphabet, code[:0:-1]), self.basis, code[0] - self.n)

    def left(self, right: Word) -> Word:
        """The left factor a of a module word from the right factor of its code."""
        return Word(self.alphabet, right.letters[::-1])

    def ambiguity(self, amb) -> ModuleAmbiguity:
        return ModuleAmbiguity(
            amb.f_index, amb.g_index, self.left(amb.b), self.module_word(amb.w.letters)
        )

    def removal(self, entry: RemovedRelation) -> RemovedRelation:
        return RemovedRelation(
            self.element(entry.relation),
            self.element(entry.residual),
            None if entry.replacement is None else self.element(entry.replacement),
            tuple((c, self.left(b), self.element(s)) for c, _a, s, b in entry.decomposition),
        )


def _encode_set(relations, spec: ModuleTop):
    """The codec of a relation set and its codes; an empty set needs no codec."""
    if not relations:
        return None, []
    codec = _Codec(relations[0].alphabet, relations[0].basis, spec)
    return codec, codec.encode_all(relations)


@dataclass(frozen=True)
class ModuleReductionStep:
    rule: int
    left: Word
    rewritten: ModuleWord
    coefficient: Fraction


@dataclass(frozen=True)
class ModuleReductionTrace:
    steps: tuple[ModuleReductionStep, ...]
    residual: ModuleElement

    def reconstruct(self, relations) -> ModuleElement:
        return _replay(
            self.residual, ((s.coefficient, s.left, relations[s.rule]) for s in self.steps)
        )


def module_nf(m: ModuleElement, relations, spec: ModuleTop) -> ModuleElement:
    return module_nf_with_trace(m, relations, spec)[0]


def module_nf_with_trace(m: ModuleElement, relations, spec: ModuleTop):
    codec = _Codec(m.alphabet, m.basis, spec)
    nf, trace = normal_form_with_trace(codec.encode(m), codec.encode_all(relations), codec)
    nf = codec.element(nf)
    steps = tuple(
        ModuleReductionStep(
            s.rule, codec.left(s.right), codec.module_word(s.rewritten.letters), s.coefficient
        )
        for s in trace.steps
    )
    return nf, ModuleReductionTrace(steps, nf)


@dataclass(frozen=True)
class ModuleAmbiguity:
    """lead(f) = a*lead(g): the one composition shape for left modules."""

    f_index: int
    g_index: int
    a: Word
    w: ModuleWord

    @property
    def degree(self) -> int:
        return self.w.degree

    def describe(self) -> str:
        return f"module overlap of #{self.f_index} and #{self.g_index} at {self.w}"


def module_ambiguities(relations, spec: ModuleTop) -> list[ModuleAmbiguity]:
    """Every pair with lead(f) = a*lead(g); equal leading words count once."""
    codec, rels = _encode_set(relations, spec)
    return [codec.ambiguity(amb) for amb in find_ambiguities(rels, codec)]


def module_composition(f: ModuleElement, g: ModuleElement, a: Word) -> ModuleElement:
    """The module composition f - a*g; leading terms cancel for monic inputs."""
    return f - act(Polynomial.from_word(a), g)


def module_complete(
    relations, spec: ModuleTop, max_deg: int = 12, max_steps: int = 10_000
) -> CompletionReport:
    """Shirshov completion of the encoded relations.

    Interreduction leaves no leading word dividing another, so no
    composition is ever evaluated: ``processed`` is 0, ``added`` and
    ``nontrivial_log`` are empty, and the result is always certified.
    """
    codec, rels = _encode_set(relations, spec)
    report = shirshov_complete(rels, codec, max_deg=max_deg, max_steps=max_steps)
    return replace(
        report,
        relations=tuple(codec.element(r) for r in report.relations),
        removed=tuple(codec.removal(e) for e in report.removed),
        ordering=spec,
    )


def module_check_gsb(relations, spec: ModuleTop, max_deg: int | None = None) -> CheckReport:
    """Evaluate every module composition; empty and unskipped = certificate."""
    if max_deg is not None and max_deg < 1:
        raise LimitError(f"max_deg must be positive, got {max_deg}")
    codec, rels = _encode_set(relations, spec)
    # a code is one letter longer than its module word
    report = check_gsb(rels, codec, None if max_deg is None else max_deg + 1)
    return replace(
        report,
        relations=tuple(relations),
        ordering=spec,
        max_deg=max_deg,
        nontrivial=tuple((codec.ambiguity(a), codec.element(h)) for a, h in report.nontrivial),
    )


def module_irr(
    alphabet: Alphabet, basis: ModuleBasis, relations, spec: ModuleTop, max_deg: int
) -> list[ModuleWord]:
    """Irreducible module words of prefix degree <= max_deg, ascending."""
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    codec = _Codec(alphabet, basis, spec)
    leads = {lead for lead, _tail in compile_rules(codec.encode_all(relations), codec)}
    found = []
    codes = [(codec.n + g,) for g in range(basis.size)]
    for deg in range(max_deg + 1):
        if deg:
            codes = [c + (x,) for c in codes for x in range(alphabet.size)]
        # a code is reducible when a prefix of it is a lead; only irreducible
        # codes are extended, so the one prefix left to test is the code itself
        codes = [c for c in codes if c not in leads]
        found.extend(codes)
    found.sort(key=codec.letter_key(codec.code_alphabet))
    return [codec.module_word(c) for c in found]
