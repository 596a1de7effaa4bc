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
suffix, and it changed traces, check residuals and completions.)
``ModuleTop`` is an ordering on codes (``ModuleTop.letter_key``), so the
caller's ordering is the engine's.

A module element is stored as its code (``words.module_code``), so the
codes and the caller's ``ModuleTop`` go to the algebra engine as they are:
``_ModuleRules`` is the ``rewrite.RuleSet`` of a set's codes, and
``_ModuleScan`` and ``_ModuleCertificate`` add ``completion._Scan`` and
``GsbCertificate`` to it; ``shirshov_complete`` and ``rewrite._checked``
take the codes directly.  Results are wrapped as module elements without
re-keying a term, and only traces, ambiguities, removals and irreducible
words are decoded into module types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .completion import CheckReport, CompletionReport, RemovedRelation, _Scan, shirshov_complete
from .errors import AlphabetMismatchError, BasisMismatchError, LimitError
from .orderings import ModuleTop
from .poly import ModuleElement, Polynomial, _digits, act
from .rewrite import GsbCertificate, RuleSet, _checked, _replay
from .words import Alphabet, ModuleBasis, ModuleWord, Word, _trusted_word, module_code


class _Codec:
    """The codes of one (alphabet, basis): it checks that a module element
    lives over them and decodes what the engine returns into module types."""

    def __init__(self, alphabet: Alphabet, basis: ModuleBasis):
        self.alphabet = alphabet
        self.basis = basis
        self.decode = module_code(alphabet, basis)[2]

    def code(self, m: ModuleElement, what: str) -> Polynomial:
        """The code of ``m``, after checking that it lives over the codec's
        (alphabet, basis); ``what`` names it in the error."""
        if m.alphabet != self.alphabet:
            raise AlphabetMismatchError(f"{what} lives over a different alphabet")
        if m.basis != self.basis:
            raise BasisMismatchError(f"{what} lives over a different basis")
        return m.code

    def encode(self, relations) -> list[Polynomial]:
        return [self.code(m, f"relation #{idx}") for idx, m in enumerate(relations)]

    def element(self, p: Polynomial) -> ModuleElement:
        return ModuleElement._of_code(self.alphabet, self.basis, p)

    def module_word(self, code) -> ModuleWord:
        u, g = self.decode(code)
        return ModuleWord(_trusted_word(self.alphabet, u), self.basis, g)

    def left(self, right: Word) -> Word:
        """The left factor a of a module word from the right factor of its code."""
        return _trusted_word(self.alphabet, right.letters[::-1])

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


def _encode_set(relations):
    """The codec of a relation set and its codes; an empty set needs no codec."""
    relations = tuple(relations)
    if not relations:
        return None, []
    codec = _Codec(relations[0].alphabet, relations[0].basis)
    return codec, codec.encode(relations)


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


class _ModuleRules(RuleSet):
    """A ``RuleSet`` of the codes of a module relation set, over the
    (alphabet, basis) of its first relation: it reduces module elements and
    decodes what it returns.  ``relations`` are the module relations, and
    ``bound`` is passed on to a ``_Scan`` that follows in the MRO."""

    def __init__(self, relations, spec: ModuleTop, *bound):
        relations = tuple(relations)
        self.codec, codes = _encode_set(relations)
        super().__init__(codes, spec, *bound)
        self.relations = relations

    def _code(self, m: ModuleElement) -> Polynomial:
        return m.code if self.codec is None else self.codec.code(m, "the element")

    def normal_form(self, m: ModuleElement) -> ModuleElement:
        return ModuleElement._of_code(m.alphabet, m.basis, super().normal_form(self._code(m)))

    def normal_form_with_trace(self, m: ModuleElement):
        nf, trace = super().normal_form_with_trace(self._code(m))
        nf, codec = ModuleElement._of_code(m.alphabet, m.basis, nf), self.codec
        steps = tuple(
            ModuleReductionStep(
                s.rule, codec.left(s.right), codec.module_word(s.rewritten.letters), s.coefficient
            )
            for s in trace.steps
        )
        return nf, ModuleReductionTrace(steps, nf)


class _ModuleCertificate(_ModuleRules, GsbCertificate):
    """The certificate of a module relation set: its code set, certified."""


def module_nf(m: ModuleElement, relations, spec: ModuleTop) -> ModuleElement:
    return _ModuleRules(relations, spec).normal_form(m)


def module_nf_with_trace(m: ModuleElement, relations, spec: ModuleTop):
    return _ModuleRules(relations, spec).normal_form_with_trace(m)


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


class _ModuleScan(_ModuleRules, _Scan):
    """A ``_Scan`` of the codes of a module relation set, its results decoded."""

    def __init__(self, relations, spec: ModuleTop, max_deg=None):
        # a code is one letter longer than its module word; the report states max_deg
        super().__init__(relations, spec, None if max_deg is None else max_deg + 1)
        self.max_deg = max_deg

    def ambiguities(self) -> list[ModuleAmbiguity]:
        return [self.codec.ambiguity(amb) for amb in super().ambiguities()]

    def check(self) -> CheckReport:
        report, codec = super().check(), self.codec
        nontrivial = tuple((codec.ambiguity(a), codec.element(h)) for a, h in report.nontrivial)
        return replace(report, nontrivial=nontrivial, _certified=_ModuleCertificate)


def module_ambiguities(relations, spec: ModuleTop) -> list[ModuleAmbiguity]:
    """Every pair with lead(f) = a*lead(g); equal leading words count once."""
    return _ModuleScan(relations, spec).ambiguities()


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
    codec, rels = _encode_set(relations)
    report = shirshov_complete(rels, spec, max_deg=max_deg, max_steps=max_steps)
    return replace(
        report,
        relations=tuple(codec.element(r) for r in report.relations),
        removed=tuple(codec.removal(e) for e in report.removed),
        _certified=_ModuleCertificate,
    )


def module_check_gsb(relations, spec: ModuleTop, max_deg: int | None = None) -> CheckReport:
    """Evaluate every module composition; those above ``max_deg`` are
    counted in ``skipped``, never built.  Empty and unskipped = certificate."""
    if max_deg is not None and max_deg < 1:
        raise LimitError(f"max_deg must be positive, got {_digits(max_deg)}")
    return _ModuleScan(relations, spec, max_deg).check()


def module_irr(
    alphabet: Alphabet, basis: ModuleBasis, relations, spec: ModuleTop, max_deg: int
) -> list[ModuleWord]:
    """Irreducible module words of prefix degree <= max_deg, ascending."""
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {_digits(max_deg)}")
    codec = _Codec(alphabet, basis)
    leads = {lead for _terms, lead in _checked(codec.encode(relations), spec)}
    code_alphabet, encode, _ = module_code(alphabet, basis)
    found = []
    codes = [encode((), g) for g in range(basis.size)]
    for deg in range(max_deg + 1):
        if deg:
            # the code of x*u*y_g is the code of u*y_g followed by x
            codes = [c + (x,) for c in codes for x in range(alphabet.size)]
        # x*u*y is reducible when a suffix of it is a lead; only irreducible
        # words are extended, so the one suffix left to test is the word itself
        codes = [c for c in codes if c not in leads]
        found.extend(codes)
    found.sort(key=spec.letter_key(code_alphabet))
    return [codec.module_word(c) for c in found]
