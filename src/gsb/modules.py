"""Groebner-Shirshov machinery for free left modules over the free algebra.

Multiplication is one-sided, so a module word u*y is reducible by a
relation with leading word v*y exactly when v is a suffix of u; the only
composition between monic relations f and g arises when lead(f) = a*lead(g)
and equals f - a*g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .completion import (
    AddedRelation,
    CheckReport,
    CompletionReport,
    CompletionStatus,
    RemovedRelation,
)
from .errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    LimitError,
    NonMonicRelationError,
    ZeroPolynomialError,
)
from .orderings import ModuleTop
from .poly import ModuleElement, Polynomial, act
from .words import Alphabet, ModuleBasis, ModuleWord, Word


def compile_module_rules(relations, spec: ModuleTop, alphabet=None, basis=None):
    rules = []
    for idx, s in enumerate(relations):
        if alphabet is not None and s.alphabet != alphabet:
            raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        if basis is not None and s.basis != basis:
            raise BasisMismatchError(f"relation #{idx} lives over a different basis")
        if s.is_zero():
            raise NonMonicRelationError(idx, "zero relation")
        coeff, lead = s.leading(spec)
        if coeff != 1:
            raise NonMonicRelationError(idx)
        key = (lead.prefix.letters, lead.generator)
        tail = [(k, c) for k, c in s.raw_terms().items() if k != key]
        rules.append((key, tuple(tail)))
    return rules


def _suffix_match(u, gen, rules):
    """Lowest-index rule whose leading word right-divides u*gen."""
    for ridx, ((v, g), _tail) in enumerate(rules):
        if g == gen and len(v) <= len(u) and u[len(u) - len(v) :] == v:
            return ridx
    return None


def _module_reduce(terms, rules, keyf, steps=None):
    work = dict(terms)
    keys = {k: keyf(k) for k in work}
    out = {}
    while work:
        k = max(work, key=keys.__getitem__)
        c = work.pop(k)
        u, gen = k
        ridx = _suffix_match(u, gen, rules)
        if ridx is None:
            out[k] = out.get(k, Fraction(0)) + c
            continue
        (v, _g), tail = rules[ridx]
        a = u[: len(u) - len(v)]
        if steps is not None:
            steps.append((ridx, a, k, c))
        for (tw, tg), tc in tail:
            k2 = (a + tw, tg)
            nv = work.get(k2, Fraction(0)) - c * tc
            if nv:
                work[k2] = nv
                if k2 not in keys:
                    keys[k2] = keyf(k2)
            else:
                work.pop(k2, None)
    return {k: c for k, c in out.items() if c}


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
        total = self.residual
        for s in self.steps:
            total = total + act(
                Polynomial.from_word(s.left, s.coefficient), relations[s.rule]
            )
        return total


def module_nf(m: ModuleElement, relations, spec: ModuleTop) -> ModuleElement:
    rules = compile_module_rules(relations, spec, m.alphabet, m.basis)
    keyf = spec.module_key(m.alphabet)
    return ModuleElement(m.alphabet, m.basis, _module_reduce(m.raw_terms(), rules, keyf))


def module_nf_with_trace(m: ModuleElement, relations, spec: ModuleTop):
    rules = compile_module_rules(relations, spec, m.alphabet, m.basis)
    keyf = spec.module_key(m.alphabet)
    raw = []
    nf = ModuleElement(
        m.alphabet, m.basis, _module_reduce(m.raw_terms(), rules, keyf, steps=raw)
    )
    steps = tuple(
        ModuleReductionStep(
            ridx,
            Word(m.alphabet, a),
            ModuleWord(Word(m.alphabet, k[0]), m.basis, k[1]),
            c,
        )
        for ridx, a, k, c in raw
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
    rules = compile_module_rules(relations, spec)
    if not relations:
        return []
    alphabet = relations[0].alphabet
    basis = relations[0].basis
    out = []
    for i, ((uf, gf), _tf) in enumerate(rules):
        for j, ((ug, gg), _tg) in enumerate(rules):
            if i == j or gf != gg:
                continue
            if len(ug) > len(uf):
                continue
            if len(ug) == len(uf) and not (uf == ug and i < j):
                continue
            if uf[len(uf) - len(ug) :] != ug:
                continue
            out.append(
                ModuleAmbiguity(
                    i,
                    j,
                    Word(alphabet, uf[: len(uf) - len(ug)]),
                    ModuleWord(Word(alphabet, uf), basis, gf),
                )
            )
    keyf = spec.module_key(alphabet)
    out.sort(key=lambda amb: (keyf((amb.w.prefix.letters, amb.w.generator)), amb.f_index, amb.g_index))
    return out


def module_composition(f: ModuleElement, g: ModuleElement, a: Word) -> ModuleElement:
    """The module composition f - a*g; leading terms cancel for monic inputs."""
    return f - act(Polynomial.from_word(a), g)


def _trace_decomposition(trace: ModuleReductionTrace, pool):
    return tuple(
        (s.coefficient, s.left, pool[s.rule]) for s in trace.steps
    )


def _interreduce(rels, spec, removed_log) -> bool:
    changed_any = False
    i = 0
    while i < len(rels):
        r = rels[i]
        others = rels[:i] + rels[i + 1 :]
        if not others:
            break
        nf, trace = module_nf_with_trace(r, others, spec)
        if nf == r:
            i += 1
            continue
        changed_any = True
        decomposition = _trace_decomposition(trace, others)
        if nf.is_zero():
            removed_log.append(RemovedRelation(r, nf, None, decomposition))
            del rels[i]
        else:
            monic = nf.make_monic(spec)
            removed_log.append(RemovedRelation(r, nf, monic, decomposition))
            rels[i] = monic
        i = 0
    return changed_any


def _amb_cache_key(amb: ModuleAmbiguity, rels):
    return (rels[amb.f_index], rels[amb.g_index], amb.a.letters)


def module_complete(
    relations, spec: ModuleTop, max_deg: int = 12, max_steps: int = 10_000
) -> CompletionReport:
    """Shirshov completion transported to module elements."""
    if max_deg <= 0 or max_steps <= 0:
        raise LimitError(
            f"max_deg and max_steps must be positive, got {max_deg} and {max_steps}"
        )
    for idx, s in enumerate(relations):
        if s.is_zero():
            raise ZeroPolynomialError(f"relation #{idx} is zero")
    input_size = len(relations)
    rels = [s.make_monic(spec) for s in relations]
    removed: list[RemovedRelation] = []
    added: list[AddedRelation] = []
    nontrivial_log = []
    sort_key = None
    if rels:
        keyf = spec.module_key(rels[0].alphabet)
        sort_key = lambda m: keyf(max(m.raw_terms(), key=keyf))
        rels.sort(key=sort_key)
    _interreduce(rels, spec, removed)
    if sort_key:
        rels.sort(key=sort_key)
    trivial_cache = set()
    processed = 0
    status = None
    degree_bound = None
    while True:
        ambiguities = module_ambiguities(rels, spec)
        fresh = [a for a in ambiguities if _amb_cache_key(a, rels) not in trivial_cache]
        todo = [a for a in fresh if a.degree <= max_deg]
        if not todo:
            if fresh:
                status = CompletionStatus.COMPLETE_UP_TO_DEGREE
                degree_bound = max_deg
            else:
                status = CompletionStatus.CERTIFIED_GSB
            break
        exhausted = False
        mutated = False
        for amb in todo:
            if processed >= max_steps:
                exhausted = True
                break
            processed += 1
            f, g = rels[amb.f_index], rels[amb.g_index]
            h = module_composition(f, g, amb.a)
            nf, trace = module_nf_with_trace(h, rels, spec)
            if nf.is_zero():
                trivial_cache.add(_amb_cache_key(amb, rels))
                continue
            nontrivial_log.append((amb, nf))
            monic = nf.make_monic(spec)
            added.append(
                AddedRelation(monic, nf, amb, f, g, _trace_decomposition(trace, rels))
            )
            rels.append(monic)
            _interreduce(rels, spec, removed)
            rels.sort(key=sort_key)
            mutated = True
            break
        if exhausted:
            status = CompletionStatus.BUDGET_EXHAUSTED
            break
        if not mutated:
            continue
    return CompletionReport(
        status=status,
        degree_bound=degree_bound,
        input_size=input_size,
        relations=tuple(rels),
        added=tuple(added),
        removed=tuple(removed),
        processed=processed,
        nontrivial_log=tuple(nontrivial_log),
        ordering=spec,
    )


def module_check_gsb(relations, spec: ModuleTop, max_deg: int | None = None) -> CheckReport:
    """Evaluate every module composition; empty and unskipped = certificate."""
    rels = list(relations)
    nontrivial = []
    evaluated = 0
    skipped = 0
    for amb in module_ambiguities(rels, spec):
        if max_deg is not None and amb.degree > max_deg:
            skipped += 1
            continue
        evaluated += 1
        h = module_composition(rels[amb.f_index], rels[amb.g_index], amb.a)
        nf = module_nf(h, rels, spec)
        if not nf.is_zero():
            nontrivial.append((amb, nf))
    return CheckReport(
        relations=tuple(rels),
        ordering=spec,
        max_deg=max_deg,
        nontrivial=tuple(nontrivial),
        evaluated=evaluated,
        skipped=skipped,
    )


def module_irr(
    alphabet: Alphabet, basis: ModuleBasis, relations, spec: ModuleTop, max_deg: int
) -> list[ModuleWord]:
    """Irreducible module words of prefix degree <= max_deg, ascending."""
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    rules = compile_module_rules(relations, spec, alphabet, basis)
    keyf = spec.module_key(alphabet)
    found = []
    prefixes = [()]
    for _deg in range(max_deg + 1):
        for u in prefixes:
            for gen in range(basis.size):
                if _suffix_match(u, gen, rules) is None:
                    found.append((u, gen))
        prefixes = [u + (c,) for u in prefixes for c in range(alphabet.size)]
    found.sort(key=keyf)
    return [ModuleWord(Word(alphabet, u), basis, g) for u, g in found]
