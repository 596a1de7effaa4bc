"""Reduction to normal form, irreducible words, and the dimension oracle.

The deterministic reduction strategy: rewrite the ordering-greatest
reducible word of the support; among occurrences inside it take the
leftmost; among rules matching there take the lowest index.  For a
certified basis the result is strategy-independent; the fixed strategy
makes traces reproducible.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    AlphabetMismatchError,
    CapacityError,
    LimitError,
    NonMonicRelationError,
    UncertifiedBasisError,
)
from .poly import Polynomial
from .words import Alphabet, Word

DEFAULT_WORD_CAPACITY = 20_000
_CAPACITY_ENV = "GSB_MAX_WORDS"


def compile_rules(relations, spec, alphabet=None):
    """Check monicity and split each relation into (leading word, tail)."""
    rules = []
    for idx, s in enumerate(relations):
        if alphabet is not None and s.alphabet != alphabet:
            raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        if s.is_zero():
            raise NonMonicRelationError(idx, "zero relation")
        coeff, lead = s.leading(spec)
        if coeff != 1:
            raise NonMonicRelationError(idx)
        tail = [(w, c) for w, c in s.raw_terms().items() if w != lead.letters]
        rules.append((lead.letters, tuple(tail)))
    return rules


def _find_first(u, lead):
    n = len(lead)
    if n == 0:
        return 0
    if n > len(u):
        return None
    first = lead[0]
    for i in range(len(u) - n + 1):
        if u[i] == first and u[i : i + n] == lead:
            return i
    return None


def _leftmost_match(u, rules):
    best = None
    for ridx, (lead, _tail) in enumerate(rules):
        pos = _find_first(u, lead)
        if pos is not None and (best is None or (pos, ridx) < best):
            best = (pos, ridx)
    return best


def _all_matches(u, rules):
    out = []
    for ridx, (lead, _tail) in enumerate(rules):
        n = len(lead)
        if n == 0:
            out.extend((i, ridx) for i in range(len(u) + 1))
            continue
        for i in range(len(u) - n + 1):
            if u[i : i + n] == lead:
                out.append((i, ridx))
    return out


def _reduce(terms, rules, keyf, steps=None):
    """Core rewriting loop over raw term dicts; returns the normal form map."""
    work = dict(terms)
    keys = {w: keyf(w) for w in work}
    out = {}
    while work:
        u = max(work, key=keys.__getitem__)
        c = work.pop(u)
        hit = _leftmost_match(u, rules)
        if hit is None:
            out[u] = out.get(u, Fraction(0)) + c
            continue
        pos, ridx = hit
        lead, tail = rules[ridx]
        a, b = u[:pos], u[pos + len(lead) :]
        if steps is not None:
            steps.append((ridx, a, b, u, c))
        for t, tc in tail:
            w2 = a + t + b
            v = work.get(w2, Fraction(0)) - c * tc
            if v:
                work[w2] = v
                if w2 not in keys:
                    keys[w2] = keyf(w2)
            else:
                work.pop(w2, None)
    return {w: c for w, c in out.items() if c}


def _reduce_random(terms, rules, rng):
    work = dict(terms)
    while True:
        reducible = []
        for u in work:
            ms = _all_matches(u, rules)
            if ms:
                reducible.append((u, ms))
        if not reducible:
            return {w: c for w, c in work.items() if c}
        u, ms = reducible[rng.randrange(len(reducible))]
        pos, ridx = ms[rng.randrange(len(ms))]
        c = work.pop(u)
        lead, tail = rules[ridx]
        a, b = u[:pos], u[pos + len(lead) :]
        for t, tc in tail:
            w2 = a + t + b
            v = work.get(w2, Fraction(0)) - c * tc
            if v:
                work[w2] = v
            else:
                work.pop(w2, None)


@dataclass(frozen=True)
class ReductionStep:
    rule: int
    left: Word
    right: Word
    rewritten: Word
    coefficient: Fraction


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable record of one reduction run.

    The input decomposes exactly as
    ``input = residual + sum(coeff * left * s[rule] * right)`` with every
    rewritten word bounded by the input's leading word.
    """

    steps: tuple[ReductionStep, ...]
    residual: Polynomial

    def decomposition(self) -> tuple[tuple[Fraction, Word, int, Word], ...]:
        return tuple((s.coefficient, s.left, s.rule, s.right) for s in self.steps)

    def reconstruct(self, relations) -> Polynomial:
        """Replay the decomposition; equals the original input exactly."""
        total = self.residual
        for s in self.steps:
            total = total + (
                Polynomial.from_word(s.left, s.coefficient)
                * relations[s.rule]
                * Polynomial.from_word(s.right)
            )
        return total


def normal_form(p: Polynomial, relations, spec) -> Polynomial:
    """Reduce ``p`` modulo monic relations; the result avoids every leading word."""
    rules = compile_rules(relations, spec, p.alphabet)
    keyf = spec.letter_key(p.alphabet)
    nf = _reduce(p.raw_terms(), rules, keyf)
    return Polynomial(p.alphabet, nf)


def normal_form_with_trace(p: Polynomial, relations, spec) -> tuple[Polynomial, ReductionTrace]:
    rules = compile_rules(relations, spec, p.alphabet)
    keyf = spec.letter_key(p.alphabet)
    raw_steps = []
    nf = Polynomial(p.alphabet, _reduce(p.raw_terms(), rules, keyf, steps=raw_steps))
    A = p.alphabet
    steps = tuple(
        ReductionStep(ridx, Word(A, a), Word(A, b), Word(A, u), c)
        for ridx, a, b, u, c in raw_steps
    )
    return nf, ReductionTrace(steps, nf)


def normal_form_random(p: Polynomial, relations, spec, rng: random.Random) -> Polynomial:
    """Randomized-strategy reduction, for confluence cross-checks."""
    rules = compile_rules(relations, spec, p.alphabet)
    return Polynomial(p.alphabet, _reduce_random(p.raw_terms(), rules, rng))


def irr_words(alphabet: Alphabet, relations, spec, max_deg: int) -> list[Word]:
    """All words of degree <= max_deg avoiding every leading word as a subword.

    Returned in increasing order under the given ordering; includes the
    empty word (the algebra unit) whenever it is irreducible.
    """
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    rules = compile_rules(relations, spec, alphabet)
    leads = [lead for lead, _ in rules]
    if any(len(lead) == 0 for lead in leads):
        return []  # the unit is in the ideal: nothing is irreducible
    keyf = spec.letter_key(alphabet)
    found = [()]
    frontier = [()]
    for _deg in range(max_deg):
        new_frontier = []
        for w in frontier:
            for letter in range(alphabet.size):
                cand = w + (letter,)
                # only a suffix ending at the new letter can newly match
                if any(
                    len(lead) <= len(cand) and cand[len(cand) - len(lead) :] == lead
                    for lead in leads
                ):
                    continue
                new_frontier.append(cand)
        frontier = new_frontier
        found.extend(frontier)
    found.sort(key=keyf)
    return [Word(alphabet, w) for w in found]


def word_capacity() -> int:
    env = os.environ.get(_CAPACITY_ENV)
    if not env:
        return DEFAULT_WORD_CAPACITY
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise LimitError(f"{_CAPACITY_ENV} must be a positive integer, got {env!r}")
    return cap


def _eliminate(row, pivots, keyf):
    """Gaussian step against the running pivot set; True if rank grew."""
    while row:
        m = max(row, key=keyf)
        piv = pivots.get(m)
        if piv is None:
            c = row[m]
            if c != 1:
                row = {w: v / c for w, v in row.items()}
            pivots[m] = row
            return True
        c = row.pop(m)
        for w, v in piv.items():
            if w == m:
                continue
            nv = row.get(w, Fraction(0)) - c * v
            if nv:
                row[w] = nv
            else:
                row.pop(w, None)
    return False


def quotient_dim_oracle(
    alphabet: Alphabet, relations, spec, max_deg: int, capacity: int | None = None
) -> int:
    """Dimension of span(words of degree <= max_deg) modulo the relation span.

    Computed by exact Gaussian elimination over ``Fraction`` rows a*s*b
    with deg(a*lead(s)*b) <= max_deg; each new pivot row is divided by its
    leading coefficient.  Independent of the rewriting engine; used
    as the oracle for irr_words counts on certified bases.
    """
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    k = alphabet.size
    nwords = sum(k**d for d in range(max_deg + 1))
    cap = capacity if capacity is not None else word_capacity()
    if nwords > cap:
        raise CapacityError(
            f"{nwords} words of degree <= {max_deg} exceed the capacity {cap}"
        )
    rules = compile_rules(relations, spec, alphabet)
    keyf = spec.letter_key(alphabet)
    # every term must fit inside the bounded span for the quotient to make sense
    for idx, s in enumerate(relations):
        lead_len = len(rules[idx][0])
        if any(len(w) > lead_len for w in s.raw_terms()):
            raise LimitError(
                "oracle needs relations whose leading word has maximal degree"
            )
    pivots = {}
    rank = 0
    letters = range(k)
    for idx, s in enumerate(relations):
        terms = list(s.raw_terms().items())
        lead_len = len(rules[idx][0])
        for total in range(max_deg - lead_len + 1):
            for da in range(total + 1):
                for a in product(letters, repeat=da):
                    for b in product(letters, repeat=total - da):
                        row = {a + w + b: c for w, c in terms}
                        if _eliminate(row, pivots, keyf):
                            rank += 1
    return nwords - rank


@dataclass(frozen=True)
class GsbCertificate:
    """Proof token that a relation set had every composition reduce to zero."""

    relations: tuple[Polynomial, ...]
    ordering: object
    source: str = "check"


def is_member(f: Polynomial, basis: GsbCertificate) -> bool:
    """Decide membership of ``f`` in the ideal of a certified basis."""
    if not isinstance(basis, GsbCertificate):
        raise UncertifiedBasisError(
            "ideal membership is only decidable against a certified basis"
        )
    return normal_form(f, basis.relations, basis.ordering).is_zero()
