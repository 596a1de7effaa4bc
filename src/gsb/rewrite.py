"""Reduction to normal form, irreducible words, and the dimension oracle.

The deterministic reduction strategy: rewrite the ordering-greatest
reducible word of the support; among occurrences inside it take the
leftmost; among rules matching there take the lowest index.  For a
certified basis the result is strategy-independent; the fixed strategy
makes traces reproducible.

A relation set is compiled once, into a ``RuleSet``: ``_checked`` checks
that each relation is nonzero, monic and over one alphabet and reads its
lead (``Polynomial._lead_letters``), ``_Rule`` builds its primitive integer
row ``p*lead + tail``, and ``_RuleIndex``, the letter trie of the leads,
finds the leftmost redex of a word in a few letter-keyed probes per
position.  Every normal form, composition check (``completion._Scan``) and
certificate (``GsbCertificate``, which runs that check when it is made)
reduces through one; a free ``normal_form`` builds a fresh set per call,
so a caller with many polynomials builds one set and reduces them all by
it.  ``_reduce`` takes pseudo-remainder steps on integers (Knuth, TAOCP
vol. 2, §4.6.1), so values become ``Fraction`` only where they leave the
loop, and ``_reduced`` records the first word of its output as the lead.
The completion engine keeps one index over its working set and updates it
as relations enter and leave.

Irreducible words are listed and counted through ``_LeadAutomaton``, the
Aho–Corasick automaton of the leads, whose states form the Ufnarovski
graph: ``irr_words``, ``irr_counts`` and the oracle read leads alone from
``_checked`` and build no tail.

The randomized cross-check (``normal_form_random``) builds its own
``Fraction`` tails and scans every rule by brute force, and the dimension
oracle (``quotient_dims``) is plain linear algebra on rows of its own
numbered words, with no index and no reduction step.  So both stay
independent of the index and of the rules' integer rows.
"""

from __future__ import annotations

import os
import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    AlphabetMismatchError,
    CapacityError,
    LimitError,
    NonMonicRelationError,
    UncertifiedBasisError,
)
from .orderings import DegLex
from .poly import Polynomial, _int_of_digits
from .words import Alphabet, Word, _set_word_alphabet, _set_word_letters, _trusted_word

DEFAULT_WORD_CAPACITY = 20_000
_CAPACITY_ENV = "GSB_MAX_WORDS"


def _checked(relations, spec, alphabet=None):
    """Yield ``(terms, lead)`` of each relation: its raw term map and its
    greatest word, after checking that it is over ``alphabet``, nonzero and
    monic."""
    keyed = keyf = None
    for idx, s in enumerate(relations):
        if alphabet is not None and s.alphabet is not alphabet and s.alphabet != alphabet:
            raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        terms = s.raw_terms()
        if not terms:
            raise NonMonicRelationError(idx, "zero relation")
        if s.alphabet is not keyed:
            keyed, keyf = s.alphabet, spec.letter_key(s.alphabet)
        lead = s._lead_letters(spec, keyf)
        if terms[lead] != 1:
            raise NonMonicRelationError(idx)
        yield terms, lead


def _rank(rule):
    return rule.rank


def _integer_row(pairs):
    """``(p, integer pairs)`` of rational ``(word, coefficient)`` pairs: ``p``
    is the lcm of the denominators, and each coefficient is scaled by it."""
    pairs = tuple(pairs)
    p = lcm(*[c.denominator for _w, c in pairs])
    return p, tuple([(w, c.numerator * (p // c.denominator)) for w, c in pairs])


class _Rule:
    """The integer row ``p*lead + tail`` of the monic relation with term
    map ``terms``, ``lead + tail/p``; ``p`` is the lcm of the denominators
    of the monic form, so the row is primitive.  A public call ranks its
    rules by relation index, the completion engine by place in its set.
    """

    __slots__ = ("lead", "tail", "rank", "p")

    def __init__(self, terms, lead, rank=None):
        self.lead = lead
        self.p, self.tail = _integer_row([(w, c) for w, c in terms.items() if w != lead])
        self.rank = rank


def compile_rules(relations, spec, alphabet=None) -> list:
    """The integer-row ``_Rule`` of each checked relation, ranked by position."""
    checked = _checked(relations, spec, alphabet)
    return [_Rule(terms, lead, idx) for idx, (terms, lead) in enumerate(checked)]


class _RuleIndex:
    """The leading words of a rule set, in their letter trie.

    ``trie`` has one node per prefix of a lead, its root the empty prefix.
    A node is a list ``[children, held, below]``: ``children`` maps a letter
    to the node one letter longer, ``held`` is None where no lead ends and
    otherwise lists the rules whose lead ends at the node, lowest rank
    first, and ``below`` lists, in no particular order, the rules whose lead
    has the node's prefix as a proper prefix.  A node with no child and no
    rule is pruned.  Each rule is a ``_Rule``; ranks are distinct, lower
    first, and may change only while no lead has two rules.
    """

    __slots__ = ("trie",)

    def __init__(self, rules=()):
        self.trie = [{}, None, []]
        for rule in rules:
            self.add(rule)

    def add(self, rule) -> None:
        node = self.trie
        for c in rule.lead:
            children, _, below = node
            below.append(rule)
            node = children.get(c)
            if node is None:
                children[c] = node = [{}, None, []]
        if node[1] is None:
            node[1] = [rule]
        else:
            insort(node[1], rule, key=_rank)

    def discard(self, rule) -> None:
        lead = rule.lead
        path = [self.trie]
        for c in lead:
            children, _, below = path[-1]
            below.remove(rule)
            path.append(children[c])
        held = path[-1][1]
        held.remove(rule)
        if held:
            return
        path[-1][1] = None
        # prune the nodes left with no child and no rule, deepest first
        for depth in range(len(lead), 0, -1):
            children, held, _ = path[depth]
            if children or held is not None:
                break
            del path[depth - 1][0][lead[depth - 1]]

    def extending(self, prefix):
        """The rules whose lead has ``prefix`` as a proper prefix."""
        node = self.trie
        for c in prefix:
            node = node[0].get(c)
            if node is None:
                return ()
        return node[2]

    def factors(self, u):
        """``(start, end, rules)`` of each factor ``u[start:end]`` that is a
        lead, the empty factor included, by start and then end; ``rules``
        are the rules with that lead, lowest rank first."""
        n = len(u)
        for start in range(n + 1):
            node = self.trie
            end = start
            while True:
                children, held, _ = node
                if held is not None:
                    yield start, end, held
                if end == n:
                    break
                node = children.get(u[end])
                if node is None:
                    break
                end += 1

    def leftmost(self, u):
        """``(position, rule)`` of the leftmost redex in ``u``, taking the
        lowest rank among the rules matching there.

        From each position the trie is walked one letter at a time while
        the letters read are a proper prefix of some lead, so most positions
        cost one lookup.
        """
        root, empty, _ = self.trie
        # the empty lead matches at position 0 of every word
        best = None if empty is None else empty[0]
        n = len(u)
        for i in range(n + 1):
            children = root
            j = i
            while j < n:
                node = children.get(u[j])
                if node is None:
                    break
                children, held, _ = node
                if held is not None:
                    rule = held[0]
                    if best is None or rule.rank < best.rank:
                        best = rule
                j += 1
            if best is not None:
                return i, best
        return None


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


# the bits the scale of a reduction may grow by between two content removals
_CONTENT_BITS = 64


def _reduce(terms, scale, index, keyf, steps=None):
    """Core rewriting loop; returns the normal form of ``terms / scale``.

    ``terms`` maps words to integers and is consumed.  The work is an
    integer map W and a scale S and stands for W/S.  A step on the word u,
    with W[u] = c, by a rule with integer row ``p*lead + tail`` takes
    g = gcd(c, p), multiplies W and S by p/g and subtracts (c/g)*a*tail*b:
    the pseudo-remainder step.  Scaling changes no zero test and no key,
    so every step is the one the rational reduction takes.  When S has
    grown by ``_CONTENT_BITS`` bits, the content of W and S is divided out.

    Rewrites by every rule of ``index``; each step is recorded in
    ``steps`` as (rule, left, right, rewritten word, c, S), whose
    coefficient is c/S.  The normal form maps each word to its
    ``Fraction``; a word leaves the work once, so nothing is summed.

    Words leave the work greatest first, and a step only brings in words
    below the one it rewrites, so the normal form lists its words in
    strictly descending order: its first word is its lead (``_reduced``).
    """
    work = terms
    keys = {w: keyf(w) for w in work}
    out = {}
    leftmost = index.leftmost
    limit = scale.bit_length() + _CONTENT_BITS
    while work:
        u = max(work, key=keys.__getitem__)
        c = work.pop(u)
        hit = leftmost(u)
        if hit is None:
            out[u] = Fraction(c, scale)
            continue
        pos, rule = hit
        a, b = u[:pos], u[pos + len(rule.lead) :]
        if steps is not None:
            steps.append((rule, a, b, u, c, scale))
        p = rule.p
        if p != 1:
            g = gcd(c, p)
            c //= g
            m = p // g
            if m != 1:
                for w in work:
                    work[w] *= m
                scale *= m
        for t, tc in rule.tail:
            w2 = a + t + b
            v = work.get(w2, 0) - c * tc
            if v:
                work[w2] = v
                if w2 not in keys:
                    keys[w2] = keyf(w2)
            else:
                work.pop(w2, None)
        if scale.bit_length() > limit:
            g = scale
            for v in work.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g != 1:
                for w in work:
                    work[w] //= g
                scale //= g
            limit = scale.bit_length() + _CONTENT_BITS
    return out


def _reduce_random(terms, rules, rng):
    """Rewrite a randomly chosen redex until none is left.

    Matches by a brute-force scan of every rule, not by the index, so it
    cross-checks the indexed reduction independently.
    """
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


def _replay(residual, decomposition):
    """residual + sum(coeff * a * s * b); module entries (coeff, a, s) have no b."""
    total = residual
    for coeff, a, s, *right in decomposition:
        term = Polynomial.from_word(a, coeff) * s
        for b in right:
            term = term * Polynomial.from_word(b)
        total = total + term
    return total


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
        steps = ((s.coefficient, s.left, relations[s.rule], s.right) for s in self.steps)
        return _replay(self.residual, steps)


def _reduced(alphabet: Alphabet, nf: dict, spec) -> Polynomial:
    """The output of ``_reduce`` under the ordering ``spec`` as a polynomial,
    which records its first word as its lead: no word comes before it."""
    for lead in nf:
        return Polynomial._of(alphabet, nf, spec, lead)
    return Polynomial._of(alphabet, nf)


class RuleSet:
    """A relation set compiled once, for any number of normal forms: its
    relations, checked nonzero, monic and over the alphabet of the first,
    as ``_Rule``s ranked by index, their ``_RuleIndex`` and the letter key.
    A polynomial it reduces must be over that alphabet."""

    def __init__(self, relations, ordering):
        self.relations = tuple(relations)
        self.ordering = ordering
        self.alphabet = A = self.relations[0].alphabet if self.relations else None
        self.rules = compile_rules(self.relations, ordering, A)
        self.index = _RuleIndex(self.rules)
        self.keyf = None if A is None else ordering.letter_key(A)

    def _nf(self, p: Polynomial, steps=None) -> Polynomial:
        """``p`` reduced by the set, scaled to integers on the way in."""
        A, keyf = self.alphabet, self.keyf
        if A is None:
            keyf = self.ordering.letter_key(p.alphabet)
        elif p.alphabet is not A and p.alphabet != A:
            raise AlphabetMismatchError("the polynomial lives over a different alphabet")
        scale, terms = _integer_row(p.raw_terms().items())
        nf = _reduce(dict(terms), scale, self.index, keyf, steps)
        return _reduced(p.alphabet, nf, self.ordering)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Reduce ``p`` by the set; the result avoids every leading word."""
        return self._nf(p)

    def normal_form_with_trace(self, p: Polynomial) -> tuple[Polynomial, ReductionTrace]:
        """``normal_form(p)`` and the replayable record of its steps."""
        raw_steps, A, word = [], p.alphabet, _trusted_word
        nf = self._nf(p, raw_steps)
        steps = tuple(
            ReductionStep(rule.rank, word(A, a), word(A, b), word(A, u), Fraction(c, scale))
            for rule, a, b, u, c, scale in raw_steps
        )
        return nf, ReductionTrace(steps, nf)


def normal_form(p: Polynomial, relations, spec) -> Polynomial:
    """Reduce ``p`` modulo monic relations; the result avoids every leading word."""
    return RuleSet(relations, spec).normal_form(p)


def normal_form_with_trace(p: Polynomial, relations, spec) -> tuple[Polynomial, ReductionTrace]:
    return RuleSet(relations, spec).normal_form_with_trace(p)


def normal_form_random(p: Polynomial, relations, spec, rng: random.Random) -> Polynomial:
    """Randomized-strategy reduction, for confluence cross-checks."""
    rules = [
        (lead, tuple((w, c) for w, c in terms.items() if w != lead))
        for terms, lead in _checked(relations, spec, p.alphabet)
    ]
    return Polynomial._of(p.alphabet, _reduce_random(p.raw_terms(), rules, rng))


class _LeadAutomaton:
    """Aho–Corasick automaton over a set of leading words, built lazily.

    A state is the longest suffix of the word read so far that is a proper
    prefix of some lead; state 0 is the empty suffix.  The row of a state
    lists ``(letter tuple, next state)`` for each letter, in the order of
    ``letters``, whose appending leaves no lead as a suffix; the letters
    that complete a lead are left out.  Rows are built by ``grow``, only
    for states a word has reached, and the set of proper lead prefixes on
    its first call, so a listing of degree 0 builds none.
    """

    __slots__ = ("leads", "prefixes", "letters", "suffixes", "ids", "rows")

    def __init__(self, leads, letters):
        self.leads = leads
        self.prefixes = None
        self.letters = letters
        self.suffixes = [()]
        self.ids = {(): 0}
        self.rows = []

    def grow(self) -> list:
        """Build the rows of the states found since the last call; the rows."""
        if self.prefixes is None:
            self.prefixes = {lead[:o] for lead in self.leads for o in range(len(lead))}
        rows = self.rows
        for s in range(len(rows), len(self.suffixes)):
            rows.append(self._row(self.suffixes[s]))
        return rows

    def _row(self, suffix):
        # a lead or lead prefix ending at the new letter x is x after a proper
        # prefix of that lead, which is a suffix of ``suffix``: the suffixes
        # of suffix + x are the only candidates
        leads, prefixes, ids, suffixes = self.leads, self.prefixes, self.ids, self.suffixes
        row = []
        for x in self.letters:
            t = suffix + (x,)
            state = ()
            for i in range(len(t)):
                u = t[i:]
                if u in leads:
                    break
                if not state and u in prefixes:
                    state = u
            else:
                n = ids.get(state)
                if n is None:
                    n = ids[state] = len(suffixes)
                    suffixes.append(state)
                row.append(((x,), n))
        return row


def _leads(alphabet, relations, spec):
    return {lead for _terms, lead in _checked(relations, spec, alphabet)}


def irr_words(alphabet: Alphabet, relations, spec, max_deg: int) -> list[Word]:
    """All words of degree <= max_deg avoiding every leading word as a subword.

    Returned in increasing order under the given ordering; includes the
    empty word (the algebra unit) whenever it is irreducible.

    Each degree extends the words of the one before through a
    ``_LeadAutomaton`` over the leads: a word carries its state, and one
    row lists the letters it may take, so extending costs no subword
    probe.  Letters are taken in descending index, the order deg-lex
    ranks them ascending, so under ``DegLex`` every degree comes out
    already sorted; other orderings sort the listing once.
    """
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    leads = _leads(alphabet, relations, spec)
    if () in leads:
        return []  # the unit is in the ideal: nothing is irreducible
    automaton = _LeadAutomaton(leads, range(alphabet.size - 1, -1, -1))
    found = [()]
    frontier = [((), 0)]
    for _ in range(max_deg):
        rows = automaton.grow()
        frontier = [(w + x, n) for w, s in frontier for x, n in rows[s]]
        found.extend(w for w, _s in frontier)
    if not isinstance(spec, DegLex):
        found.sort(key=spec.letter_key(alphabet))
    # one loop wraps the listing, as _trusted_word does, with its calls bound here
    new, set_alphabet, set_letters = object.__new__, _set_word_alphabet, _set_word_letters
    words = []
    for w in found:
        word = new(Word)
        set_alphabet(word, alphabet)
        set_letters(word, w)
        words.append(word)
    return words


def irr_counts(alphabet: Alphabet, relations, spec, max_deg: int) -> list[int]:
    """The number of irreducible words of each degree 0..max_deg.

    Entry ``d`` is the number of degree-``d`` words in ``irr_words``,
    counted by dynamic programming over the states of the same automaton
    (the Ufnarovski graph of the leads) without building a word.
    """
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    spec.letter_key(alphabet)  # rejects an ordering the alphabet lacks, as irr_words does
    leads = _leads(alphabet, relations, spec)
    if () in leads:
        return [0] * (max_deg + 1)
    automaton = _LeadAutomaton(leads, range(alphabet.size))
    weights = [1]  # words of the current degree ending in each state
    counts = [1]
    for _ in range(max_deg):
        rows = automaton.grow()
        nxt = [0] * len(automaton.suffixes)
        for s, c in enumerate(weights):
            if c:
                for _x, n in rows[s]:
                    nxt[n] += c
        weights = nxt
        counts.append(sum(weights))
    return counts


def word_capacity() -> int:
    """``GSB_MAX_WORDS`` when set: a string of ASCII digits, read as a
    relation line reads a coefficient; otherwise ``DEFAULT_WORD_CAPACITY``."""
    env = os.environ.get(_CAPACITY_ENV)
    if not env:
        return DEFAULT_WORD_CAPACITY
    cap = _int_of_digits(env) if env.isascii() and env.isdigit() else 0
    if cap <= 0:
        raise LimitError(f"{_CAPACITY_ENV} must be a positive integer, got {env!r}")
    return cap


def _eliminate(row, pivots):
    """Reduce an integer row against the pivot rows; True if it became one.

    Rows map word numbers to integers.  A pivot row is stored under its
    greatest word number as (leading coefficient, other entries), with the
    gcd of its entries divided out and a positive leading coefficient.
    Reducing ``c*m + rest`` by the pivot ``p*m + tail`` forms
    ``p'*rest - c'*tail`` with ``c', p'`` the two leading coefficients
    divided by their gcd.
    """
    while row:
        m = max(row)
        piv = pivots.get(m)
        if piv is None:
            g = gcd(*row.values())
            if row[m] < 0:
                g = -g
            if g != 1:
                row = {w: v // g for w, v in row.items()}
            lead = row.pop(m)
            pivots[m] = (lead, tuple(row.items()))
            return True
        c = row.pop(m)
        p, tail = piv
        if p != 1:
            g = gcd(c, p)
            c //= g
            p //= g
            if p != 1:
                for w in row:
                    row[w] *= p
        for w, v in tail:
            nv = row.get(w, 0) - c * v
            if nv:
                row[w] = nv
            elif w in row:
                del row[w]
    return False


def quotient_dims(
    alphabet: Alphabet, relations, spec, max_deg: int, capacity: int | None = None
) -> list[int]:
    """``quotient_dim_oracle`` at every degree 0..max_deg, from one elimination.

    Entry ``d`` is the dimension of span(words of degree <= d) modulo the
    span of the rows a*s*b with deg(a*lead(s)*b) <= d.  Rows are added in
    increasing degree and the running rank is read at each degree
    boundary; the rank of a set of rows does not depend on the order they
    are added in, so every entry is exact.

    Each relation is scaled once to integer coefficients by the lcm of its
    denominators, which leaves it primitive.  Words are numbered degree
    first and then lexicographically by letter index, and elimination runs
    on integer rows keyed by those numbers.  The greatest-numbered word of
    a scaled relation is its top, and since the numbering is kept by
    translation, the top of a*s*b is a*top*b; the relation is negated once
    if its top coefficient is negative.  A row whose top has no pivot yet
    is stored as the pivot of its top as it is, already primitive with a
    positive leading coefficient.  Any other row is reduced by
    cross-multiplication with the pivot of its greatest word, and one that
    becomes a pivot is divided by the gcd of its entries.

    Rows are taken in the order (degree, relation, |a|, num(a), num(b)).
    A row is dependent if it lies in the span of the rows before it, as
    one that reduces to zero does, and no row a*s*b is built whose row
    (a[1:], b) or (a, b[:-1]) of the same relation was dependent, since it
    is dependent too:

    1. the order is kept by translation: if row r comes before row r',
       then x*r*y comes before x*r'*y for all words x, y;
    2. so if r is a combination of the rows before it, x*r*y is one of
       their translates, which come before it and are of no greater degree;
    3. a*s*b is the translate of (a[1:], b) by the letter a[0] on the left
       and of (a, b[:-1]) by the letter b[-1] on the right.

    The pivot order changes no rank, so the ordering ``spec`` serves only
    to check monicity and find each leading word (through ``_checked``);
    nothing else is shared with the rewriting engine.
    """
    if max_deg < 0:
        raise LimitError(f"max_deg must be >= 0, got {max_deg}")
    k = alphabet.size
    cap = capacity if capacity is not None else word_capacity()
    # offsets[n]: the number of words of degree < n, the first number of degree n
    offsets = [0]
    for n in range(max_deg + 1):
        offsets.append(offsets[-1] + k**n)
        if offsets[-1] > cap:
            # the count stops at the first degree past the capacity, so it stays small
            bound = f"; max_deg is {max_deg}" if n < max_deg else ""
            raise CapacityError(
                f"{offsets[-1]} words of degree <= {n} exceed the capacity {cap}{bound}"
            )
    # (lead degree, number of the top word, top coefficient, [(degree, number, coefficient)]
    # of the other words), the top coefficient positive
    scaled = []
    # the whole set is checked before any relation is scaled
    for terms, lead in list(_checked(relations, spec, alphabet)):
        lead_len = len(lead)
        # every term must fit inside the bounded span for the quotient to make sense
        if any(len(w) > lead_len for w in terms):
            raise LimitError(
                "oracle needs relations whose leading word has maximal degree"
            )
        if lead_len > max_deg:
            continue  # yields no row within the bound
        den = lcm(*(c.denominator for c in terms.values()))
        ints = []
        for w, c in terms.items():
            num = 0
            for letter in w:  # letter index 0 is the greatest digit
                num = num * k + (k - 1 - letter)
            ints.append((len(w), num, c.numerator * (den // c.denominator)))
        # the top by word number: a tower lead can be another word of the top degree
        ints.sort()
        _n, top, top_c = ints.pop()
        if top_c < 0:
            top_c = -top_c
            ints = [(n, num, -c) for n, num, c in ints]
        scaled.append((lead_len, top, top_c, ints))
    pivots = {}
    dims = []
    # dead[i]: {(|a|, num(a)): {num(b)}} of the dependent rows a*s*b of the
    # i-th relation at the last degree reached
    dead = [{} for _ in scaled]
    for deg in range(max_deg + 1):
        for i, (lead_len, top, top_c, tail) in enumerate(scaled):
            extra = deg - lead_len
            if extra < 0:
                continue
            prev = dead[i]
            dead[i] = cur = {}
            for da in range(extra + 1):
                db = extra - da
                size_b = k**db
                size_a1 = k ** (da - 1) if da else 1
                # a*w*b is numbered offsets[|a*w*b|] + num(a)*k^(|w|+|b|) + num(w)*k^|b| + num(b)
                step = k ** (lead_len + db)
                top_head = offsets[deg] + top * size_b
                shifted = [
                    (offsets[da + n + db] + num * size_b, k ** (n + db), c)
                    for n, num, c in tail
                ]
                for na in range(k**da):
                    # the dependent rows (a[1:], b) and (a, b[:-1]) of the last degree;
                    # there is none if a, or b, is empty
                    left = prev.get((da - 1, na % size_a1))
                    right = prev.get((da, na))
                    dependent = set()
                    head = top_head + na * step
                    heads = [(b + na * s, c) for b, s, c in shifted]
                    for nb in range(size_b):
                        if (left and nb in left) or (right and nb // k in right):
                            dependent.add(nb)
                        elif head + nb not in pivots:
                            pivots[head + nb] = (top_c, tuple([(h + nb, c) for h, c in heads]))
                        else:
                            row = {h + nb: c for h, c in heads}
                            row[head + nb] = top_c
                            if not _eliminate(row, pivots):
                                dependent.add(nb)
                    if dependent:
                        cur[(da, na)] = dependent
        # the rank is the number of pivots
        dims.append(offsets[deg + 1] - len(pivots))
    return dims


def quotient_dim_oracle(
    alphabet: Alphabet, relations, spec, max_deg: int, capacity: int | None = None
) -> int:
    """Dimension of span(words of degree <= max_deg) modulo the relation span:
    the last entry of ``quotient_dims``, by exact elimination independent of
    the rewriting engine.  The oracle for irr_words counts on certified bases.
    """
    return quotient_dims(alphabet, relations, spec, max_deg, capacity)[-1]


class GsbCertificate(RuleSet):
    """A relation set certified as a Groebner-Shirshov basis, compiled once.

    It is checked when it is made: every composition of the set is reduced
    on its own compile, as ``check_gsb`` reduces them, and the first that
    does not reduce to zero raises ``UncertifiedBasisError``.  So every
    membership test against it reduces by the rules of a basis.
    """

    def __init__(self, relations, ordering):
        super().__init__(relations, ordering)
        from .completion import _all_overlaps, _nontrivial  # completion imports this module

        overlaps, _ = _all_overlaps(self.rules, self.index, self.keyf)
        for (_kind, i, j, *_), _nf in _nontrivial(self, overlaps):
            raise UncertifiedBasisError(
                f"not a Groebner-Shirshov basis: a composition of relations #{i} and #{j}"
                " does not reduce to zero"
            )


def is_member(f: Polynomial, basis: GsbCertificate) -> bool:
    """Decide membership of ``f`` in the ideal of a certified basis."""
    if not isinstance(basis, GsbCertificate):
        raise UncertifiedBasisError(
            "ideal membership is only decidable against a certified basis"
        )
    return basis.normal_form(f).is_zero()
