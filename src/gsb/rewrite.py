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
The overlaps of a compiled set (``_all_overlaps``) and their compositions
(``_compose``, f*b - a*g*c for both kinds; ``_nontrivial``) live here too,
so this module imports nothing from ``completion``, whose engine files
each relation under its lead and, in a second index, its reversed lead.

Inside the engine a word is a string, one character per letter
(``orderings._spelling``), whose hash is cached and whose deg-lex key is
``(len(s), s)`` (``orderings._spelled_key``).  Words are spelled once,
where they enter: the rules' leads and tails in ``compile_rules`` and the
input terms in ``RuleSet._nf``.  Rule words, the work and key maps of
``_reduce``, the trie, compositions and overlaps stay spelled, and words
are decoded to letter tuples only where they leave: ``_reduced``, the
steps of ``normal_form_with_trace``, and what ``completion`` logs.

Irreducible words are listed by ``irr_words`` one degree at a time, each
degree a sorted list of letter tuples cut into ranges by the rests of the
leads, and counted by ``irr_counts`` over ``_LeadAutomaton``, the
Aho–Corasick automaton of the leads, whose states form the Ufnarovski
graph.  Both, and the oracle, read leads alone from ``_checked`` and build
no tail.

The randomized cross-check (``normal_form_random``) builds its own
``Fraction`` tails and scans every rule by brute force, and the dimension
oracle (``quotient_dims``) is plain linear algebra on rows of its own
numbered words, with no index and no reduction step.  So both stay
independent of the index and of the rules' integer rows.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from operator import attrgetter

from .errors import (
    AlphabetMismatchError,
    CapacityError,
    LimitError,
    NonMonicRelationError,
    UncertifiedBasisError,
    _checked_limit,
    _digits,
)
from .orderings import DegLex, _spelled_key, _spelling
from .poly import Polynomial
from .words import Alphabet, Word, _trusted_word, _trusted_words

DEFAULT_WORD_CAPACITY = 20_000


def _checked(relations, spec, alphabet):
    """Yield ``(terms, lead)`` of each relation: its raw term map and its
    greatest word, after checking that it is over ``alphabet``, nonzero and
    monic."""
    keyed = keyf = None
    for idx, s in enumerate(relations):
        if s.alphabet is not alphabet and s.alphabet != alphabet:
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


_rank = attrgetter("rank")


def _integer_row(pairs):
    """``(p, integer pairs)`` of rational ``(word, coefficient)`` pairs: ``p``
    is the lcm of the denominators, and each coefficient is scaled by it."""
    pairs = tuple(pairs)
    p = lcm(*[c.denominator for _w, c in pairs])
    return p, tuple([(w, c.numerator * (p // c.denominator)) for w, c in pairs])


class _Rule:
    """The integer row ``p*lead + tail`` of the monic relation with term
    map ``terms``, ``lead + tail/p``, its words spelled (``terms`` may leave
    the lead out); ``p`` is the lcm of the denominators of the monic form,
    so the row is primitive.  A public call ranks its rules by relation
    index, the completion engine by place in its set.
    """

    __slots__ = ("lead", "tail", "rank", "p")

    def __init__(self, terms, lead, rank=None):
        self.lead = lead
        self.p, self.tail = _integer_row([(w, c) for w, c in terms.items() if w != lead])
        self.rank = rank


def compile_rules(relations, spec, alphabet=None) -> list:
    """The integer-row ``_Rule`` of each checked relation, ranked by position,
    its words spelled over ``alphabet`` (None: the first relation's)."""
    relations = tuple(relations)
    if not relations:
        return []
    if alphabet is None:
        alphabet = relations[0].alphabet
    spell = _spelling(alphabet.size)[0]
    return [
        _Rule({spell(w): c for w, c in terms.items() if w != lead}, spell(lead), idx)
        for idx, (terms, lead) in enumerate(_checked(relations, spec, alphabet))
    ]


class _RuleIndex:
    """Rules in a letter trie, filed under their leads or under the word
    given to ``add`` and ``discard`` (completion's second index files
    relations under their reversed leads).

    ``trie`` has one node per prefix of a filed word, its root the empty
    prefix.  A node is a list ``[children, held, below]``: ``children`` maps
    a letter (a character of the spelling) to the node one letter longer,
    ``held`` is None where no word ends and otherwise lists the rules filed
    under the node's word, lowest rank first, and ``below`` lists, in no
    particular order, the rules whose word has the node's prefix as a
    proper prefix.  A node with no child and no rule is pruned.  Each rule
    is a ``_Rule``; ranks are distinct, lower first, and may change only
    while no word has two rules.
    """

    __slots__ = ("trie",)

    def __init__(self, rules=()):
        self.trie = [{}, None, []]
        for rule in rules:
            self.add(rule)

    def add(self, rule, word=None) -> None:
        node = self.trie
        for c in rule.lead if word is None else word:
            children, _, below = node
            below.append(rule)
            node = children.get(c)
            if node is None:
                children[c] = node = [{}, None, []]
        if node[1] is None:
            node[1] = [rule]
        else:
            insort(node[1], rule, key=_rank)

    def discard(self, rule, word=None) -> None:
        word = rule.lead if word is None else word
        path = [self.trie]
        for c in word:
            children, _, below = path[-1]
            below.remove(rule)
            path.append(children[c])
        held = path[-1][1]
        held.remove(rule)
        if held:
            return
        path[-1][1] = None
        # prune the nodes left with no child and no rule, deepest first
        for depth in range(len(word), 0, -1):
            children, held, _ = path[depth]
            if children or held is not None:
                break
            del path[depth - 1][0][word[depth - 1]]

    def extending(self, prefix):
        """The rules filed under a word that has ``prefix`` as a proper prefix."""
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
        first = root.get
        # the empty lead matches at position 0 of every word
        best = None if empty is None else empty[0]
        n = len(u)
        for i, c in enumerate(u):
            node = first(c)
            j = i + 1
            while node is not None:
                children, held, _ = node
                if held is not None:
                    rule = held[0]
                    if best is None or rule.rank < best.rank:
                        best = rule
                if j == n:
                    break
                node = children.get(u[j])
                j += 1
            if best is not None:
                return i, best
        # only the empty lead matches in the empty word
        return None if best is None else (0, best)


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

    ``terms`` maps spelled words to integers and is consumed, and ``keyf``
    is the ordering's key on spellings.  The work is an
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


def _read_off(alphabet: Alphabet, decode, w, a, b) -> tuple[Word, Word, Word]:
    """The words w, a and b over ``alphabet`` from their spellings, where
    ``a`` is a prefix of ``w`` and ``b`` a suffix: only ``w`` is decoded."""
    u, word = decode(w), _trusted_word
    return word(alphabet, u), word(alphabet, u[: len(a)]), word(alphabet, u[len(u) - len(b) :])


def _reduced(alphabet: Alphabet, nf: dict, spec, decode) -> Polynomial:
    """The output of ``_reduce`` under the ordering ``spec`` as a polynomial,
    its words decoded by ``decode``, which records its first word as its
    lead: no word comes before it."""
    terms = {decode(w): c for w, c in nf.items()}
    for lead in terms:
        return Polynomial._of(alphabet, terms, spec, lead)
    return Polynomial._of(alphabet, terms)


class RuleSet:
    """A relation set compiled once, for any number of normal forms: its
    relations, checked nonzero, monic and over the alphabet of the first,
    as ``_Rule``s ranked by index, their ``_RuleIndex``, the spelling of
    that alphabet and the ordering's key on it.  A polynomial it reduces
    must be over that alphabet; the empty set takes the polynomial's."""

    def __init__(self, relations, ordering):
        self.relations = tuple(relations)
        self.ordering = ordering
        self.alphabet = A = self.relations[0].alphabet if self.relations else None
        self.rules = compile_rules(self.relations, ordering, A)
        self.index = _RuleIndex(self.rules)
        self.spell, self.decode = (None, None) if A is None else _spelling(A.size)
        self.keyf = None if A is None else _spelled_key(ordering, A)

    def _nf(self, p: Polynomial, steps=None) -> Polynomial:
        """``p`` reduced by the set, spelled and scaled to integers on the way in."""
        A, spell, decode, keyf = self.alphabet, self.spell, self.decode, self.keyf
        if A is None:
            A = p.alphabet
            (spell, decode), keyf = _spelling(A.size), _spelled_key(self.ordering, A)
        elif p.alphabet is not A and p.alphabet != A:
            raise AlphabetMismatchError("the polynomial lives over a different alphabet")
        scale, terms = _integer_row(p.raw_terms().items())
        nf = _reduce({spell(w): c for w, c in terms}, scale, self.index, keyf, steps)
        return _reduced(A, nf, self.ordering, decode)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Reduce ``p`` by the set; the result avoids every leading word."""
        return self._nf(p)

    def normal_form_with_trace(self, p: Polynomial) -> tuple[Polynomial, ReductionTrace]:
        """``normal_form(p)`` and the replayable record of its steps."""
        raw_steps, A, decode = [], p.alphabet, self.decode
        nf = self._nf(p, raw_steps)
        steps = []
        for rule, a, b, u, c, scale in raw_steps:
            # u = a*lead*b
            u, left, right = _read_off(A, decode, u, a, b)
            steps.append(ReductionStep(rule.rank, left, right, u, Fraction(c, scale)))
        return nf, ReductionTrace(tuple(steps), nf)


INTERSECTION = "intersection"
INCLUSION = "inclusion"


def _compose(f, g, w, start) -> tuple[dict, int]:
    """Integer terms and scale of the composition f*b - a*g*c of two rules
    with integer rows ``p*lead + tail`` on the word w = lead(f)*b =
    a*lead(g)*c, where a = w[:start]: an intersection has c empty, an
    inclusion b empty.

    The two leads cancel exactly, so only the tails are multiplied, each
    scaled to lcm(p_f, p_g), which is the scale of the result.
    """
    scale = lcm(f.p, g.p)
    mf, mg = scale // f.p, scale // g.p
    a, b, c = w[:start], w[len(f.lead) :], w[start + len(g.lead) :]
    h = {u + b: mf * coeff for u, coeff in f.tail}
    for u, coeff in g.tail:
        x = a + u + c
        v = h.get(x, 0) - mg * coeff
        if v:
            h[x] = v
        else:
            h.pop(x, None)
    return h, scale


def _all_overlaps(rules, index: _RuleIndex, keyf, max_deg=None) -> tuple[list, int]:
    """The ambiguities among the ranked ``rules``, which ``index`` holds, on
    at most ``max_deg`` letters, as raw ``(kind, i, j, w, a, b)`` sorted by
    (w, i, j, kind, len(a)), and the count of the rest, which are never built.
    Words are the rules' spellings, and ``keyf`` is the key on them.

    Intersections probe the index's trie with the proper suffixes of every
    lead; inclusions walk it from each position of every lead.  Equal leads
    count once, as an inclusion of the lower index pair.
    """
    found, skipped = [], 0
    for rule in rules:
        i, f = rule.rank, rule.lead
        nf = len(f)
        # an intersection at overlap o has |f| + |g| - o letters, an inclusion |f|
        room = (inf if max_deg is None else max_deg) - nf
        for o in range(1, nf):
            for other in index.extending(f[nf - o :]):
                if len(other.lead) - o > room:
                    skipped += 1
                else:
                    w, a, b = f + other.lead[o:], f[: nf - o], other.lead[o:]
                    found.append((keyf(w), i, other.rank, INTERSECTION, nf - o, w, a, b))
        for start, end, held in index.factors(f):
            for other in held:
                j = other.rank
                if i != j and (end - start < nf or i < j):
                    if room < 0:
                        skipped += 1
                    else:
                        found.append((keyf(f), i, j, INCLUSION, start, f, f[:start], f[end:]))
    found.sort(key=lambda e: e[:5])
    return [(kind, i, j, w, a, b) for _, i, j, kind, _, w, a, b in found], skipped


def _nontrivial(compiled: RuleSet, overlaps):
    """Yield ``(overlap, normal form)`` of each raw overlap of the compiled
    set whose composition does not reduce to zero by it, in order; the
    normal form is ``_reduce``'s, on spellings."""
    rules, index, keyf = compiled.rules, compiled.index, compiled.keyf
    for e in overlaps:
        _kind, i, j, w, a, _b = e
        nf = _reduce(*_compose(rules[i], rules[j], w, len(a)), index, keyf)
        if nf:
            yield e, nf


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
    """Aho–Corasick automaton over a set of leading words, built lazily, for
    counting irreducible words without listing them.

    A state is the longest suffix of the word read so far that is a proper
    prefix of some lead; ``ids`` numbers the states in the order they are
    reached, the empty suffix 0.  The row of a state lists the next state
    for each letter of a ``size``-letter alphabet whose appending leaves no
    lead as a suffix; the letters that complete a lead are left out.  Rows
    are built by ``grow``, only for states a word has reached.
    """

    __slots__ = ("leads", "prefixes", "size", "ids", "rows")

    def __init__(self, leads, size):
        self.leads = leads
        self.prefixes = {lead[:o] for lead in leads for o in range(len(lead))}
        self.size = size
        self.ids = {(): 0}
        self.rows = []

    def grow(self) -> list:
        """Build the rows of the states found since the last call; the rows."""
        leads, prefixes, ids, rows = self.leads, self.prefixes, self.ids, self.rows
        for suffix in list(ids)[len(rows) :]:
            # a lead or lead prefix ending at the new letter x is x after a proper
            # prefix of that lead, which is a suffix of ``suffix``: the suffixes
            # of suffix + x are the only candidates
            row = []
            for x in range(self.size):
                t = suffix + (x,)
                state = ()
                for i in range(len(t)):
                    u = t[i:]
                    if u in leads:
                        break
                    if not state and u in prefixes:
                        state = u
                else:
                    row.append(ids.setdefault(state, len(ids)))
            rows.append(row)
        return rows


def _leads(alphabet, relations, spec):
    return {lead for _terms, lead in _checked(relations, spec, alphabet)}


def irr_words(alphabet: Alphabet, relations, spec, max_deg: int) -> list[Word]:
    """All words of degree <= max_deg avoiding every leading word as a subword.

    Returned in increasing order under the given ordering; includes the
    empty word (the algebra unit) whenever it is irreducible.

    Each degree is built from the one before, kept as letter tuples in
    ascending tuple order.  A word x*w of degree d + 1 is irreducible
    exactly when w is irreducible and starts with no rest ``lead[1:]`` of a
    lead that begins with x: the irreducible words of degree d have no lead
    inside, so a lead can only sit at the front of x*w.  In the sorted level
    the words that start with a rest form one range, found by two
    bisections, so the block of x is the level less a few ranges, and each
    kept piece is prefixed with x at C speed, with no step per word in
    bytecode; a lead longer than max_deg never cuts.  The blocks of the
    letters in ascending index make the next level, again in ascending
    tuple order.  Deg-lex ranks a lower index as the greater letter, so
    under ``DegLex`` itself each level reversed is in increasing order;
    any other ordering, a ``DegLex`` subclass included, sorts the listing
    once by its own key.
    """
    _checked_limit("max_deg", max_deg, 0)
    leads = _leads(alphabet, relations, spec)
    if () in leads:
        return []  # the unit is in the ideal: nothing is irreducible
    deglex = type(spec) is DegLex
    found = [()]
    if max_deg:
        k = alphabet.size
        # the rests lead[1:] under each first letter, in ascending order; a lead
        # longer than max_deg cuts no word
        rests = [[] for _ in range(k)]
        for lead in sorted(leads):
            if len(lead) <= max_deg:
                rests[lead[0]].append(lead[1:])
        level = [()]
        for d in range(max_deg):
            nxt = []
            for x, xrests in enumerate(rests):
                prefix = (x,).__add__
                start = 0
                for r in xrests:
                    if len(r) <= d:
                        # the words starting with r run from r up to r + (k,), past every
                        # letter; ascending rests cut in ascending order, and the slice is
                        # empty where a cut starts inside the one before
                        nxt.extend(map(prefix, level[start : bisect_left(level, r)]))
                        start = max(start, bisect_left(level, r + (k,)))
                nxt.extend(map(prefix, level[start:]))
            level = nxt
            found.extend(reversed(level) if deglex else level)
    if not deglex:
        found.sort(key=spec.letter_key(alphabet))
    return _trusted_words(alphabet, found)


def irr_counts(alphabet: Alphabet, relations, spec, max_deg: int) -> list[int]:
    """The number of irreducible words of each degree 0..max_deg.

    Entry ``d`` is the number of degree-``d`` words in ``irr_words``,
    counted by dynamic programming over the states of a ``_LeadAutomaton``
    (the Ufnarovski graph of the leads) without building a word.
    """
    _checked_limit("max_deg", max_deg, 0)
    spec.letter_key(alphabet)  # rejects an ordering the alphabet lacks, as irr_words does
    leads = _leads(alphabet, relations, spec)
    if () in leads:
        return [0] * (max_deg + 1)
    automaton = _LeadAutomaton(leads, alphabet.size)
    weights = [1]  # words of the current degree ending in each state
    counts = [1]
    for _ in range(max_deg):
        rows = automaton.grow()
        nxt = [0] * len(automaton.ids)
        for s, c in enumerate(weights):
            if c:
                for n in rows[s]:
                    nxt[n] += c
        weights = nxt
        counts.append(sum(weights))
    return counts


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

    ``capacity`` bounds the words of degree <= max_deg (``None``: the
    ``DEFAULT_WORD_CAPACITY``); past it ``CapacityError`` comes before any
    row is built.  Anything but a positive int raises ``LimitError``.
    """
    _checked_limit("max_deg", max_deg, 0)
    if capacity is None:
        capacity = DEFAULT_WORD_CAPACITY
    else:
        _checked_limit("capacity", capacity, 1)
    k = alphabet.size
    # offsets[n]: the number of words of degree < n, the first number of degree n
    offsets = [0]
    for n in range(max_deg + 1):
        offsets.append(offsets[-1] + k**n)
        if offsets[-1] > capacity:
            # the count stops at the first degree past the capacity, so it stays small
            bound = f"; max_deg is {_digits(max_deg)}" if n < max_deg else ""
            raise CapacityError(
                f"{_digits(offsets[-1])} words of degree <= {n} exceed the capacity"
                f" {_digits(capacity)}{bound}"
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
    the rewriting engine, under ``quotient_dims``' ``capacity`` (``None``: the
    ``DEFAULT_WORD_CAPACITY``; ``LimitError`` unless a positive int).  The
    oracle for irr_words counts on certified bases.
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
