"""Ambiguity detection, compositions, triviality, and Shirshov completion.

Completion keeps a working set of monic relations.  Each relation that
enters it gets a record of its own, computed once: a ``rewrite._Rule``,
the primitive integer row ``p*lead + tail`` built as for a public call,
with a sort key and its support as one string.  As everywhere in the
rewriting engine, a word is spelled as a string (``orderings._spelling``)
when its relation enters, and stays spelled in the indexes, the
compositions and the pair queue; words are decoded to letter tuples only
where they are logged: residuals, decompositions and ambiguities.
A composition is built from the two rows scaled to lcm(p_f, p_g), where
the leads cancel exactly (``rewrite._compose``), and reduced on integers.
Coefficients become ``Fraction`` only where a polynomial leaves the
engine: residuals, decomposition coefficients, and the monic form of each
relation that enters.  The engine keeps two rule indexes
(``rewrite._RuleIndex``) over the working set and updates them as
relations enter and leave:

- the lead index is the trie of the leads: the node of a lead lists its
  relations, ranked by place in the set, and the node of each proper prefix
  of a lead holds the relations with a lead extending it; it finds every
  redex and every lead inside a support, and interreduction takes a
  relation out of it before reducing it by the rest;
- the reversed index files each relation under its reversed lead; probed
  with the proper suffixes of a new lead and with its proper prefixes
  reversed, the two give its intersection overlaps.

A new lead finds the relations it may make reducible (the interreduction
candidates) by one substring test per relation, of its spelling in the
string of the relation's support; relations enter far less often than
they are reduced or paired.

Pairing runs only on an interreduced set: no lead is a factor of another
relation's support, so no lead contains another and ``_pair`` enumerates
only intersections.  An intersection is fixed by its two relations and
its word, w = lead(f)*b = a*lead(g), so a pair is queued as (f, g, w), and
a and b are read off w where the composition is built.  The overlaps of a
relation are enumerated once, against the relations paired when it enters.
Those on words above the degree bound are counted without being built, as
a check's overlap scan (``rewrite._all_overlaps``) counts those above its
bound (``CheckReport.skipped``); the rest are pushed on a heap ordered by
(w, lead f, lead g); since the leading words of the working set are
distinct and kept sorted, this is the smallest-first order by word and
relation indices.  A pair is queued without a test, and dropped when popped
if one of its relations has left the set.  The monic normal form of each
nontrivial composition is added and the set is inter-reduced, always
rewriting the lowest-ranked relation whose support contains another
relation's leading word.  Every accepted addition and every removal
carries an exact replayable decomposition, so ideal preservation is
certified, not assumed.

No pair is routed twice, so nothing about a pair is kept once it has been
evaluated.  Pairing begins in ``seed``, after the first interreduction,
and from then on the leads are distinct.  A relation leaves only when one
of its words contains the lead of a relation that stays; that word stays
reducible for the rest of the run, because a lead is only ever replaced by
a lead it contains, or kept.  Every relation that enters is irreducible
modulo the rest of the set, so a relation that has been paired never
comes back.  (Before ``seed`` one can: in {a*a - c, a*a - b}, a*a - c
leaves as b - c and a*a - b is then rewritten to a*a - c; but no pair has
been routed yet.)
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .errors import (
    AlphabetMismatchError,
    LeadingNotBelowError,
    MalformedAmbiguityError,
    UncertifiedBasisError,
    ZeroPolynomialError,
    _checked_limit,
)
from .orderings import _spelled_key, _spelling
from .poly import Polynomial, format_element
from .rewrite import (
    INCLUSION,
    INTERSECTION,
    GsbCertificate,
    RuleSet,
    _all_overlaps,
    _compose,
    _nontrivial,
    _rank,
    _read_off,
    _reduce,
    _reduced,
    _replay,
    _Rule,
    _RuleIndex,
)
from .words import Word


@dataclass(frozen=True)
class Ambiguity:
    """One collision of two leading words on the word ``w``.

    Intersection: w = lead(f)*b = a*lead(g) with a proper overlap.
    Inclusion:    w = lead(f) = a*lead(g)*b.
    """

    kind: str
    f_index: int
    g_index: int
    w: Word
    a: Word
    b: Word

    @classmethod
    def _of(cls, A, decode, kind, i, j, w, a, b) -> Ambiguity:
        """An ambiguity from spellings over ``A``, which ``decode`` reads."""
        return cls(kind, i, j, *_read_off(A, decode, w, a, b))

    @property
    def degree(self) -> int:
        return self.w.degree

    def describe(self) -> str:
        return (
            f"{self.kind} of #{self.f_index} and #{self.g_index} at {self.w}"
        )


class _Scan(RuleSet):
    """A compiled relation set with its ambiguities on at most ``max_deg``
    letters, read by ``find_ambiguities`` and ``check_gsb``; ``skipped``
    counts the rest, never built."""

    def __init__(self, relations, spec, max_deg=None):
        super().__init__(relations, spec)
        self.max_deg = max_deg
        self.overlaps, self.skipped = _all_overlaps(self.rules, self.index, self.keyf, max_deg)

    def ambiguities(self) -> list[Ambiguity]:
        return [Ambiguity._of(self.alphabet, self.decode, *e) for e in self.overlaps]

    def check(self) -> CheckReport:
        A, decode = self.alphabet, self.decode
        nontrivial = [
            (Ambiguity._of(A, decode, *e), _reduced(A, nf, self.ordering, decode))
            for e, nf in _nontrivial(self, self.overlaps)
        ]
        return CheckReport(
            self.relations, self.ordering, self.max_deg, tuple(nontrivial), len(self.overlaps), self.skipped
        )


def find_ambiguities(relations, spec) -> list[Ambiguity]:
    """Every intersection and inclusion ambiguity, each reported once.

    Self-overlaps are included; equal leading words of distinct relations
    count as an inclusion with empty context, reported for the lower index
    pair only.  Sorted by (w, f_index, g_index).
    """
    return _Scan(relations, spec).ambiguities()


def composition(f: Polynomial, g: Polynomial, amb: Ambiguity, spec) -> Polynomial:
    """The composition polynomial of ``f`` and ``g`` relative to ``amb.w``."""
    lf = f.leading_word(spec)
    lg = g.leading_word(spec)
    a = Polynomial.from_word(amb.a)
    b = Polynomial.from_word(amb.b)
    if amb.kind == INTERSECTION:
        if amb.w.letters != lf.letters + amb.b.letters or amb.w.letters != amb.a.letters + lg.letters:
            raise MalformedAmbiguityError(f"{amb.describe()} does not reassemble")
        if len(lf) + len(lg) <= len(amb.w):
            raise MalformedAmbiguityError("intersection requires a proper overlap")
        return f * b - a * g
    if amb.kind == INCLUSION:
        if amb.w.letters != lf.letters or amb.w.letters != amb.a.letters + lg.letters + amb.b.letters:
            raise MalformedAmbiguityError(f"{amb.describe()} does not reassemble")
        return f - a * g * b
    raise MalformedAmbiguityError(f"unknown ambiguity kind {amb.kind!r}")


def is_trivial(h: Polynomial, relations, w: Word, spec) -> bool:
    """Triviality of ``h`` modulo (relations, w): reduction to zero below w."""
    if not h.is_zero():
        keyf = spec.letter_key(h.alphabet)
        if keyf(h.leading_word(spec).letters) >= keyf(w.letters):
            raise LeadingNotBelowError(
                f"leading word {h.leading_word(spec)} is not below {w}"
            )
    return RuleSet(relations, spec).normal_form(h).is_zero()


class CompletionStatus(enum.Enum):
    CERTIFIED_GSB = "CertifiedGSB"
    COMPLETE_UP_TO_DEGREE = "CompleteUpToDegree"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class AddedRelation:
    """A nontrivial composition residual, with its exact provenance.

    ``composition(f, g, ambiguity) == residual + sum(coeff * a * s * b)``
    replays exactly; ``relation`` is the monic form that was appended.
    """

    relation: Polynomial
    residual: Polynomial
    ambiguity: Ambiguity
    f: Polynomial
    g: Polynomial
    decomposition: tuple


@dataclass(frozen=True)
class RemovedRelation:
    """An inter-reduction event: relation == residual + replayed multiples."""

    relation: Polynomial
    residual: Polynomial
    replacement: Polynomial | None
    decomposition: tuple


@dataclass(frozen=True)
class CompletionReport:
    status: CompletionStatus
    degree_bound: int | None
    relations: tuple[Polynomial, ...]
    added: tuple[AddedRelation, ...]
    removed: tuple[RemovedRelation, ...]
    processed: int
    ordering: object
    # work counters, keyed by STAT_KEYS; not part of to_json_dict()
    stats: dict = field(default_factory=dict, compare=False)
    # builds the certificate of the relations; a module report's encodes them
    _certified: type = field(default=GsbCertificate, repr=False, compare=False)

    @property
    def is_certified(self) -> bool:
        return self.status is CompletionStatus.CERTIFIED_GSB

    @property
    def nontrivial_log(self) -> tuple:
        """(ambiguity, residual) of each nontrivial composition, in order."""
        return tuple((e.ambiguity, e.residual) for e in self.added)

    def status_text(self) -> str:
        if self.status is CompletionStatus.COMPLETE_UP_TO_DEGREE:
            return f"CompleteUpToDegree({self.degree_bound})"
        return self.status.value

    def certificate(self) -> GsbCertificate:
        """The certified relations, compiled once."""
        if not self.is_certified:
            raise UncertifiedBasisError(
                f"completion ended with status {self.status_text()}"
            )
        return self._certified(self.relations, self.ordering)

    def verify_ideal_preservation(self) -> bool:
        """Replay every addition and removal decomposition exactly."""
        for entry in self.added:
            comp = composition(entry.f, entry.g, entry.ambiguity, self.ordering)
            if _replay(entry.residual, entry.decomposition) != comp:
                return False
            if entry.residual.make_monic(self.ordering) != entry.relation:
                return False
        return all(
            _replay(entry.residual, entry.decomposition) == entry.relation
            for entry in self.removed
        )

    def to_json_dict(self) -> dict:
        return {
            "status": self.status_text(),
            "added": [format_element(e.relation, self.ordering) for e in self.added],
            "nontrivial": [
                {"ambiguity": str(amb.w), "residual": format_element(res, self.ordering)}
                for amb, res in self.nontrivial_log
            ],
            "processed": self.processed,
        }


STAT_KEYS = (
    "pairs_enumerated",
    "compositions_evaluated",
    "reduction_steps",
    "rules_compiled",
)


class _Relation(_Rule):
    """A relation of the working set: the ``_Rule`` of the monic ``poly``,
    its words spelled by ``spell``, compiled once when it enters.  Its lead
    is the one ``poly`` recorded when the engine made it (``_reduced``,
    ``make_monic``); only an input that carries none has its lead found
    here.  ``key`` is the key of its lead under ``keyf``.

    ``rank`` is its place in the working set while it is there.
    ``paired`` is set once its pairs are enumerated and cleared when it
    leaves, which is for good, so queued pairs of a departed relation are
    dropped.
    ``text`` is its spelled support joined by ``chr(k)``, for an alphabet
    of k letters spelled ``chr(0)`` to ``chr(k - 1)``; that character is no
    letter, so a lead is a factor of a support word exactly when its
    spelling is a substring of ``text``.
    """

    __slots__ = ("poly", "key", "text", "paired")

    def __init__(self, poly, spec, keyf, spell):
        lead = poly._lead_letters(spec)
        tail = {spell(w): c for w, c in poly.raw_terms().items() if w != lead}
        _Rule.__init__(self, tail, spell(lead))
        self.poly = poly
        self.key = keyf(self.lead)
        self.text = chr(poly.alphabet.size).join([self.lead, *tail])
        self.paired = False


_lead_key = attrgetter("key")


class _Engine:
    """The working set, its two indexes and the pair queue.

    ``rels`` is the working set in rank order.  ``index`` is its rule index,
    whose trie gives, for each proper prefix of a lead, the relations with
    a lead extending it; ``_reversed`` files each relation under its
    reversed lead, so probed with a word reversed it gives the relations
    whose lead has that word as a proper suffix.  ``_dirty`` holds the interreduction
    candidates: each relation that entered, or whose support contains a
    lead that entered, since it was last picked; so it holds every relation
    that another relation's lead makes reducible.  A new lead finds the
    relations containing it by a substring test on each ``text`` of
    ``rels``.  Words are spelled by ``spell``, keyed by ``keyf`` and
    decoded by ``decode``.
    """

    def __init__(self, spec, alphabet, max_deg):
        self.spec = spec
        self.alphabet = alphabet
        self.spell, self.decode = _spelling(alphabet.size)
        self.keyf = _spelled_key(spec, alphabet)
        self.max_deg = max_deg
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self.rels = []
        self.index = _RuleIndex()
        self._reversed = _RuleIndex()
        self._dirty = set()
        self._queue = []
        self._seq = itertools.count()

    def compile(self, poly: Polynomial) -> _Relation:
        """A new record for ``poly``, counted in ``rules_compiled``."""
        self.stats["rules_compiled"] += 1
        return _Relation(poly, self.spec, self.keyf, self.spell)

    def start(self, polys) -> None:
        """Enter the inputs, sorted by lead, as the working set."""
        for rel in sorted(map(self.compile, polys), key=_lead_key):
            self.append(rel)

    def append(self, rel: _Relation) -> None:
        """Enter a relation after every relation of the working set."""
        self.rels.append(rel)
        self._enter(rel, len(self.rels) - 1)

    def _enter(self, rel, rank) -> None:
        rel.rank = rank
        lead = rel.lead
        # the new relation may be reducible, and so may those containing its
        # lead; rel is in rels already, and its support contains its lead
        self._dirty.update(r for r in self.rels if lead in r.text)
        self.index.add(rel)
        self._reversed.add(rel, lead[::-1])

    def _leave(self, rel) -> None:
        rel.paired = False
        self.index.discard(rel)
        self._reversed.discard(rel, rel.lead[::-1])

    def sort(self) -> None:
        """Sort the interreduced working set by lead; ranks become list
        positions.  Its leads are distinct, so both indexes stay valid."""
        self.rels.sort(key=_lead_key)
        for rank, rel in enumerate(self.rels):
            rel.rank = rank

    def reduce(self, terms, scale, steps) -> dict:
        """Normal form of integer terms over ``scale`` by the working set."""
        nf = _reduce(terms, scale, self.index, self.keyf, steps)
        self.stats["reduction_steps"] += len(steps)
        return nf

    def decomposition(self, steps) -> tuple:
        A, decode = self.alphabet, self.decode
        out = []
        for rel, a, b, u, c, scale in steps:
            # u = a*lead*b
            _u, left, right = _read_off(A, decode, u, a, b)
            out.append((Fraction(c, scale), left, rel.poly, right))
        return tuple(out)

    def interreduce(self, removed_log) -> None:
        """Reduce each relation by the others until stable.

        Always rewrites the lowest-ranked relation whose support contains
        another relation's leading word, so the removal log has the order
        of a scan from the front that restarts after every change.  The
        lowest-ranked candidate is rewritten if another relation's lead is a
        factor of its support, and dropped otherwise.  It leaves the indexes
        first, so it is reduced by the others.
        """
        rels = self.rels
        factors = self.index.factors
        while self._dirty:
            r = min(self._dirty, key=_rank)
            self._dirty.remove(r)
            support = [r.lead, *(u for u, _c in r.tail)]
            if all(h is r for u in support for _, _, held in factors(u) for h in held):
                continue
            self._leave(r)
            steps = []
            terms = dict(r.tail)
            terms[r.lead] = r.p
            nf = _reduced(self.alphabet, self.reduce(terms, r.p, steps), self.spec, self.decode)
            decomposition = self.decomposition(steps)
            i = rels.index(r)
            if nf.is_zero():
                removed_log.append(RemovedRelation(r.poly, nf, None, decomposition))
                del rels[i]
            else:
                monic = nf.make_monic(self.spec)
                removed_log.append(RemovedRelation(r.poly, nf, monic, decomposition))
                rels[i] = self.compile(monic)
                self._enter(rels[i], r.rank)

    def seed(self) -> None:
        """Pair the initial working set and queue what ``find_ambiguities``
        reports for it; later entrants are paired by ``update``."""
        rels = self.rels
        for rel in rels:
            rel.paired = True
        # find_ambiguities, not update(), only for the benchmark's tracer: its
        # layer_value indexes counts["completion.ambiguities_enumerated"], which
        # this call alone fills, until it reads report.stats (ROADMAP item 1)
        ambiguities = find_ambiguities([r.poly for r in rels], self.spec)
        self.stats["pairs_enumerated"] += len(ambiguities)
        for amb in ambiguities:
            if amb.degree <= self.max_deg:
                self.queue((rels[amb.f_index], rels[amb.g_index], self.spell(amb.w.letters)))

    def update(self) -> None:
        """Pair every relation that entered the working set."""
        for rel in self.rels:
            if not rel.paired:
                rel.paired = True
                self._pair(rel)

    def _pair(self, rel) -> None:
        """Count the overlaps of ``rel`` with itself, and in both orders with
        every paired relation, and queue those within the bound.

        The set is interreduced, so no lead is inside another and every
        overlap is an intersection, queued as (f, g, w).  One on more than
        ``max_deg`` letters is only counted: its word is never built.
        """
        f = rel.lead
        n = len(f)
        queue = self.queue
        extending, ending = self.index.extending, self._reversed.extending
        # an intersection of f and g at overlap o has |f| + |g| - o letters
        room = self.max_deg - n
        count = 0
        for o in range(1, n):
            # a proper suffix of f is a proper prefix of g, and the reverse; rel
            # is in both indexes, so the second probe skips its self-overlaps
            for other in extending(f[n - o :]):
                if other.paired:
                    count += 1
                    g = other.lead
                    if len(g) - o <= room:
                        queue((rel, other, f + g[o:]))
            for other in ending(f[o - 1 :: -1]):
                if other.paired and other is not rel:
                    count += 1
                    g = other.lead
                    if len(g) - o <= room:
                        queue((other, rel, g + f[o:]))
        self.stats["pairs_enumerated"] += count

    def queue(self, entry) -> None:
        """Queue the pair ``(f, g, w)``; ``pop`` drops it if f or g has left.

        With distinct leads sorted ascending, (w, lead f, lead g) orders
        pairs exactly as (w, f_index, g_index) does.
        """
        f, g, w = entry
        heapq.heappush(self._queue, (self.keyf(w), f.key, g.key, next(self._seq), entry))

    def pop(self):
        """The smallest queued pair whose relations are both still paired."""
        while self._queue:
            entry = heapq.heappop(self._queue)[-1]
            if entry[0].paired and entry[1].paired:
                return entry
        return None

    def pending_beyond(self) -> bool:
        """Whether a pair of live relations lies on a word above the bound.

        Every such pair was counted.  In the interreduced set no lead is
        inside another, so it is an intersection, on |f| + |g| - o letters."""
        extending = self.index.extending
        return any(
            len(f) + len(other.lead) - o > self.max_deg
            for f in (rel.lead for rel in self.rels)
            for o in range(1, len(f))
            for other in extending(f[len(f) - o :])
        )


def shirshov_complete(
    relations, spec, max_deg: int = 12, max_steps: int = 10_000
) -> CompletionReport:
    """Run the completion loop within the given degree and step limits.

    Returns CertifiedGSB when no ambiguity is left unchecked,
    CompleteUpToDegree(max_deg) when only ambiguities on words of degree
    beyond the bound remain, and BudgetExhausted when the step budget ran
    out first.  Nontermination is expected in general, so the limits are
    always enforced.
    """
    _checked_limit("max_deg", max_deg, 1)
    _checked_limit("max_steps", max_steps, 1)
    relations = tuple(relations)
    for idx, s in enumerate(relations):
        if s.is_zero():
            raise ZeroPolynomialError(f"relation #{idx} is zero")
    removed: list[RemovedRelation] = []
    added: list[AddedRelation] = []
    processed = 0
    status = CompletionStatus.CERTIFIED_GSB
    rels = []
    stats = dict.fromkeys(STAT_KEYS, 0)
    if relations:
        monic = [s.make_monic(spec) for s in relations]
        A = monic[0].alphabet
        for idx, s in enumerate(monic):
            if s.alphabet != A:
                raise AlphabetMismatchError(f"relation #{idx} lives over a different alphabet")
        engine = _Engine(spec, A, max_deg)
        stats = engine.stats
        rels = engine.rels
        engine.start(monic)
        engine.interreduce(removed)
        engine.sort()
        engine.seed()
        while True:
            entry = engine.pop()
            if entry is None:
                if engine.pending_beyond():
                    status = CompletionStatus.COMPLETE_UP_TO_DEGREE
                break
            if processed >= max_steps:
                status = CompletionStatus.BUDGET_EXHAUSTED
                break
            processed += 1
            f, g, w = entry
            start = len(w) - len(g.lead)
            steps = []
            nf_terms = engine.reduce(*_compose(f, g, w, start), steps)
            if not nf_terms:
                continue
            nf = _reduced(A, nf_terms, spec, engine.decode)
            # after sorting, a paired relation's rank is its index
            amb = Ambiguity._of(
                A, engine.decode, INTERSECTION, f.rank, g.rank, w, w[:start], w[len(f.lead) :]
            )
            monic = nf.make_monic(spec)
            added.append(
                AddedRelation(monic, nf, amb, f.poly, g.poly, engine.decomposition(steps))
            )
            engine.append(engine.compile(monic))
            engine.interreduce(removed)
            engine.sort()
            engine.update()
            # still pending while f and g survive; it is evaluated again
            engine.queue(entry)
        stats["compositions_evaluated"] = processed
    return CompletionReport(
        status=status,
        degree_bound=max_deg if status is CompletionStatus.COMPLETE_UP_TO_DEGREE else None,
        relations=tuple(r.poly for r in rels),
        added=tuple(added),
        removed=tuple(removed),
        processed=processed,
        ordering=spec,
        stats=dict(stats),
    )


@dataclass(frozen=True)
class CheckReport:
    """Result of evaluating every composition of a relation set."""

    relations: tuple[Polynomial, ...]
    ordering: object
    max_deg: int | None
    nontrivial: tuple
    evaluated: int
    skipped: int
    _certified: type = field(default=GsbCertificate, repr=False, compare=False)

    @property
    def is_certificate(self) -> bool:
        return not self.nontrivial and self.skipped == 0

    def certificate(self) -> GsbCertificate:
        """The certified relations, compiled once."""
        if not self.is_certificate:
            raise UncertifiedBasisError(
                "the relation set is not certified by this check"
            )
        return self._certified(self.relations, self.ordering)

    def to_json_dict(self) -> dict:
        return {
            "status": "CertifiedGSB" if self.is_certificate else "NotCertified",
            "added": [],
            "nontrivial": [
                {"ambiguity": str(amb.w), "residual": format_element(res, self.ordering)}
                for amb, res in self.nontrivial
            ],
            "processed": self.evaluated,
        }


def check_gsb(relations, spec, max_deg: int | None = None) -> CheckReport:
    """Evaluate every ambiguity (optionally bounded by degree of w).

    Those above ``max_deg`` are counted in ``skipped`` by the overlap scan,
    never built.  An empty report with nothing skipped is a
    Groebner-Shirshov basis certificate for the set.
    """
    if max_deg is not None:
        _checked_limit("max_deg", max_deg, 1)
    return _Scan(relations, spec, max_deg).check()
