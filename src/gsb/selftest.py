"""The acceptance suite: one callable per criterion, shared by tests and CLI.

Each criterion function returns (passed, detail).  Seeds are fixed so runs
are reproducible; expected values are exact, with no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from .completion import CompletionStatus, find_ambiguities, shirshov_complete
from .constructions import (
    MultTable,
    SimplePair,
    SimpleStepInput,
    build_malcev,
    build_module_cyclic,
    build_simple_step,
)
from .errors import SingleLetterAlphabetError
from .lyndon import (
    BracketedWord,
    alsw_up_to,
    is_alsw,
    satisfies_nlsw_conditions,
    std_bracketing,
)
from .orderings import DegLex, ModuleTop, Tower, check_monomial
from .poly import Polynomial
from .presentation import ModulePresentation, Presentation
from .rewrite import RuleSet, irr_words, normal_form_random, quotient_dims
from .words import Alphabet, ModuleBasis, Word

_COEFFS = (1, -1, 2, -2, Fraction(1, 2), 3)


def _random_poly(rng, alphabet, max_deg, max_terms, min_terms=2):
    while True:
        terms = []
        for _ in range(rng.randint(min_terms, max_terms)):
            deg = rng.randint(0, max_deg)
            word = tuple(rng.randrange(alphabet.size) for _ in range(deg))
            terms.append((word, rng.choice(_COEFFS)))
        p = Polynomial(alphabet, terms)
        if not p.is_zero():
            return p


def _random_binomial(rng, alphabet, max_deg):
    while True:
        u = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(1, max_deg)))
        v = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_deg)))
        if u != v:
            return Polynomial(alphabet, ((u, 1), (v, -1)))


def criterion_1_cd_oracle():
    """Completed random presentations: irreducible counts equal exact ranks."""
    rng = random.Random(20260811)
    spec = DegLex()
    checked = 0
    for trial in range(100):
        alphabet = Alphabet(("a", "b", "c")[: rng.choice((2, 3))])
        relations = [
            _random_poly(rng, alphabet, 3, 3) for _ in range(rng.randint(1, 3))
        ]
        report = shirshov_complete(relations, spec, max_deg=6, max_steps=20_000)
        if report.status is CompletionStatus.BUDGET_EXHAUSTED:
            return False, f"trial {trial}: completion exhausted its budget"
        dims = quotient_dims(alphabet, report.relations, spec, 6)
        for d, dim in enumerate(dims):
            n_irr = len(irr_words(alphabet, report.relations, spec, d))
            if n_irr != dim:
                return False, f"trial {trial}: degree {d}: {n_irr} != {dim}"
            checked += 1
    return True, f"100 presentations, {checked} degree checks, all equal"


def criterion_2_worked_completion():
    """{aa - b} completes to exactly {aa - b, ab - ba} with irr counts 1,2,2,2."""
    ab = Alphabet(("a", "b"))
    spec = DegLex()
    report = shirshov_complete([Polynomial.parse("a*a - b", ab)], spec)
    expected = {Polynomial.parse("a*a - b", ab), Polynomial.parse("a*b - b*a", ab)}
    if report.status is not CompletionStatus.CERTIFIED_GSB:
        return False, f"status {report.status_text()}"
    if set(report.relations) != expected:
        return False, f"relations {[str(r) for r in report.relations]}"
    words = irr_words(ab, report.relations, spec, 3)
    by_degree = [sum(1 for w in words if len(w) == d) for d in range(4)]
    if by_degree != [1, 2, 2, 2]:
        return False, f"irr counts by degree {by_degree}"
    return True, "completed to {aa - b, ab - ba}; irr counts 1,2,2,2"


def criterion_3_hnn():
    """The truncated two-generator group embedding certifies under the tower."""
    from .constructions import GroupTable, build_hnn

    table = GroupTable.cyclic(3)
    result = build_hnn(table, 2)
    report = result.report
    if report.nontrivial:
        return False, f"{len(report.nontrivial)} nontrivial compositions"
    return True, (
        f"{len(result.presentation.relations)} relations, "
        f"{report.evaluated} compositions, all trivial"
    )


def _random_certified_base(rng, alphabet, spec):
    """A random certified basis whose leading words keep degree >= 2."""
    while True:
        relations = [
            _random_poly(rng, alphabet, rng.randint(2, 3), 3)
            for _ in range(rng.randint(1, 2))
        ]
        if any(r.degree(spec) < 2 for r in relations):
            continue
        report = shirshov_complete(relations, spec, max_deg=6, max_steps=2_000)
        if report.status is not CompletionStatus.CERTIFIED_GSB:
            continue
        if any(r.degree(spec) < 2 for r in report.relations):
            continue
        return report.relations


def criterion_4_malcev():
    """Adjoining the defining words adds no compositions; generators survive."""
    rng = random.Random(42)
    spec = DegLex()
    alphabet = Alphabet(("x1", "x2", "x3", "x4", "x5"))
    for trial in range(20):
        base = Presentation(alphabet, spec, _random_certified_base(rng, alphabet, spec))
        result = build_malcev(base, 5)
        relations = result.presentation.relations
        leads = [r.leading_word(spec).letters for r in relations]
        fresh = {result.presentation.alphabet.index(s) for s in ("a", "b")}
        for amb in find_ambiguities(relations, spec):
            if fresh & {*leads[amb.f_index], *leads[amb.g_index]}:
                return False, f"trial {trial}: new composition {amb.describe()}"
        for i in range(1, 6):
            name = f"x{i}"
            expected = Polynomial.parse(name, result.presentation.alphabet)
            if result.witness[name] != expected:
                return False, f"trial {trial}: nf({name}) = {result.witness[name]}"
    return True, "20 certified bases extended; zero new compositions; nf(x_i) = x_i"


def criterion_5_simple_step():
    """The toy tower instance only has the degree-3 table ambiguities."""
    table = MultTable(("x1", "x2"), {(1, 1): "x1", (1, 2): "x1", (2, 1): "x2", (2, 2): "x2"})
    base = table.base_alphabet()
    steps = SimpleStepInput(
        (
            SimplePair(Polynomial.parse("x1", base), Polynomial.parse("x2", base), "u1", "v1"),
            SimplePair(
                Polynomial.parse("x2 + 1", base),
                Polynomial.parse("x1 - x2", base),
                "u2",
                "v2",
            ),
        )
    )
    result = build_simple_step(table, steps, m_bound=2, n_bound=1)
    spec = result.presentation.ordering
    names = {result.presentation.alphabet.name(c) for w in result.ambiguity_words for c in w.letters}
    if not names <= {"x1", "x2"}:
        return False, f"ambiguity letters {names}"
    if any(w.degree != 3 for w in result.ambiguity_words):
        return False, "an ambiguity word is not degree 3"
    if result.report.nontrivial:
        return False, "a table composition was nontrivial"
    pairs = steps.pairs
    for pair, power in zip(pairs, result.exponents):
        if power != pair.g.degree(spec) + 1:
            return False, f"exponent {power} != deg+1 for pair {pair.x_symbol}"
    return True, (
        f"{len(result.ambiguity_words)} ambiguities, all x_i x_j x_k and trivial; "
        f"exponents {result.exponents}"
    )


def criterion_6_module():
    """The cyclic-module embedding certifies and keeps generators distinct."""
    alphabet = Alphabet(("a", "b"))
    basis = ModuleBasis(("y1", "y2", "y3", "y4", "y5"))
    base = ModulePresentation(alphabet, basis, ModuleTop(), ())
    result = build_module_cyclic(base, 5)
    if result.report.nontrivial or result.report.skipped:
        return False, "extension failed certification"
    values = [str(result.witness[f"y{i}"]) for i in range(1, 6)]
    if len(set(values)) != 5 or any(v == "0" for v in values):
        return False, f"witness values {values}"
    try:
        single = ModulePresentation(Alphabet(("x",)), basis, ModuleTop(), ())
        build_module_cyclic(single, 2)
        return False, "single-letter alphabet was not rejected"
    except SingleLetterAlphabetError:
        pass
    return True, "certified; nf(y_1..y_5) distinct and nonzero; single letter rejected"


def _necklace_count(k, n):
    """Aperiodic necklaces over k letters: the independent counting oracle."""

    def mobius(m):
        result, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
    return total // n


def criterion_7_lyndon():
    """Counts match the necklace oracle; bracketings are unique; flatten is id."""
    alphabet = Alphabet(("x2", "x1"))
    counts = []
    for n in range(1, 9):
        counts.append(
            sum(1 for ls in product(range(2), repeat=n) if is_alsw(Word(alphabet, ls)))
        )
    if counts != [2, 1, 2, 3, 6, 9, 18, 30]:
        return False, f"counts {counts}"
    if counts != [_necklace_count(2, n) for n in range(1, 9)]:
        return False, "counts disagree with the necklace formula"

    def all_brackets(ls):
        if len(ls) == 1:
            return [BracketedWord.leaf(alphabet, ls[0])]
        out = []
        for i in range(1, len(ls)):
            for left in all_brackets(ls[:i]):
                for right in all_brackets(ls[i:]):
                    out.append(BracketedWord.pair(left, right))
        return out

    checked = 0
    for w in alsw_up_to(alphabet, 6):
        valid = [b for b in all_brackets(w.letters) if satisfies_nlsw_conditions(b)]
        built = std_bracketing(w)
        if len(valid) != 1 or str(valid[0]) != str(built):
            return False, f"bracketing of {w} not unique"
        if built.flatten() != w:
            return False, f"flatten(bracket({w})) != {w}"
        checked += 1
    return True, f"counts 2,1,2,3,6,9,18,30; {checked} unique bracketings; flatten = id"


def criterion_8_binomial_closure():
    """Completion of binomial sets only ever produces binomials."""
    rng = random.Random(7)
    spec = DegLex()
    for trial in range(100):
        alphabet = Alphabet(("a", "b", "c")[: rng.choice((2, 3))])
        relations = [
            _random_binomial(rng, alphabet, 3) for _ in range(rng.randint(1, 3))
        ]
        report = shirshov_complete(relations, spec, max_deg=6, max_steps=20_000)
        for r in report.relations:
            if not r.is_binomial_difference():
                return False, f"trial {trial}: non-binomial output {r}"
    return True, "100 binomial systems completed; every output is a word difference"


def criterion_9_orderings():
    """Monomiality and left compatibility hold on 10^4 samples each."""
    deglex = check_monomial(DegLex(), Alphabet(("a", "b", "c")), 10_000, seed=1)
    if not deglex.ok:
        return False, f"deg-lex violations: {len(deglex.violations)}"
    tower_alphabet = Alphabet(("t", "t^-1", "b^-1", "b", "a^-1", "a", "g1"))
    tower = check_monomial(Tower("t", "t^-1"), tower_alphabet, 10_000, seed=2)
    if not tower.ok:
        return False, f"tower violations: {len(tower.violations)}"
    basis = ModuleBasis(("y1", "y2", "y3"))
    module = check_monomial(
        ModuleTop(), Alphabet(("a", "b")), 10_000, seed=3, basis=basis
    )
    if not module.ok:
        return False, f"module violations: {len(module.violations)}"
    tower_module = check_monomial(
        ModuleTop(Tower("t", "t^-1")), tower_alphabet, 10_000, seed=4, basis=basis
    )
    if not tower_module.ok:
        return False, f"tower module violations: {len(tower_module.violations)}"
    return True, "0 violations in 4 x 10^4 samples"


def criterion_10_strategy_independence():
    """Canonical and randomized strategies agree on a certified basis."""
    ab = Alphabet(("a", "b"))
    spec = DegLex()
    report = shirshov_complete([Polynomial.parse("a*a - b", ab)], spec)
    basis = report.relations
    rules = RuleSet(basis, spec)  # compiled once for the 1000 canonical reductions
    rng = random.Random(99)
    for trial in range(1000):
        p = _random_poly(rng, ab, 5, 4, min_terms=1)
        canonical = rules.normal_form(p)
        randomized = normal_form_random(p, basis, spec, rng)
        if canonical != randomized:
            return False, f"trial {trial}: strategies disagree on {p}"
    return True, "1000 random polynomials reduce identically under both strategies"


CRITERIA = (
    ("1 composition-diamond oracle equivalence", criterion_1_cd_oracle),
    ("2 worked completion of {aa - b}", criterion_2_worked_completion),
    ("3 group embedding certification (tower)", criterion_3_hnn),
    ("4 two-generator algebra embedding", criterion_4_malcev),
    ("5 simple-algebra toy tower", criterion_5_simple_step),
    ("6 cyclic-module embedding", criterion_6_module),
    ("7 Lyndon-Shirshov suite", criterion_7_lyndon),
    ("8 semigroup binomial closure", criterion_8_binomial_closure),
    ("9 ordering properties", criterion_9_orderings),
    ("10 reduction strategy independence", criterion_10_strategy_independence),
)


def run_all():
    """Run every criterion, print one pass/fail line each, return failures."""
    failures = []
    for name, fn in CRITERIA:
        start = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.time() - start
        line = f"{'PASS' if passed else 'FAIL'}  criterion {name}  [{elapsed:.1f}s]  {detail}"
        print(line, flush=True)
        if not passed:
            failures.append(name)
    return failures
