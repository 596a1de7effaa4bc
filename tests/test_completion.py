import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from gsb.completion import (
    INCLUSION,
    INTERSECTION,
    Ambiguity,
    CompletionStatus,
    _all_overlaps,
    _Engine,
    check_gsb,
    composition,
    find_ambiguities,
    format_element,
    is_trivial,
    shirshov_complete,
)
from gsb.errors import (
    AlphabetMismatchError,
    LeadingNotBelowError,
    LimitError,
    MalformedAmbiguityError,
    ZeroPolynomialError,
)
from gsb.orderings import DegLex
from gsb.poly import Polynomial, parse_polynomial
from gsb.rewrite import _Rule, _RuleIndex, normal_form, normal_form_with_trace
from gsb.words import Alphabet

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))
SPEC = DegLex()


def p(text, alphabet=AB):
    return parse_polynomial(text, alphabet)


def _overlaps(f, g, inclusion: bool) -> list:
    """Ambiguities of the leading words ``f`` and ``g`` (letter tuples).

    Returns raw ``(kind, w, a, b)`` tuples: every proper suffix of f that
    is a prefix of g (intersections), then, when ``inclusion`` is set,
    every occurrence of g inside f.  This is the definition the indexed
    searches of ``gsb.completion`` reproduce, and the reference for them.
    """
    out = []
    nf, ng = len(f), len(g)
    for o in range(1, min(nf, ng)):
        if f[nf - o :] == g[:o]:
            out.append((INTERSECTION, f + g[o:], f[: nf - o], g[o:]))
    if inclusion:
        for start in range(nf - ng + 1):
            if f[start : start + ng] == g:
                out.append((INCLUSION, f, f[:start], f[start + ng :]))
    return out


def test_find_ambiguities_intersection_example():
    # leading words aab and ba overlap on b: w = aaba (plus the reverse
    # direction baab, where the suffix a of ba meets the prefix a of aab)
    rels = [p("a*a*b - b"), p("b*a - a")]
    ambs = find_ambiguities(rels, SPEC)
    assert all(x.kind == "intersection" for x in ambs)
    forward = [x for x in ambs if (x.f_index, x.g_index) == (0, 1)]
    assert len(forward) == 1
    amb = forward[0]
    assert (str(amb.w), str(amb.a), str(amb.b)) == ("a*a*b*a", "a*a", "a")
    assert amb.w.degree < 3 + 2  # proper overlap: deg f + deg g > deg w


def test_find_ambiguities_inclusion_example():
    rels = [p("a*b*a - b"), p("b - 1")]
    ambs = [x for x in find_ambiguities(rels, SPEC) if x.kind == "inclusion"]
    assert len(ambs) == 1
    amb = ambs[0]
    assert (str(amb.w), str(amb.a), str(amb.b)) == ("a*b*a", "a", "a")


def test_find_ambiguities_disjoint_letters():
    rels = [p("a*b - a", ABCD), p("c*d - c", ABCD)]
    assert find_ambiguities(rels, SPEC) == []


def test_find_ambiguities_equal_leading_words_once():
    rels = [p("a*b - a"), p("a*b - b")]
    ambs = find_ambiguities(rels, SPEC)
    assert len(ambs) == 1
    assert ambs[0].kind == "inclusion"
    assert (ambs[0].f_index, ambs[0].g_index) == (0, 1)
    assert ambs[0].a.is_empty() and ambs[0].b.is_empty()


def test_self_overlap_included():
    rels = [p("a*a - b")]
    ambs = find_ambiguities(rels, SPEC)
    assert len(ambs) == 1
    assert str(ambs[0].w) == "a*a*a"


def test_composition_examples():
    f = p("a*a - b")
    ambs = find_ambiguities([f], SPEC)
    h = composition(f, f, ambs[0], SPEC)
    assert h == p("a*b - b*a")
    # a degenerate self-inclusion computes to zero when built by hand
    amb = Ambiguity("inclusion", 0, 0, AB.word("a*a"), AB.word("1"), AB.word("1"))
    assert composition(f, f, amb, SPEC).is_zero()
    bad = Ambiguity("intersection", 0, 0, AB.word("a*b"), AB.word("a"), AB.word("b"))
    with pytest.raises(MalformedAmbiguityError):
        composition(f, f, bad, SPEC)


def test_composition_leading_below_w_random():
    rng = random.Random(17)
    keyf = SPEC.letter_key(AB)
    checked = 0
    while checked < 1000:
        lead_f = tuple(rng.randrange(2) for _ in range(rng.randint(2, 4)))
        tail_f = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        lead_g = tuple(rng.randrange(2) for _ in range(rng.randint(2, 4)))
        tail_g = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        f = Polynomial(AB, ((lead_f, 1), (tail_f, -1)))
        g = Polynomial(AB, ((lead_g, 1), (tail_g, -1)))
        if f.is_zero() or g.is_zero():
            continue
        if f.leading_word(SPEC).letters != lead_f or g.leading_word(SPEC).letters != lead_g:
            continue
        for amb in find_ambiguities([f, g], SPEC):
            h = composition(
                [f, g][amb.f_index], [f, g][amb.g_index], amb, SPEC
            )
            if not h.is_zero():
                assert keyf(h.leading_word(SPEC).letters) < keyf(amb.w.letters)
            checked += 1


def test_is_trivial_examples():
    w = AB.word("a*a*a")
    assert not is_trivial(p("a*b - b*a"), [p("a*a - b")], w, SPEC)
    assert is_trivial(Polynomial.zero(AB), [p("a*a - b")], w, SPEC)
    assert is_trivial(p("a*b - b*a"), [p("a*a - b"), p("a*b - b*a")], w, SPEC)
    with pytest.raises(LeadingNotBelowError):
        is_trivial(p("a*a*a*a"), [p("a*a - b")], w, SPEC)


def test_worked_completion():
    report = shirshov_complete([p("a*a - b")], SPEC)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert set(report.relations) == {p("a*a - b"), p("a*b - b*a")}
    assert [str(e.relation) for e in report.added] == ["a*b - b*a"]
    assert report.processed >= 1
    assert report.verify_ideal_preservation()
    # certificate validity: the certified output passes the full check
    assert check_gsb(report.relations, SPEC).is_certificate
    cert = report.certificate()
    assert cert.relations == report.relations


def test_completion_rejects_zero_and_bad_limits():
    with pytest.raises(ZeroPolynomialError):
        shirshov_complete([Polynomial.zero(AB)], SPEC)
    # every relation is checked for zero before any alphabet is compared
    with pytest.raises(ZeroPolynomialError):
        shirshov_complete([p("a*b - b"), Polynomial.zero(ABC)], SPEC)
    with pytest.raises(ValueError):
        shirshov_complete([p("a*a - b")], SPEC, max_deg=0)
    with pytest.raises(LimitError):
        shirshov_complete([p("a*a - b")], SPEC, max_steps=0)


def test_completion_statuses():
    # degree bound below the one ambiguity: nothing to do, not certified
    report = shirshov_complete([p("a*a - b")], SPEC, max_deg=2)
    assert report.status is CompletionStatus.COMPLETE_UP_TO_DEGREE
    assert report.degree_bound == 2
    assert report.status_text() == "CompleteUpToDegree(2)"
    assert not report.added
    with pytest.raises(Exception):
        report.certificate()
    # a one-step budget on a system that needs more
    report = shirshov_complete([p("a*a - a*b"), p("b*b - b")], SPEC, max_steps=1)
    assert report.status is CompletionStatus.BUDGET_EXHAUSTED


def test_completion_interreduces_input():
    # aaa - a reduces against aa - b to ba - a at the start
    report = shirshov_complete([p("a*a - b"), p("a*a*a - a")], SPEC)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert report.removed
    assert report.verify_ideal_preservation()
    for r in report.relations:
        assert r.is_monic(SPEC)
    assert check_gsb(report.relations, SPEC).is_certificate
    # the discarded input is still in the ideal of the output
    assert normal_form(p("a*a*a - a"), report.relations, SPEC).is_zero()


def test_unit_relation_collapse():
    # equal leading words force 1 into the ideal; everything collapses
    report = shirshov_complete([p("a - 1"), p("a - 2")], SPEC)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert list(report.relations) == [Polynomial.unit(AB)]
    from gsb.rewrite import irr_words, quotient_dim_oracle

    assert irr_words(AB, report.relations, SPEC, 2) == []
    assert quotient_dim_oracle(AB, report.relations, SPEC, 2) == 0


def test_binomial_closure_sample():
    rng = random.Random(18)
    for _ in range(20):
        rels = []
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            if u != v:
                rels.append(Polynomial(AB, ((u, 1), (v, -1))))
        if not rels:
            continue
        report = shirshov_complete(rels, SPEC, max_deg=6, max_steps=5000)
        assert all(r.is_binomial_difference() for r in report.relations)


def test_check_gsb_examples():
    report = check_gsb([p("a*a - b")], SPEC)
    assert not report.is_certificate
    assert len(report.nontrivial) == 1
    amb, residual = report.nontrivial[0]
    assert str(amb.w) == "a*a*a" and residual == p("a*b - b*a")
    assert check_gsb([p("a*a - b"), p("a*b - b*a")], SPEC).is_certificate


def test_check_gsb_degree_bound_blocks_certificate():
    report = check_gsb([p("a*a - b")], SPEC, max_deg=2)
    assert report.skipped == 1 and not report.nontrivial
    assert not report.is_certificate


def test_check_gsb_rejects_nonpositive_degree_bound():
    for bad in (0, -3):
        with pytest.raises(LimitError):
            check_gsb([p("a*a - b")], SPEC, max_deg=bad)


def test_completion_soundness_on_random_inputs():
    # ideal preservation, replayable certificates, and independent
    # re-verification of certified outputs
    from gsb.rewrite import quotient_dim_oracle

    rng = random.Random(20)
    for _ in range(15):
        rels = []
        for _ in range(rng.randint(1, 3)):
            terms = [
                (
                    tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))),
                    rng.choice((1, -1, 2)),
                )
                for _ in range(rng.randint(2, 3))
            ]
            q = Polynomial(AB, terms)
            if not q.is_zero():
                rels.append(q)
        if not rels:
            continue
        report = shirshov_complete(rels, SPEC, max_deg=6, max_steps=10_000)
        assert report.verify_ideal_preservation()
        # inputs lie in the output's ideal
        for r in rels:
            assert normal_form(r, report.relations, SPEC).is_zero()
        # adding the inputs back changes no quotient dimension
        monic_inputs = [r.make_monic(SPEC) for r in rels]
        for d in range(7):
            assert quotient_dim_oracle(
                AB, report.relations, SPEC, d
            ) == quotient_dim_oracle(AB, list(report.relations) + monic_inputs, SPEC, d)
        if report.status is CompletionStatus.CERTIFIED_GSB:
            assert check_gsb(report.relations, SPEC).is_certificate


def test_hnn_relations_complete_with_zero_additions():
    from gsb.constructions import GroupTable, build_hnn

    result = build_hnn(GroupTable.cyclic(3), 2)
    pres = result.presentation
    report = shirshov_complete(pres.relations, pres.ordering, max_deg=12)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert not report.added
    assert set(report.relations) == set(pres.relations)


# -- outputs pinned across engine changes ------------------------------------

ABC = Alphabet(("a", "b", "c"))
BRAID = ("a*b*a - b*a*b", "b*c*b - c*b*c", "a*c - c*a")

BRAID_DEG8_RELATIONS = [
    "a*c - c*a",
    "b*c*b - c*b*c",
    "a*b*a - b*a*b",
    "a*b*c*a - b*a*b*c",
    "b*c*c*b*c - c*b*c*c*b",
    "a*b*c*c*a - b*a*b*c*c",
    "a*b*b*a*b - b*a*b*b*a",
    "b*c*c*c*b*c - c*b*c*c*b*b",
    "a*b*c*c*c*a - b*a*b*c*c*c",
    "a*b*b*b*a*b - b*a*b*b*a*a",
    "b*c*c*c*c*b*c - c*b*c*c*b*b*b",
    "a*b*c*c*c*c*a - b*a*b*c*c*c*c",
    "a*b*c*c*b*a*b - b*a*b*c*c*b*a",
    "a*b*b*c*a*b*c - b*a*b*b*c*a*b",
    "a*b*b*b*b*a*b - b*a*b*b*a*a*a",
    "b*c*c*c*c*c*b*c - c*b*c*c*b*b*b*b",
    "a*b*c*c*c*c*c*a - b*a*b*c*c*c*c*c",
    "a*b*c*c*c*b*a*b - b*a*b*c*c*c*b*a",
    "a*b*c*c*b*b*a*b - b*a*b*c*c*b*a*a",
    "a*b*b*c*c*a*b*c - b*a*b*b*c*a*b*b",
    "a*b*b*b*c*a*b*c - b*a*b*b*c*a*a*b",
    "a*b*b*b*b*b*a*b - b*a*b*b*a*a*a*a",
]


def test_braid_completion_pinned():
    rels = [p(t, ABC) for t in BRAID]
    report = shirshov_complete(rels, SPEC, max_deg=8)
    assert [str(r) for r in report.relations] == BRAID_DEG8_RELATIONS
    assert report.status_text() == "CompleteUpToDegree(8)"
    assert report.processed == 56
    assert len(report.added) == 19
    assert len(report.removed) == 0
    assert report.verify_ideal_preservation()


_COEFFS = (1, -1, 2, -2, Fraction(1, 2), 3)


def _criterion_1_shaped(seed):
    """One to three relations of up to three terms of degree <= 3, as in
    acceptance criterion 1, over two or three letters."""
    rng = random.Random(seed)
    alphabet = Alphabet(("a", "b", "c")[: rng.choice((2, 3))])
    rels = []
    for _ in range(rng.randint(1, 3)):
        while True:
            terms = [
                (
                    tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, 3))),
                    rng.choice(_COEFFS),
                )
                for _ in range(rng.randint(2, 3))
            ]
            q = Polynomial(alphabet, terms)
            if not q.is_zero():
                rels.append(q)
                break
    return rels


# (seed, processed, relations) of completion to degree 4
PINNED_DEGREE_4 = [
    (0, 0, ["c - 1/8", "b - 1/2"]),
    (1, 0, ["1"]),
    (2, 0, ["a*b + 1/4*a"]),
    (3, 0, ["1"]),
    (
        4,
        11,
        [
            "b*b + 18*a + 11/2*b + 3",
            "b*a - 6*a - 2*b",
            "a*b - 6*a - 2*b",
            "a*a + 2*a + 2/3*b - 1/3",
        ],
    ),
    (5, 1, ["b - 3*c + 7", "a + 1/2*c - 1", "c*c*c - 20/3*c*c + 133/9*c - 100/9"]),
    (6, 3, ["b + 4/5", "a + 7/8"]),
    (7, 0, ["1"]),
    (8, 1, ["a + 2/7", "b*b"]),
    (
        9,
        11,
        [
            "c + 6",
            "b*b - 1/27*a - 18*b - 2/3",
            "b*a - 18*b - 2/3",
            "a*b - 18*b - 2/3",
            "a*a - 18*b",
        ],
    ),
    (10, 1, ["b*b*b + 2*b + 2", "b*a*a + 1/3*b*b*a - 1/3"]),
    (11, 0, ["c", "b", "a + 2"]),
    (12, 0, ["b", "c*c*a"]),
    (13, 0, ["c", "a"]),
    (14, 0, ["1"]),
    (15, 0, ["a + 3"]),
    (16, 3, ["b*c - c*b", "b*b + 1/6*c", "a*c + 2*b*a + 2"]),
    (17, 0, ["c*b*b - 2*a*a + 6*a*c", "a*c*a - 3*a - 1/2*b"]),
    (18, 0, ["a*b*b + a*a - 3/2*a*b"]),
    (19, 4, ["1"]),
    (20, 7, ["b*b*b + 5/2*b*b", "b*b*a - b*b", "b*a*a + 2/5*b*b", "a*a*a - a*a"]),
    (21, 0, ["b - 3/2", "a - 1"]),
    (22, 0, ["a*a*b + b"]),
    (23, 0, ["a*c - 1/2*b*b"]),
    (24, 1, ["c - 1", "a - 3", "b*b + 3*b + 1"]),
    (25, 0, ["a*b + 2*c*b"]),
    (26, 0, ["b + 1", "a + 1"]),
    (27, 3, ["1"]),
    (28, 4, ["a"]),
    (29, 1, ["a + b", "b*b + 3/2"]),
    (
        30,
        10,
        [
            "a + 1/2*c + 1/2",
            "c*b + c*c + c - 1",
            "b*c + c*c + c - 1",
            "b*b - 1/2*c*c + 1/2*b - 1/2*c + 1/2",
            "c*c*c + 2*c*c + 2*b - 1",
        ],
    ),
    (31, 1, ["b - 2", "a*a*a - a"]),
    (32, 0, ["a*b + 1"]),
    (33, 0, ["1"]),
    (34, 3, ["b - 1", "a + 3/28*c + 3/14", "c*c + 2/3"]),
    (35, 0, ["c*a + c*b - 2/3*b"]),
    (36, 1, ["a*a + 4*a"]),
    (37, 5, ["1"]),
    (38, 5, ["b*b + 2/3*c*c", "b*c*c - c*c*b", "b*a*c + 2/3", "c*c*a*c - b"]),
    (39, 1, ["b + 2/3", "a*a + 3/2"]),
]


@pytest.mark.parametrize("seed,processed,relations", PINNED_DEGREE_4)
def test_seeded_completion_pinned(seed, processed, relations):
    report = shirshov_complete(
        _criterion_1_shaped(seed), SPEC, max_deg=4, max_steps=20_000
    )
    assert report.processed == processed
    assert [str(r) for r in report.relations] == relations
    assert report.verify_ideal_preservation()


def test_completion_work_counters():
    rels = [p(t, ABC) for t in BRAID]
    report = shirshov_complete(rels, SPEC, max_deg=8)
    stats = report.stats
    held = {e.relation for e in report.added}
    held |= {r.make_monic(SPEC) for r in rels}
    held |= {e.replacement for e in report.removed if e.replacement is not None}
    # each record that enters the working set is compiled once, however often
    # it is reduced against; a repeated input or a relation rebuilt equal to an
    # earlier one would count again, and this braid input has neither
    assert stats["rules_compiled"] == len(held)
    assert stats["compositions_evaluated"] == report.processed
    assert stats["pairs_enumerated"] >= report.processed
    assert stats["reduction_steps"] > 0
    # the counters stay out of the JSON report
    assert "stats" not in report.to_json_dict()


def test_completion_and_check_reject_mixed_alphabets():
    with pytest.raises(AlphabetMismatchError):
        shirshov_complete([p("a*a - b"), p("a*b - a", ABC)], SPEC)
    with pytest.raises(AlphabetMismatchError):
        check_gsb([p("a*a - b"), p("a*b - a", ABC)], SPEC)
    with pytest.raises(AlphabetMismatchError):
        find_ambiguities([p("a*a - b"), p("a*b - c", ABC)], SPEC)


def test_duplicate_leads_removal_log():
    report = shirshov_complete([p("a*a - b"), p("a*a - a")], SPEC)
    assert [str(r) for r in report.relations] == ["a - b", "b*b - b"]
    assert report.processed == 1
    log = [
        (
            str(e.relation),
            str(e.residual),
            None if e.replacement is None else str(e.replacement),
            [(str(c), str(a), str(s), str(b)) for c, a, s, b in e.decomposition],
        )
        for e in report.removed
    ]
    assert log == [
        ("a*a - b", "a - b", "a - b", [("1", "1", "a*a - a", "1")]),
        (
            "a*a - a",
            "b*b - b",
            "b*b - b",
            [("1", "1", "a - b", "a"), ("1", "b", "a - b", "1"), ("-1", "1", "a - b", "1")],
        ),
    ]
    assert report.verify_ideal_preservation()


# -- byte-identity pins: canonical report dumps -------------------------------
#
# The digests below were generated before the rule index replaced the
# per-rule scans; any change to a relation, an added or removed entry, a
# decomposition, the processing order or a work counter changes them.


def _amb_text(amb):
    if isinstance(amb, Ambiguity):
        return (amb.kind, amb.f_index, amb.g_index, str(amb.w), str(amb.a), str(amb.b))
    return (amb.f_index, amb.g_index, str(amb.a), str(amb.w))


def _decomposition_text(decomposition, spec):
    # a coefficient is written as a constant polynomial, which reads as
    # str(c) but converts digits in chunks below Python's digit limit
    return [
        (
            format_element(Polynomial.unit(AB, c)),
            str(a),
            format_element(s, spec),
            *(str(b) for b in right),
        )
        for c, a, s, *right in decomposition
    ]


def _completion_dump(report):
    spec = report.ordering

    def fmt(x):
        return None if x is None else format_element(x, spec)

    return repr(
        (
            report.status_text(),
            [fmt(r) for r in report.relations],
            [
                (
                    fmt(e.relation),
                    fmt(e.residual),
                    _amb_text(e.ambiguity),
                    fmt(e.f),
                    fmt(e.g),
                    _decomposition_text(e.decomposition, spec),
                )
                for e in report.added
            ],
            [
                (
                    fmt(e.relation),
                    fmt(e.residual),
                    fmt(e.replacement),
                    _decomposition_text(e.decomposition, spec),
                )
                for e in report.removed
            ],
            report.processed,
            [(_amb_text(amb), fmt(res)) for amb, res in report.nontrivial_log],
            sorted(report.stats.items()),
        )
    )


def _check_dump(report):
    spec = report.ordering
    return repr(
        (
            report.is_certificate,
            report.evaluated,
            report.skipped,
            [(_amb_text(amb), format_element(res, spec)) for amb, res in report.nontrivial],
        )
    )


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _binomial_systems(seed, count):
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        rels = []
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            if u != v:
                rels.append(Polynomial(AB, ((u, 1), (v, -1))))
        if rels:
            systems.append(rels)
    return systems


def _completion_family(name):
    if name == "braid":
        rels = [p(t, ABC) for t in BRAID]
        return [shirshov_complete(rels, SPEC, max_deg=d) for d in (8, 9, 10, 11)]
    if name == "criterion_1":
        return [
            shirshov_complete(_criterion_1_shaped(seed), SPEC, max_deg=4, max_steps=20_000)
            for seed in range(40)
        ]
    if name == "hnn_tower":
        from gsb.constructions import GroupTable, build_hnn

        out = []
        for order, bound in ((3, 2), (4, 3)):
            pres = build_hnn(GroupTable.cyclic(order), bound).presentation
            rels = list(pres.relations)
            # reversed input order and a doubled relation exercise interreduction
            out.append(shirshov_complete(rels[::-1] + rels[:1], pres.ordering, max_deg=12))
        return out
    if name == "binomial":
        return [
            shirshov_complete(rels, SPEC, max_deg=6, max_steps=5000)
            for rels in _binomial_systems(18, 30)
        ]
    raise ValueError(name)


COMPLETION_DIGESTS = {
    "braid": "791091c1961d5ba4d15047c375b392545d0cfcd4eda269323469278840fc0932",
    "criterion_1": "e5522855e858faa406a11462fa48c74d4e4f8afe8992e2dafdbe3a9eeacb759e",
    "hnn_tower": "637df25adb7016b43eac9a287b620d55e6dbf79cd0fe773e0762d412c3d686e6",
    "binomial": "aecc78042be9951cb0d1f313ad374ceb15bb9fc35c168e8f6b28349d06957350",
}


@pytest.mark.parametrize("family", sorted(COMPLETION_DIGESTS))
def test_completion_report_dumps_pinned(family):
    reports = _completion_family(family)
    assert all(r.verify_ideal_preservation() for r in reports)
    assert _digest(_completion_dump(r) for r in reports) == COMPLETION_DIGESTS[family]


# coefficients grow to thousands of bits within 49 compositions; the digest
# comes from reduction over Fraction coefficients, so it pins the integer
# rows to the rational results
GROWTH = ("3*b*b*c - a + 1/2", "3*a*c*a + 1/2*b*c*a - 2", "b*a*c + 2*b*c + 3*a")
GROWTH_DIGEST = "c0b69b9070e1e868d528aa32aaeb400993a6dcfe3ec43168883ebab764f04477"


def test_coefficient_growth_dumps_pinned():
    rels = [p(t, ABC) for t in GROWTH]
    reports = [shirshov_complete(rels, SPEC, max_deg=5, max_steps=n) for n in (40, 48, 49)]
    assert all(r.verify_ideal_preservation() for r in reports)
    assert _digest(_completion_dump(r) for r in reports) == GROWTH_DIGEST


# each set holds three relations with one lead, so three rules share one
# node of the rule index until interreduction leaves one of them
SHARED_LEAD = (
    ("a*b - c", "a*b - b*c", "a*b - 2*c*c + a", "b*a - c"),
    ("a*b - 2*c*c + a", "b*a - c", "a*b - c", "a*b - b*c"),
    ("b*c*b - c*b*c", "a*b*a - b*a*b", "a*b*a - c*c", "a*b*a + a*c - b", "a*c - c*a"),
    ("c*a*c - b*b", "c*a*c - b*c", "c*a*c - 1/2*c*c", "a*a - c"),
)
SHARED_LEAD_DIGEST = "157f51b38b90d7586d4bec4fcba2df65ac3f0c18526da8617b5e960690f4fe87"


def test_completion_with_three_relations_on_one_lead_pinned():
    sets = [[p(t, ABC) for t in texts] for texts in SHARED_LEAD]
    for rels in sets:
        engine = _Engine(SPEC, ABC, max_deg=7)
        engine.start([s.make_monic(SPEC) for s in rels])
        held = [h for r in engine.rels for _, _, h in engine.index.factors(r.lead)]
        assert max(map(len, held)) == 3
    reports = [shirshov_complete(rels, SPEC, max_deg=7) for rels in sets]
    assert all(r.verify_ideal_preservation() for r in reports)
    assert _digest(_completion_dump(r) for r in reports) == SHARED_LEAD_DIGEST


def _construction_checks():
    """check_gsb on each construction output, on it without one relation,
    and under a degree bound."""
    from gsb.constructions import (
        GroupTable,
        MultTable,
        SimplePair,
        SimpleStepInput,
        build_hnn,
        build_malcev,
        build_module_cyclic,
        build_simple_step,
    )
    from gsb.modules import module_check_gsb
    from gsb.orderings import ModuleTop
    from gsb.poly import parse_module_element
    from gsb.presentation import ModulePresentation, Presentation
    from gsb.words import ModuleBasis

    X3 = Alphabet(("x1", "x2", "x3"))
    x3_basis = shirshov_complete(
        [parse_polynomial("x1*x2 - x3", X3), parse_polynomial("x2*x1 - x3", X3)], SPEC, max_deg=6
    )
    table = MultTable(("x1", "x2"), {(1, 1): "x1", (1, 2): "x1", (2, 1): "x2", (2, 2): "x2"})
    base = table.base_alphabet()
    pairs = SimpleStepInput(
        (
            SimplePair(parse_polynomial("x1", base), parse_polynomial("x2", base), "u1", "v1"),
            SimplePair(
                parse_polynomial("x2 + 1", base), parse_polynomial("x1 - x2", base), "u2", "v2"
            ),
        )
    )
    module_base = ModulePresentation(AB, ModuleBasis(("y1", "y2", "y3")), ModuleTop(), ())
    results = [
        (build_hnn(GroupTable.cyclic(3), 2), check_gsb),
        (build_malcev(Presentation(X3, SPEC, x3_basis.relations), 3), check_gsb),
        (build_simple_step(table, pairs, m_bound=2, n_bound=1), check_gsb),
        (build_module_cyclic(module_base, 3), module_check_gsb),
    ]
    lines = []
    for result, check in results:
        pres = result.presentation
        rels = list(pres.relations)
        if check is module_check_gsb:
            # the cyclic module's leads divide none another; these do
            extra = ("b*y - y1", "a*y1 - 2*y2 + y3", "b*b*y2 - a*y")
            rels += [
                parse_module_element(t, pres.alphabet, pres.basis).make_monic(pres.ordering)
                for t in extra
            ]
        lines.append(_check_dump(result.report))
        lines.append(_check_dump(check(rels, pres.ordering)))
        for drop in (0, len(rels) // 2, len(rels) - 1):
            lines.append(_check_dump(check(rels[:drop] + rels[drop + 1 :], pres.ordering)))
        lines.append(_check_dump(check(rels, pres.ordering, max_deg=3)))
    return lines


CHECK_DIGEST = "f37df37b4c24f42b95214fd5db6ce59167309803caa95b3eb56eb1a7210f06ea"


def test_construction_check_reports_pinned():
    assert _digest(_construction_checks()) == CHECK_DIGEST


def _scan_sets():
    """Seeded monic sets over two and three letters, among them the empty
    set, sets with a repeated relation and sets with two relations of one
    lead."""
    rng = random.Random(1919)
    sets = [[]]
    while len(sets) < 120:
        A = (AB, ABC)[len(sets) % 2]
        rels = []
        for _ in range(rng.randint(1, 4)):
            words = {
                tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 3))
            }
            q = Polynomial(A, [(u, rng.choice((1, -1, 2, Fraction(1, 2), 3))) for u in words])
            if not q.is_zero():
                rels.append(q.make_monic(SPEC))
        if not rels:
            continue
        if len(sets) % 3 == 0:
            rels.append(rels[0])
        if len(sets) % 4 == 0:
            rels.append((rels[-1] + Polynomial.unit(A, 1)).make_monic(SPEC))
        sets.append(rels)
    return sets


def _scan_dump(rels):
    lines = [repr([_amb_text(amb) for amb in find_ambiguities(rels, SPEC)])]
    for max_deg in (None, 2, 3, 5):
        report = check_gsb(rels, SPEC, max_deg)
        lines.append(_check_dump(report))
        lines.append(repr((report.max_deg, [format_element(r, SPEC) for r in report.relations])))
    return "\n".join(lines)


# taken before find_ambiguities and check_gsb became wrappers over one scan
SCAN_DIGEST = "775fddeec23897944ec73015b782f6af2df4e318f22547bc1a6336e8a7b43188"


def test_find_ambiguities_and_check_reports_pinned():
    sets = _scan_sets()
    assert sum(len({r.leading_word(SPEC) for r in rels}) < len(rels) for rels in sets) >= 40
    assert _digest(_scan_dump(rels) for rels in sets) == SCAN_DIGEST


def test_braid_degree_10_counters_pinned():
    report = shirshov_complete([p(t, ABC) for t in BRAID], SPEC, max_deg=10)
    assert report.stats == {
        "pairs_enumerated": 1480,
        "compositions_evaluated": 169,
        "reduction_steps": 623,
        "rules_compiled": 47,
    }


def test_braid_degree_14_pinned():
    report = shirshov_complete([p(t, ABC) for t in BRAID], SPEC, max_deg=14)
    assert report.status_text() == "CompleteUpToDegree(14)"
    assert len(report.relations) == 254
    text = "\n".join(str(r) for r in report.relations)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ad4ee7c3b5dac06b59547bdefdd509f900c5a36d77930204ce11cb4914dc7f99"
    )
    assert report.stats == {
        "pairs_enumerated": 34731,
        "compositions_evaluated": 1372,
        "reduction_steps": 9518,
        "rules_compiled": 254,
    }


def test_braid_degree_16_pinned():
    # deep enough that most routed pairs lie above the bound and redex
    # search runs over several hundred leads
    report = shirshov_complete([p(t, ABC) for t in BRAID], SPEC, max_deg=16)
    assert report.status_text() == "CompleteUpToDegree(16)"
    assert len(report.relations) == 635
    text = "\n".join(str(r) for r in report.relations)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a936f931579dd88c26770a4933fa871a6b319ac60205d15658afae4b2a544b48"
    )
    assert report.stats == {
        "pairs_enumerated": 190135,
        "compositions_evaluated": 3821,
        "reduction_steps": 31613,
        "rules_compiled": 635,
    }
    # the bounded check of the output builds only the overlaps it evaluates
    check = check_gsb(report.relations, SPEC, 16)
    assert (check.evaluated, check.skipped, check.nontrivial) == (3189, 186946, ())


def test_degree_bounded_status_equals_overlap_scan_of_final_leads():
    # CompleteUpToDegree exactly when two final leads (or one with itself)
    # overlap on a word longer than the bound
    outcomes = Counter()
    for seed in range(300):
        max_deg = 2 + seed % 4
        report = shirshov_complete(
            _criterion_1_shaped(1000 + seed), SPEC, max_deg=max_deg, max_steps=20_000
        )
        leads = [r.leading_word(SPEC).letters for r in report.relations]
        above = any(
            len(w) > max_deg
            for i, f in enumerate(leads)
            for j, g in enumerate(leads)
            for _kind, w, _a, _b in _overlaps(f, g, i != j)
        )
        assert report.status is not CompletionStatus.BUDGET_EXHAUSTED
        assert (report.status is CompletionStatus.COMPLETE_UP_TO_DEGREE) == above
        outcomes[report.status] += 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 2


# -- indexed overlap discovery against the pairwise scan ---------------------


def _random_leads(rng):
    """Up to seven leads over two or three letters: some repeated, some
    inside others, now and then the empty word."""
    letters = rng.randint(2, 3)
    leads = [
        tuple(rng.randrange(letters) for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4, 5))))
        for _ in range(rng.randint(1, 7))
    ]
    if rng.random() < 0.3:
        leads.append(rng.choice(leads))
    return letters, leads


def test_all_overlaps_equal_pairwise_scan():
    # each case runs unbounded and with a random bound: the scan keeps the
    # overlaps on at most max_deg letters and counts the rest
    rng = random.Random(71)
    bounds = random.Random(73)
    keyf = SPEC.letter_key(ABC)
    kinds = Counter()
    for _ in range(400):
        _, leads = _random_leads(rng)
        expected = Counter()
        for i, f in enumerate(leads):
            for j, g in enumerate(leads):
                inclusion = i != j and (len(g) < len(f) or (len(g) == len(f) and i < j))
                for kind, w, a, b in _overlaps(f, g, inclusion):
                    expected[(kind, i, j, w, a, b)] += 1
        rules = [_Rule({lead: 1}, lead, i) for i, lead in enumerate(leads)]
        index = _RuleIndex(rules)
        for max_deg in (None, bounds.choice((None, *range(7)))):
            found, skipped = _all_overlaps(rules, index, keyf, max_deg)
            kept = Counter(
                {e: n for e, n in expected.items() if max_deg is None or len(e[3]) <= max_deg}
            )
            assert Counter(found) == kept
            assert skipped == sum(expected.values()) - sum(kept.values())
            order = [(keyf(w), i, j, kind, len(a)) for kind, i, j, w, a, b in found]
            assert order == sorted(order)
        kinds.update(kind for kind, *_ in expected.elements())
    assert min(kinds.values()) > 500


def test_engine_pairing_equals_pairwise_scan():
    # relations enter unreduced, with leads repeated and inside one another;
    # pairing runs on the set interreduction leaves, as in a completion
    rng = random.Random(72)
    removed = 0
    inclusions = 0
    for _ in range(300):
        letters, leads = _random_leads(rng)
        A = ABC if letters == 3 else AB
        polys = []
        for lead in leads:
            # the lead plus a smaller word keeps ``lead`` leading
            smaller = lead[1:] if lead else None
            terms = [(lead, 1)] + ([(smaller, rng.choice((-1, 2)))] if smaller is not None else [])
            polys.append(Polynomial(A, terms))
        engine = _Engine(SPEC, A, max_deg=20)
        engine.start(polys)
        log = []
        engine.interreduce(log)
        engine.sort()
        removed += len(log)
        routed = Counter()
        engine.queue = lambda entry: routed.update([entry])
        engine.update()
        expected = Counter()
        for f in engine.rels:
            for g in engine.rels:
                for kind, w, _a, _b in _overlaps(f.lead, g.lead, f is not g):
                    expected[(f, g, w)] += 1
                    inclusions += kind == INCLUSION
        # a queued pair is (f, g, w): its context is read off w when popped
        assert routed == expected
        # every word is within the bound, so each counted pair is queued
        assert engine.stats["pairs_enumerated"] == sum(expected.values())
    # no lead is inside another, yet the nested leads were there to remove
    assert inclusions == 0
    assert removed > 100


def test_engine_pops_proper_intersections_in_ascending_order():
    # the queue of an interreduced set, drained: each pair is an intersection
    # fixed by (f, g, w), and pops come smallest first by (w, lead f, lead g)
    rng = random.Random(74)
    popped = 0
    for _ in range(300):
        letters, leads = _random_leads(rng)
        A = ABC if letters == 3 else AB
        polys = [
            Polynomial(A, [(lead, 1)] + ([(lead[1:], rng.choice((-1, 2)))] if lead else []))
            for lead in leads
        ]
        engine = _Engine(SPEC, A, max_deg=rng.choice((4, 6, 20)))
        engine.start(polys)
        engine.interreduce([])
        engine.sort()
        engine.update()
        order = []
        while (entry := engine.pop()) is not None:
            f, g, w = entry
            assert w[: len(f.lead)] == f.lead and w[len(w) - len(g.lead) :] == g.lead
            assert max(len(f.lead), len(g.lead)) < len(w) < len(f.lead) + len(g.lead)
            assert len(w) <= engine.max_deg
            order.append((engine.keyf(w), f.key, g.key))
        assert order == sorted(order) and len(set(order)) == len(order)
        popped += len(order)
    assert popped > 200


def _interreduce_by_scan(polys):
    """The interreduction the engine must reproduce: scan from the front for
    a relation with another relation's lead inside a support word, rewrite
    it by all the others, and restart; returns the set and the removal log."""
    rels = sorted(polys, key=lambda s: SPEC.key(s.leading_word(SPEC)))
    log = []
    i = 0
    while i < len(rels):
        r = rels[i]
        others = rels[:i] + rels[i + 1 :]
        factors = {
            u[k:m] for u in r.raw_terms() for k in range(len(u) + 1) for m in range(k, len(u) + 1)
        }
        if not any(s.leading_word(SPEC).letters in factors for s in others):
            i += 1
            continue
        nf, trace = normal_form_with_trace(r, others, SPEC)
        steps = [
            (str(s.coefficient), str(s.left), str(others[s.rule]), str(s.right))
            for s in trace.steps
        ]
        if nf.is_zero():
            log.append((str(r), str(nf), None, steps))
            del rels[i]
        else:
            log.append((str(r), str(nf), str(nf.make_monic(SPEC)), steps))
            rels[i] = nf.make_monic(SPEC)
        i = 0
    return [str(s) for s in rels], log


def test_engine_interreduction_equals_restarting_scan():
    rng = random.Random(73)
    rewritten = 0
    for _ in range(300):
        polys = [r.make_monic(SPEC) for r in _criterion_1_shaped(rng.randrange(10**6))]
        if rng.random() < 0.3:
            polys.append(rng.choice(polys))
        engine = _Engine(SPEC, polys[0].alphabet, max_deg=8)
        engine.start(polys)
        removed = []
        engine.interreduce(removed)
        log = [
            (
                str(e.relation),
                str(e.residual),
                None if e.replacement is None else str(e.replacement),
                [(str(c), str(a), str(s), str(b)) for c, a, s, b in e.decomposition],
            )
            for e in removed
        ]
        assert ([str(r.poly) for r in engine.rels], log) == _interreduce_by_scan(polys)
        rewritten += len(log)
    assert rewritten > 200



def _random_support(rng, A):
    """A nonzero monic relation of two to four words, each ending or
    starting in letter 0 half the time."""
    while True:
        terms = []
        for _ in range(rng.randint(2, 4)):
            u = [rng.randrange(A.size) for _ in range(rng.randint(0, 4))]
            if u and rng.random() < 0.5:
                u[rng.choice((0, -1))] = 0
            terms.append((tuple(u), rng.choice((1, -1, 2, Fraction(1, 2)))))
        s = Polynomial(A, terms)
        if not s.is_zero():
            return s.make_monic(SPEC)


def _is_factor(f, u):
    return any(u[i : i + len(f)] == f for i in range(len(u) - len(f) + 1))


def test_new_lead_marks_exactly_the_relations_containing_it():
    # the candidates are found on a string of each support; a lead that
    # spans two of its words must not match, and none inside one may be missed
    rng = random.Random(75)
    hits = spans = 0
    for k in range(400):
        A = ABC if k % 2 else AB
        engine = _Engine(SPEC, A, max_deg=8)
        engine.start([_random_support(rng, A) for _ in range(rng.randint(2, 6))])
        engine.interreduce([])
        engine.sort()
        assert not engine._dirty
        rel = engine.compile(_random_support(rng, A))
        engine.append(rel)
        f = rel.lead
        expected = {rel} | {
            r for r in engine.rels if any(_is_factor(f, u) for u in r.poly.raw_terms())
        }
        assert engine._dirty == expected
        hits += len(expected) - 1
        for r in engine.rels:
            words = list(r.poly.raw_terms())
            if r not in expected and any(
                _is_factor(f, u + v) for u in words for v in words if u != v
            ):
                spans += 1
    assert hits > 100
    assert spans > 50


# -- no relation comes back once pairing has begun ---------------------------


def _record_reentries(monkeypatch):
    """Wrap ``_Engine`` so each engine logs relations that enter again after
    leaving, as ``(after_seed, polynomial)``; a relation is matched by its
    polynomial, so a fresh record of a departed relation counts."""
    log = {}
    enter, leave, seed = _Engine._enter, _Engine._leave, _Engine.seed

    def state(engine):
        return log.setdefault(engine, {"seeded": False, "left": set(), "back": [], "leaves": 0})

    def _enter(self, rel, rank):
        s = state(self)
        if rel.poly in s["left"]:
            s["back"].append((s["seeded"], rel.poly))
        enter(self, rel, rank)

    def _leave(self, rel):
        s = state(self)
        s["left"].add(rel.poly)
        if s["seeded"]:
            s["leaves"] += 1
        leave(self, rel)

    def _seed(self):
        state(self)["seeded"] = True
        seed(self)

    monkeypatch.setattr(_Engine, "_enter", _enter)
    monkeypatch.setattr(_Engine, "_leave", _leave)
    monkeypatch.setattr(_Engine, "seed", _seed)
    return log


def test_relation_comes_back_only_before_seed(monkeypatch):
    log = _record_reentries(monkeypatch)
    shirshov_complete([p("a*a - c", ABC), p("a*a - b", ABC)], SPEC)
    (s,) = log.values()
    # a*a - c leaves as b - c, and a*a - b is then rewritten to a*a - c
    assert s["back"] == [(False, p("a*a - c", ABC))]


def _module_sets(seed, count):
    from gsb.orderings import ModuleTop, Tower
    from gsb.poly import ModuleElement
    from gsb.words import ModuleBasis

    rng = random.Random(seed)
    tower = Alphabet(("t", "t^-1", "a", "b"))
    setups = [
        (AB, ModuleBasis(("y",)), ModuleTop()),
        (tower, ModuleBasis(("y1", "y2")), ModuleTop(Tower("t", "t^-1"))),
    ]
    for k in range(count):
        A, B, spec = setups[k % 2]
        rels = []
        while not rels:
            for _ in range(rng.randint(1, 4)):
                terms = [
                    (
                        (
                            tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 3))),
                            rng.randrange(B.size),
                        ),
                        rng.choice((1, -1, 2, Fraction(1, 2))),
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                elt = ModuleElement(A, B, terms)
                if not elt.is_zero():
                    rels.append(elt)
        if rng.random() < 0.3:
            rels.append(rng.choice(rels))
        yield rels, spec


def test_no_relation_reenters_after_seed(monkeypatch):
    from gsb.modules import module_complete

    log = _record_reentries(monkeypatch)
    for family in sorted(COMPLETION_DIGESTS):
        _completion_family(family)
    for rels, spec in _module_sets(74, 120):
        module_complete(rels, spec, max_deg=3)
    assert len(log) == 76 + 120
    assert all(s["seeded"] for s in log.values())
    assert [back for s in log.values() for seeded, back in s["back"] if seeded] == []
    # relations do leave after seed, and some come back before it
    assert sum(s["leaves"] for s in log.values()) > 40
    assert any(s["back"] for s in log.values())
