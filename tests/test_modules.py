import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from gsb.completion import CompletionStatus
from gsb.errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    LimitError,
    NonMonicRelationError,
    ZeroPolynomialError,
)
from gsb.modules import (
    module_ambiguities,
    module_check_gsb,
    module_complete,
    module_composition,
    module_irr,
    module_nf,
    module_nf_with_trace,
)
from gsb.orderings import ModuleTop, Tower, compare_module
from gsb.poly import (
    ModuleElement,
    Polynomial,
    act,
    format_module_element,
    parse_module_element,
)
from gsb.words import Alphabet, ModuleBasis, ModuleWord, Word, module_code

AB = Alphabet(("a", "b"))
Y = ModuleBasis(("y1", "y2", "y3"))
SPEC = ModuleTop()


def m(text):
    return parse_module_element(text, AB, Y)


def test_module_nf_example():
    out = module_nf(m("b*a*y1"), [m("a*y1 - y2")], SPEC)
    assert out == m("b*y2")


def test_module_nf_suffix_only():
    # reduction anchors at the suffix: a*b*y1 is irreducible for lead b*a*y1
    rels = [m("b*a*y1 - y2")]
    assert module_nf(m("a*b*y1"), rels, SPEC) == m("a*b*y1")
    assert module_nf(m("a*b*a*y1"), rels, SPEC) == m("a*y2")


def test_module_nf_requires_monic():
    with pytest.raises(NonMonicRelationError):
        module_nf(m("y1"), [m("2*a*y1 - y2")], SPEC)


def test_module_trace_replays():
    rels = [m("a*y1 - y2"), m("b*y2 - y3")]
    elt = m("b*a*y1 + a*y1 - y3")
    nf, trace = module_nf_with_trace(elt, rels, SPEC)
    assert trace.reconstruct(rels) == elt
    assert module_nf(nf, rels, SPEC) == nf


def test_module_ambiguities_examples():
    f = m("a*b*y1 - y2")
    g = m("b*y1 - y3")
    ambs = module_ambiguities([f, g], SPEC)
    assert len(ambs) == 1
    assert (ambs[0].f_index, ambs[0].g_index, str(ambs[0].a)) == (0, 1, "a")

    assert module_ambiguities([m("a*y1 - y3"), m("a*y2 - y3")], SPEC) == []
    assert module_ambiguities([m("a*b*y1 - y2"), m("a*y1 - y3")], SPEC) == []


def test_module_ambiguities_equal_leads_once():
    ambs = module_ambiguities([m("a*y1 - y2"), m("a*y1 - y3")], SPEC)
    assert len(ambs) == 1
    assert (ambs[0].f_index, ambs[0].g_index) == (0, 1)
    assert ambs[0].a.is_empty()


def test_module_composition_cancels_leading():
    f = m("a*b*y1 - y2")
    g = m("b*y1 - y3")
    h = module_composition(f, g, AB.word("a"))
    assert h == m("a*y3 - y2")


def test_module_complete_empty_and_simple():
    report = module_complete([], SPEC)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert report.relations == ()

    report = module_complete([m("a*b*y1 - y2"), m("b*y1 - y3")], SPEC)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert module_check_gsb(report.relations, SPEC).is_certificate
    # the overlap residual a*y3 - y2 joins the basis
    assert m("a*y3 - y2") in report.relations
    assert module_nf(m("a*b*y1"), report.relations, SPEC) == module_nf(
        act(Polynomial.parse("a", AB), m("b*y1")), report.relations, SPEC
    )


def test_module_check_rejects_nonpositive_degree_bound():
    for bad in (0, -3):
        with pytest.raises(LimitError):
            module_check_gsb([m("a*y1 - y2")], SPEC, max_deg=bad)
    # the bound is on prefix degree: a*b*y1 has degree 2
    report = module_check_gsb([m("a*b*y1 - y2"), m("b*y1 - y3")], SPEC, max_deg=1)
    assert (report.evaluated, report.skipped, report.max_deg) == (0, 1, 1)


def test_module_complete_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        module_complete([ModuleElement.zero(AB, Y)], SPEC)


def test_module_irr():
    rels = [m("a*y1 - y2")]
    words = module_irr(AB, Y, rels, SPEC, 1)
    names = [str(w) for w in words]
    # all prefix-degree <= 1 module words except a*y1
    assert "a*y1" not in names
    assert len(names) == 3 + 2 * 3 - 1
    assert names[0] == "y3"  # least: empty prefix, least generator
    assert len(module_irr(AB, Y, [], SPEC, 2)) == 7 * 3


def _module_rank_oracle(alphabet, basis, relations, spec, max_deg):
    """Exact elimination over the rows a*t, independent of the rewriting path."""
    from fractions import Fraction
    from itertools import product

    wkey = spec.word_order.letter_key(alphabet)

    def keyf(k):
        return (wkey(k[0]), -k[1])

    pivots = {}
    rank = 0
    for t in relations:
        lead_deg = t.leading_word(spec).degree
        for da in range(max_deg - lead_deg + 1):
            for a in product(range(alphabet.size), repeat=da):
                row = {(a + w, g): c for (w, g), c in t.raw_terms().items()}
                while row:
                    key = max(row, key=keyf)
                    piv = pivots.get(key)
                    if piv is None:
                        c = row[key]
                        pivots[key] = {k: v / c for k, v in row.items()}
                        rank += 1
                        break
                    c = row.pop(key)
                    for k, v in piv.items():
                        if k == key:
                            continue
                        nv = row.get(k, Fraction(0)) - c * v
                        if nv:
                            row[k] = nv
                        else:
                            row.pop(k, None)
    nwords = sum(alphabet.size**d for d in range(max_deg + 1))
    return nwords * basis.size - rank


def test_module_irr_counts_match_rank_oracle():
    rng = random.Random(21)
    for _ in range(15):
        rels = []
        for _ in range(rng.randint(1, 3)):
            terms = [
                (
                    (tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))), rng.randrange(3)),
                    rng.choice((1, -1, 2)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            elt = ModuleElement(AB, Y, terms)
            if not elt.is_zero():
                rels.append(elt)
        if not rels:
            continue
        report = module_complete(rels, SPEC, max_deg=5, max_steps=5000)
        if report.status is not CompletionStatus.CERTIFIED_GSB:
            continue
        for d in range(5):
            assert len(module_irr(AB, Y, report.relations, SPEC, d)) == _module_rank_oracle(
                AB, Y, report.relations, SPEC, d
            )


def test_leading_of_action_concatenates():
    # left compatibility makes leading words multiplicative
    rng = random.Random(19)
    for _ in range(200):
        pterms = [
            (tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))), rng.choice((1, -1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        mterms = [
            ((tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))), rng.randrange(3)), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        ]
        p = Polynomial(AB, pterms)
        elt = ModuleElement(AB, Y, mterms)
        if p.is_zero() or elt.is_zero() or act(p, elt).is_zero():
            continue
        from gsb.orderings import DegLex

        lead = act(p, elt).leading_word(SPEC)
        expect_prefix = p.leading_word(DegLex()) * elt.leading_word(SPEC).prefix
        assert lead.prefix == expect_prefix
        assert lead.generator == elt.leading_word(SPEC).generator


# -- behaviour pinned before the module calls moved onto the algebra engine --

SHARED = Alphabet(("a", "y"))
SHARED_Y = ModuleBasis(("y",))
TOWER_A = Alphabet(("t", "t^-1", "a", "b"))
TOWER_Y = ModuleBasis(("y1", "y2"))
TOWER_SPEC = ModuleTop(Tower("t", "t^-1"))


def _fmt(x, spec=SPEC):
    return None if x is None else format_module_element(x, spec)


def _removals(report, spec=SPEC):
    return [
        (
            _fmt(e.relation, spec),
            _fmt(e.residual, spec),
            _fmt(e.replacement, spec),
            [(str(c), str(a), _fmt(s, spec)) for c, a, s in e.decomposition],
        )
        for e in report.removed
    ]


def _residuals(report, spec=SPEC):
    return [
        (amb.f_index, amb.g_index, str(amb.a), str(amb.w), _fmt(h, spec))
        for amb, h in report.nontrivial
    ]


def _steps(trace):
    return [(s.rule, str(s.left), str(s.rewritten), str(s.coefficient)) for s in trace.steps]


COMPLETION_PINS = [
    (
        AB, Y, SPEC,
        ["a*b*y1 - y2", "b*y1 - y3"],
        ["b*y1 - y3", "a*y3 - y2"],
        [("a*b*y1 - y2", "a*y3 - y2", "a*y3 - y2", [("1", "a", "b*y1 - y3")])],
    ),
    (
        AB, Y, SPEC,
        ["b*a*y1 - y2", "a*y1 - y3", "y2 - 1/2*b*y3", "a*b*y2 - y1"],
        ["y3", "y2", "y1"],
        [
            ("b*a*y1 - y2", "y2", "y2", [("1", "b", "a*y1 - y3"), ("1", "1", "b*y3 - 2*y2")]),
            ("b*y3 - 2*y2", "b*y3", "b*y3", [("-2", "1", "y2")]),
            ("a*b*y2 - y1", "-y1", "y1", [("1", "a*b", "y2")]),
            ("a*y1 - y3", "-y3", "y3", [("1", "a", "y1")]),
            ("b*y3", "0", None, [("1", "b", "y3")]),
        ],
    ),
    (
        AB, Y, SPEC,
        ["2*a*y1 - y2", "a*y1 + y3", "b*y2 - a*a*y3"],
        ["y2 + 2*y3", "a*y1 + y3", "a*a*y3 + 2*b*y3"],
        [
            ("a*y1 - 1/2*y2", "-1/2*y2 - y3", "y2 + 2*y3", [("1", "1", "a*y1 + y3")]),
            ("a*a*y3 - b*y2", "a*a*y3 + 2*b*y3", "a*a*y3 + 2*b*y3", [("-1", "b", "y2 + 2*y3")]),
        ],
    ),
    (
        SHARED, SHARED_Y, SPEC,
        ["y*a*y - a*y", "a*y*y - y", "y*y - 2*a*y"],
        ["a*y - 1/2*y*y", "y*y*y - y*y", "a*y*y - y"],
        [
            (
                "y*a*y - a*y",
                "1/2*y*y*y - 1/2*y*y",
                "y*y*y - y*y",
                [("1", "y", "a*y - 1/2*y*y"), ("-1", "1", "a*y - 1/2*y*y")],
            )
        ],
    ),
    (
        TOWER_A, TOWER_Y, TOWER_SPEC,
        ["t*a*y1 - b*b*b*y1", "a*y1 - t^-1*y2", "t*t^-1*y2 - a*a*y1"],
        ["b*b*b*y1 - a*a*y1", "t^-1*y2 - a*y1", "t*a*y1 - a*a*y1"],
        [
            (
                "t*t^-1*y2 - a*a*y1",
                "b*b*b*y1 - a*a*y1",
                "b*b*b*y1 - a*a*y1",
                [("1", "t", "t^-1*y2 - a*y1"), ("1", "1", "t*a*y1 - b*b*b*y1")],
            ),
            (
                "t*a*y1 - b*b*b*y1",
                "t*a*y1 - a*a*y1",
                "t*a*y1 - a*a*y1",
                [("-1", "1", "b*b*b*y1 - a*a*y1")],
            ),
        ],
    ),
]


@pytest.mark.parametrize("A,B,spec,texts,relations,removed", COMPLETION_PINS)
def test_module_complete_pinned(A, B, spec, texts, relations, removed):
    report = module_complete([parse_module_element(t, A, B) for t in texts], spec)
    assert report.status is CompletionStatus.CERTIFIED_GSB
    assert (report.processed, report.added, report.nontrivial_log) == (0, (), ())
    assert [_fmt(s, spec) for s in report.relations] == relations
    assert _removals(report, spec) == removed
    assert report.verify_ideal_preservation()


CHECK_PINS = [
    # the leads a*y1 and b*a*y1 both divide b*a*y1: the lower rule index rewrites
    (
        AB, Y, SPEC, None,
        ["a*y1 - y2", "b*a*y1 - y3", "a*a*y1 - 2*y3"],
        (2, 0),
        [(1, 0, "b", "b*a*y1", "b*y2 - y3"), (2, 0, "a", "a*a*y1", "a*y2 - 2*y3")],
    ),
    (
        AB, Y, SPEC, None,
        ["b*a*y1 - y2", "a*y1 - y3", "y2 - 1/2*b*y3", "a*b*y2 - y1"],
        (1, 0),
        [(0, 1, "b", "b*a*y1", "y2")],
    ),
    (AB, Y, SPEC, None, ["2*a*y1 - y2", "a*y1 + y3"], (1, 0), [(0, 1, "1", "a*y1", "-1/2*y2 - y3")]),
    (
        SHARED, SHARED_Y, SPEC, None,
        ["y*a*y - a*y", "a*y*y - y", "y*y - 2*a*y"],
        (1, 0),
        [(0, 2, "y", "y*a*y", "1/2*y*y*y - 1/2*y*y")],
    ),
    (
        TOWER_A, TOWER_Y, TOWER_SPEC, 2,
        ["t*a*y1 - b*b*b*y1", "a*y1 - t^-1*y2", "t*t^-1*y2 - a*a*y1"],
        (1, 0),
        [(2, 1, "t", "t*t^-1*y2", "b*b*b*y1 - a*a*y1")],
    ),
    (
        TOWER_A, TOWER_Y, TOWER_SPEC, 1,
        ["t*a*y1 - b*b*b*y1", "a*y1 - t^-1*y2", "t*t^-1*y2 - a*a*y1"],
        (0, 1),
        [],
    ),
]


@pytest.mark.parametrize("A,B,spec,max_deg,texts,counts,residuals", CHECK_PINS)
def test_module_check_residuals_pinned(A, B, spec, max_deg, texts, counts, residuals):
    rels = [parse_module_element(t, A, B).make_monic(spec) for t in texts]
    report = module_check_gsb(rels, spec, max_deg=max_deg)
    assert (report.evaluated, report.skipped) == counts
    assert _residuals(report, spec) == residuals
    assert report.relations == tuple(rels)
    assert report.max_deg == max_deg


TRACE_PINS = [
    (
        AB, Y, SPEC,
        ["a*y1 - y2", "b*a*y1 - y3", "a*a*y1 - 2*y3"],
        "b*a*a*y1 + b*a*y1",
        "b*a*y2 + b*y2",
        [(0, "b*a", "b*a*a*y1", "1"), (0, "b", "b*a*y1", "1")],
    ),
    (
        AB, Y, SPEC,
        ["b*a*y1 - y2", "a*y1 - y3", "y2 - 1/2*b*y3", "a*b*y2 - y1"],
        "a*b*a*y1 - 3*b*y2",
        "a*y2 - 3*b*y2",
        [(0, "a", "a*b*a*y1", "1")],
    ),
    (
        SHARED, SHARED_Y, SPEC,
        ["y*a*y - a*y", "a*y*y - y", "y*y - 2*a*y"],
        "y*y*a*y + a*y*a*y",
        "1/2*y*y + 1/2*y",
        [
            (0, "a", "a*y*a*y", "1"),
            (0, "y", "y*y*a*y", "1"),
            (2, "a", "a*a*y", "1"),
            (1, "1", "a*y*y", "1/2"),
            (0, "1", "y*a*y", "1"),
            (2, "1", "a*y", "1"),
        ],
    ),
    (
        TOWER_A, TOWER_Y, TOWER_SPEC,
        ["t*a*y1 - b*b*b*y1", "a*y1 - t^-1*y2", "t*t^-1*y2 - a*a*y1"],
        "t*t*a*y1 - a*t*a*y1",
        "t*b*b*b*y1 - a*b*b*b*y1",
        [(0, "t", "t*t*a*y1", "1"), (0, "a", "a*t*a*y1", "-1")],
    ),
]


@pytest.mark.parametrize("A,B,spec,texts,x,nf,steps", TRACE_PINS)
def test_module_nf_trace_pinned(A, B, spec, texts, x, nf, steps):
    rels = [parse_module_element(t, A, B).make_monic(spec) for t in texts]
    elt = parse_module_element(x, A, B)
    out, trace = module_nf_with_trace(elt, rels, spec)
    assert _fmt(out, spec) == nf
    assert _steps(trace) == steps
    assert trace.reconstruct(rels) == elt
    assert module_nf(elt, rels, spec) == out


def test_shared_name_alphabet_and_basis():
    # the alphabet letter y and the basis generator y are different symbols
    rels = [parse_module_element("a*y - y*y", SHARED, SHARED_Y)]
    assert module_nf(parse_module_element("a*a*y", SHARED, SHARED_Y), rels, SPEC) == (
        parse_module_element("a*y*y", SHARED, SHARED_Y)
    )
    words = [str(w) for w in module_irr(SHARED, SHARED_Y, rels, SPEC, 2)]
    assert words == ["y", "y*y", "y*y*y", "a*y*y"]
    ambs = module_ambiguities(rels + [parse_module_element("y*a*y - y", SHARED, SHARED_Y)], SPEC)
    assert [(x.f_index, x.g_index, str(x.a), str(x.w)) for x in ambs] == [(1, 0, "y", "y*a*y")]


def test_tower_module_irr_order():
    rels = [parse_module_element("t*y1 - a*y2", TOWER_A, TOWER_Y)]
    words = [str(w) for w in module_irr(TOWER_A, TOWER_Y, rels, TOWER_SPEC, 1)]
    # tower weight: words without a stable letter come first
    assert words == [
        "y2", "y1", "b*y2", "b*y1", "a*y2", "a*y1", "t^-1*y2", "t^-1*y1", "t*y2",
    ]


def test_module_mixed_input_raises():
    other_a = Alphabet(("a", "c"))
    other_y = ModuleBasis(("y1", "y2"))
    f = m("a*y1 - y2")
    g_alpha = parse_module_element("c*y1 - y2", other_a, Y)
    g_basis = parse_module_element("a*y1 - y2", AB, other_y)
    with pytest.raises(AlphabetMismatchError):
        module_nf(m("a*y1"), [f, g_alpha], SPEC)
    with pytest.raises(BasisMismatchError):
        module_nf(m("a*y1"), [f, g_basis], SPEC)
    with pytest.raises(AlphabetMismatchError):
        module_complete([f, g_alpha], SPEC)
    with pytest.raises(BasisMismatchError):
        module_complete([f, g_basis], SPEC)
    with pytest.raises(AlphabetMismatchError):
        module_irr(AB, Y, [f, g_alpha], SPEC, 1)
    with pytest.raises(BasisMismatchError):
        module_irr(AB, Y, [g_basis], SPEC, 1)


def _random_module_set(rng, A, B):
    rels = []
    while not rels:
        for _ in range(rng.randint(1, 4)):
            elt = ModuleElement(
                A,
                B,
                [
                    (
                        (
                            tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 3))),
                            rng.randrange(B.size),
                        ),
                        Fraction(rng.choice((1, -1, 2, -2, 3, "1/2"))),
                    )
                    for _ in range(rng.randint(1, 4))
                ],
            )
            if not elt.is_zero():
                rels.append(elt)
    return rels


SETUPS = [(AB, Y, SPEC), (SHARED, SHARED_Y, SPEC), (TOWER_A, TOWER_Y, TOWER_SPEC)]


def test_code_order_is_the_module_order():
    # ModuleTop orders codes Y_g*rev(u); the reference orders (u, g) pairs
    rng = random.Random(53)
    for A, B, spec in SETUPS:
        code_alphabet, encode, _ = module_code(A, B)
        code_key = spec.letter_key(code_alphabet)
        wkey = spec.word_order.letter_key(A)

        def ref_key(w):
            return (wkey(w.prefix.letters), -w.generator)

        words = [
            ModuleWord(
                Word(A, tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 4)))),
                B,
                rng.randrange(B.size),
            )
            for _ in range(80)
        ]
        by_code = sorted(words, key=lambda w: code_key(encode(w.prefix.letters, w.generator)))
        assert by_code == sorted(words, key=ref_key)
        for u in words:
            for v in words:
                expect = (ref_key(u) > ref_key(v)) - (ref_key(u) < ref_key(v))
                assert compare_module(spec, u, v) == expect


def test_module_complete_never_evaluates_a_pair():
    # interreduction leaves no lead dividing another, so no composition is left
    rng = random.Random(41)
    for k in range(300):
        A, B, spec = SETUPS[k % 3]
        report = module_complete(
            _random_module_set(rng, A, B),
            spec,
            max_deg=rng.randint(1, 3),
            max_steps=rng.randint(1, 2),
        )
        assert report.status is CompletionStatus.CERTIFIED_GSB
        assert report.processed == 0
        assert module_check_gsb(report.relations, spec).is_certificate


def test_module_report_replays_and_detects_tampering():
    rng = random.Random(43)
    tampered = 0
    for k in range(60):
        A, B, spec = SETUPS[k % 3]
        report = module_complete(_random_module_set(rng, A, B), spec)
        assert report.verify_ideal_preservation()
        if not report.removed:
            continue
        entry = report.removed[0]
        c, a, s = entry.decomposition[0]
        bad = dataclasses.replace(entry, decomposition=((c + 1, a, s),) + entry.decomposition[1:])
        altered = dataclasses.replace(report, removed=(bad,) + report.removed[1:])
        assert not altered.verify_ideal_preservation()
        tampered += 1
    assert tampered > 10


def _canonical_sweep(seed, count):
    """Completion reports, check residuals and traces on seeded sets, as text."""
    rng = random.Random(seed)
    lines = []
    for k in range(count):
        A, B, spec = SETUPS[k % 3]
        rels = _random_module_set(rng, A, B)
        report = module_complete(rels, spec, max_deg=3)
        lines.append(repr([_fmt(s, spec) for s in report.relations]))
        lines.append(repr(_removals(report, spec)))
        monic = [s.make_monic(spec) for s in rels]
        check = module_check_gsb(monic, spec)
        lines.append(repr((check.evaluated, check.skipped, _residuals(check, spec))))
        x = _random_module_set(rng, A, B)[0]
        nf, trace = module_nf_with_trace(x, monic, spec)
        lines.append(repr((_fmt(nf, spec), _steps(trace))))
        lines.append(repr([str(w) for w in module_irr(A, B, report.relations, spec, 2)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


SWEEP_DIGEST = "e4b2743c2930ebad713ae01e43f34eabfb53d0194500cd8e05785f1b142f9cca"


def test_module_behaviour_sweep_pinned():
    assert _canonical_sweep(47, 150) == SWEEP_DIGEST
