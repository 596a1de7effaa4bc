import hashlib
import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from gsb import completion, rewrite
from gsb.completion import find_ambiguities, shirshov_complete
from gsb.constructions import (
    GroupTable,
    MultTable,
    SimplePair,
    SimpleStepInput,
    bracket_embedding_words,
    build_hnn,
    build_malcev,
    build_module_cyclic,
    build_simple_step,
    simple_relation_exponent,
)
from gsb.errors import (
    AlphabetMismatchError,
    CertificationError,
    IndexOutOfRangeError,
    NonCanonicalSupportError,
    PresentationFormatError,
    SingleLetterAlphabetError,
    SymbolClashError,
    TableIncompleteError,
    UncertifiedBasisError,
)
from gsb.lyndon import is_alsw
from gsb.orderings import DegLex, ModuleTop, Tower
from gsb.poly import parse_module_element, parse_polynomial
from gsb.presentation import (
    ModulePresentation,
    Presentation,
    format_presentation,
    load_presentation,
)
from gsb.words import Alphabet, ModuleBasis


# ---------------------------------------------------------------- group table


def test_group_table_validation():
    with pytest.raises(TableIncompleteError):
        GroupTable(1, {}, {}).require(1, 1)
    with pytest.raises(PresentationFormatError):
        GroupTable(2, {(1, 1): 3}, {})
    # a non-associative assignment over two elements
    with pytest.raises(PresentationFormatError):
        GroupTable(
            2,
            {(1, 1): 2, (1, 2): 1, (2, 1): 2, (2, 2): 1},
            {},
        )


@pytest.mark.parametrize(
    "size, product",
    [
        (2, {(1, 1): 2.0, (1, 2): 0, (2, 1): 0, (2, 2): 1}),
        (2, {(1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): True}),
        (True, {(1, 1): 0}),
    ],
)
def test_group_table_refuses_a_float_or_bool_size_or_entry(size, product):
    # refused here, where the value enters, not in build_hnn as an unknown symbol 'g2.0'
    with pytest.raises(PresentationFormatError, match="not an integer"):
        GroupTable(size, product, {})


CYCLIC_3_PRODUCT = {(1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 1}


@pytest.mark.parametrize(
    "size, entry, value, message",
    [
        ("\u0662", (1, 1), 2, "the table size is '\u0662', not an integer"),
        (2, (1, 1), "\u0662", "product entry (1,1) is '\u0662', not an integer"),
        (2, (1, 2), "0_0", "product entry (1,2) is '0_0', not an integer"),
        (2, (2, 2), " 1 ", "product entry (2,2) is ' 1 ', not an integer"),
        (2, (2, 2), "+1", "product entry (2,2) is '+1', not an integer"),
        (2, (1, 1), Fraction(2), "product entry (1,1) is Fraction(2, 1), not an integer"),
    ],
    ids=["arabic-indic-size", "arabic-indic", "underscore", "blanks", "sign", "fraction"],
)
def test_group_table_reads_an_int_or_a_string_of_ascii_digits(size, entry, value, message):
    # an int is taken as it is and a string of ASCII digits as a relation line reads it
    assert GroupTable("2", {**CYCLIC_3_PRODUCT, (1, 1): "2"}, {1: "02"}).inverse == {1: 2}
    with pytest.raises(PresentationFormatError) as err:
        GroupTable(size, {**CYCLIC_3_PRODUCT, entry: value}, {})
    assert str(err.value) == message


def test_group_table_reads_its_keys_as_its_entries():
    # one rule for a table's keys and values: ASCII digits or an int, not a bool
    assert GroupTable(2, {("1", "1"): 2}, {}).product == {(1, 1): 2}
    as_string = GroupTable(2, {(1, 1): 2}, {"1": 2})
    as_int = GroupTable(2, {(1, 1): 2}, {1: 2})
    assert (as_string.product, as_string.inverse) == (as_int.product, as_int.inverse) == (
        {(1, 1): 2},
        {1: 2},
    )
    with pytest.raises(PresentationFormatError, match="a product key is True, not an integer"):
        GroupTable(2, {(True, 1): 2}, {})
    for key in ("11", 1, (1, 1, 1)):
        with pytest.raises(PresentationFormatError, match=re.escape(f"product key {key!r} is not a pair")):
            GroupTable(2, {key: 2}, {})
    with pytest.raises(PresentationFormatError, match=r"product entry \(1,1\) is given twice"):
        GroupTable(2, {(1, 1): 2, ("1", "01"): 2}, {})
    with pytest.raises(PresentationFormatError, match="inverse entry 1 is given twice"):
        GroupTable(2, {}, {1: 2, "1": 2})


def _first_non_associative(size, product):
    """The first (j, k, l) of the full walk over 1..size where both products
    are defined and disagree, or None."""
    def mul(x, y):
        return y if x == 0 else x if y == 0 else product.get((x, y))

    for j, k, l in itertools.product(range(1, size + 1), repeat=3):
        jk, kl = product.get((j, k)), product.get((k, l))
        if jk is None or kl is None:
            continue
        left, right = mul(jk, l), mul(j, kl)
        if left is not None and right is not None and left != right:
            return j, k, l
    return None


def test_associativity_check_equals_full_walk():
    rng = random.Random(81)
    failures = 0
    for _ in range(400):
        size = rng.randint(1, 4)
        pairs = list(itertools.product(range(1, size + 1), repeat=2))
        defined = rng.sample(pairs, rng.randint(0, len(pairs)))
        product = {pair: rng.randrange(size + 1) for pair in defined}
        bad = _first_non_associative(size, product)
        if bad is None:
            GroupTable(size, product, {})
            continue
        failures += 1
        with pytest.raises(PresentationFormatError) as err:
            GroupTable(size, product, {})
        assert str(err.value) == "table is not associative at ({},{},{})".format(*bad)
    assert 100 < failures < 400


def test_group_table_check_cost_follows_entries_not_size():
    # the order-3 cyclic table under a size of 20000: a walk over every
    # (j, k) up to size would take about a minute
    start = time.perf_counter()
    table = GroupTable(20_000, GroupTable.cyclic(3).product, {1: 2, 2: 1})
    assert time.perf_counter() - start < 1.0
    assert table.require(2, 2) == 1
    with pytest.raises(TableIncompleteError):
        table.require(1, 3)


def test_cyclic_table():
    t = GroupTable.cyclic(3)
    assert t.size == 2
    assert t.require(1, 1) == 2
    assert t.require(1, 2) == 0
    assert t.require_inverse(1) == 2


def test_build_hnn_smallest_instance():
    result = build_hnn(GroupTable(1, {(1, 1): 0}, {1: 1}), 1)
    assert result.report.is_certificate
    assert isinstance(result.presentation.ordering, Tower)
    # round-trips through the loader
    assert load_presentation(format_presentation(result.presentation)) == result.presentation


def test_build_hnn_cyclic3_bound2():
    result = build_hnn(GroupTable.cyclic(3), 2)
    assert result.report.is_certificate
    assert not result.report.nontrivial
    spec = result.presentation.ordering
    leads = {str(r.leading_word(spec)) for r in result.presentation.relations}
    assert "a*b*t" in leads  # the i=1 conjugation relation leads with a*b*t
    assert "a*b*b*t" in leads
    assert "t*t^-1" in leads
    assert len(result.presentation.relations) == 22


def test_build_hnn_bound_check():
    with pytest.raises(IndexOutOfRangeError):
        build_hnn(GroupTable.cyclic(3), 5)


# --------------------------------------------------------------------- malcev


def x_alphabet(n):
    return Alphabet(tuple(f"x{i}" for i in range(1, n + 1)))


def assert_no_new_ambiguities(result):
    """Every ambiguity of the emitted set is of two relations whose leads avoid a and b."""
    alphabet, relations = result.presentation.alphabet, result.presentation.relations
    fresh = {alphabet.index("a"), alphabet.index("b")}
    leads = [r.leading_word(DegLex()).letters for r in relations]
    ambiguities = find_ambiguities(relations, DegLex())
    for amb in ambiguities:
        assert not fresh & {*leads[amb.f_index], *leads[amb.g_index]}, amb.describe()
    return ambiguities


def test_build_malcev_commutator_base():
    X = x_alphabet(2)
    base = Presentation(X, DegLex(), (parse_polynomial("x1*x2 - x2*x1", X),))
    result = build_malcev(base, 2)
    assert result.report.is_certificate
    assert_no_new_ambiguities(result)
    alphabet = result.presentation.alphabet
    assert alphabet.symbols[:2] == ("a", "b")
    for i in (1, 2):
        assert result.witness[f"x{i}"] == parse_polynomial(f"x{i}", alphabet)
    assert load_presentation(format_presentation(result.presentation)) == result.presentation


def test_build_malcev_empty_base():
    X = x_alphabet(1)
    base = Presentation(X, DegLex(), ())
    result = build_malcev(base, 1)
    assert [str(r) for r in result.presentation.relations] == ["a*a*b*a*b - x1"]


def test_build_malcev_binomial_base_stays_binomial():
    X = x_alphabet(3)
    base = Presentation(
        X,
        DegLex(),
        (
            parse_polynomial("x1*x2 - x3", X),
            parse_polynomial("x2*x1 - x3", X),
        ),
    )
    checked = shirshov_complete(base.relations, DegLex(), max_deg=6)
    base = Presentation(X, DegLex(), checked.relations)
    result = build_malcev(base, 3)
    assert all(r.is_binomial_difference() for r in result.presentation.relations)
    ambiguities = assert_no_new_ambiguities(result)
    assert ambiguities  # the base's own overlaps, so the check above is not vacuous


def test_build_malcev_requires_certified_base():
    X = x_alphabet(2)
    base = Presentation(X, DegLex(), (parse_polynomial("x1*x1 - x2", X),))
    with pytest.raises(UncertifiedBasisError) as err:
        build_malcev(base, 2)
    assert str(err.value) == "the base presentation is not a certified basis"


def test_build_malcev_symbol_clash():
    X = Alphabet(("a", "x1"))
    base = Presentation(X, DegLex(), ())
    with pytest.raises(SymbolClashError):
        build_malcev(base, 1)


def test_build_malcev_fresh_symbols_must_differ():
    # neither symbol is in the base, so the message names no clash with it
    base = Presentation(x_alphabet(2), DegLex(), ())
    with pytest.raises(SymbolClashError) as err:
        build_malcev(base, 1, "x", "x")
    assert str(err.value) == "the two fresh symbols must differ, got 'x' twice"


def test_malcev_extension_completes_with_zero_additions():
    X = x_alphabet(2)
    base = Presentation(X, DegLex(), (parse_polynomial("x1*x2 - x2*x1", X),))
    result = build_malcev(base, 2)
    report = shirshov_complete(result.presentation.relations, DegLex())
    assert report.is_certified and not report.added


# ---------------------------------------------------------------- simple step


LEFT_TABLE = MultTable(
    ("x1", "x2"), {(1, 1): "x1", (1, 2): "x1", (2, 1): "x2", (2, 2): "x2"}
)


def _toy_pairs():
    base = LEFT_TABLE.base_alphabet()
    return SimpleStepInput(
        (
            SimplePair(
                parse_polynomial("x1", base), parse_polynomial("x2", base), "u1", "v1"
            ),
            SimplePair(
                parse_polynomial("x2 + 1", base),
                parse_polynomial("x1 - x2", base),
                "u2",
                "v2",
            ),
        )
    )


def test_mult_table_validation():
    with pytest.raises(TableIncompleteError):
        MultTable(("x1", "x2"), {(1, 1): "x1"})
    with pytest.raises(PresentationFormatError):
        MultTable(("x1",), {(1, 1): "zz"})


@pytest.mark.parametrize(
    "coeff, message",
    [
        ("1e5", "is '1e5', not an integer or p/q"),
        ("1.5", "is '1.5', not an integer or p/q"),
        ("1_0", "is '1_0', not an integer or p/q"),
        ("\u0663", "is '\u0663', not an integer or p/q"),
        ("1/0", "is '1/0', with a zero denominator"),
    ],
    ids=["exponent", "point", "underscore", "arabic-indic-digit", "zero-denominator"],
)
def test_mult_table_reads_a_coefficient_string_as_a_relation_line_does(coeff, message):
    # Fraction(str) would read "1e10000000" as a ten-million-digit integer
    with pytest.raises(PresentationFormatError) as err:
        MultTable(("x1",), {(1, 1): {"x1": coeff}})
    assert str(err.value) == f"entry (1,1) coefficient of 'x1' {message}"


@pytest.mark.parametrize(
    "coeff, value", [("-1/2", Fraction(-1, 2)), ("3", 3), ("1/2", Fraction(1, 2))]
)
def test_mult_table_builds_a_signed_integer_or_p_q_string(coeff, value):
    assert MultTable(("x1",), {(1, 1): {"x1": coeff}}).entries == {(1, 1): ((0, value),)}


@pytest.mark.parametrize("coeff", [2.7, True])
def test_mult_table_refuses_a_float_or_bool_coefficient(coeff):
    # as a Fraction, 2.7 would be its binary value 3039929748475085/1125899906842624
    with pytest.raises(PresentationFormatError, match="not an exact number"):
        MultTable(("x1",), {(1, 1): {"x1": coeff}})


def test_build_simple_step_on_a_non_associative_table():
    table = MultTable(("x1", "x2"), {(1, 1): "x2", (1, 2): "x2", (2, 1): "x1", (2, 2): "x1"})
    with pytest.raises(CertificationError) as exc:
        build_simple_step(table, SimpleStepInput(()), m_bound=1, n_bound=1)
    assert str(exc.value) == "a table overlap was nontrivial; the table is not associative"


@pytest.mark.parametrize(
    "symbols, f, g",
    [
        # x3 is past the table's basis: shifted, it would read as the fresh letter v1
        (("x1", "x2", "x3"), "x3", "x1"),
        # a two-letter alphabet that is not the basis: shifted, p and q would read as x1 and x2
        (("p", "q"), "p", "q"),
    ],
)
def test_build_simple_step_refuses_a_pair_over_another_alphabet(symbols, f, g):
    other = Alphabet(symbols)
    pair = SimplePair(parse_polynomial(f, other), parse_polynomial(g, other), "u1", "v1")
    with pytest.raises(AlphabetMismatchError, match="pair #1"):
        build_simple_step(LEFT_TABLE, SimpleStepInput((pair,)), m_bound=1, n_bound=1)


def test_build_simple_step_toy():
    result = build_simple_step(LEFT_TABLE, _toy_pairs(), m_bound=2, n_bound=1)
    assert result.report.is_certificate
    alphabet = result.presentation.alphabet
    base_names = {"x1", "x2"}
    for w in result.ambiguity_words:
        assert w.degree == 3
        assert {alphabet.name(c) for c in w.letters} <= base_names
    assert result.exponents == (2, 2)
    assert load_presentation(format_presentation(result.presentation)) == result.presentation


def test_build_simple_step_over_a_formal_inverse_basis_survives_a_file_round_trip():
    # the left-zero band over x, x^-1: its alphabet pairs x with x^-1, as a loaded one does
    table = MultTable(
        ("x", "x^-1"), {(1, 1): "x", (1, 2): "x", (2, 1): "x^-1", (2, 2): "x^-1"}
    )
    result = build_simple_step(table, SimpleStepInput(()), m_bound=1, n_bound=1)
    assert result.report.is_certificate
    assert result.presentation.alphabet.inverse_pairs == (("x", "x^-1"),)
    text = format_presentation(result.presentation)
    assert load_presentation(text) == result.presentation


def test_simple_exponent_formula():
    base = LEFT_TABLE.base_alphabet()
    g = parse_polynomial("x1*x2 + x1", base)
    assert simple_relation_exponent(g, DegLex()) == 3
    assert simple_relation_exponent(parse_polynomial("x1", base), DegLex()) == 2


def test_build_simple_step_without_pairs():
    result = build_simple_step(LEFT_TABLE, SimpleStepInput(()), m_bound=1, n_bound=1)
    assert result.report.is_certificate
    # table (4) + defining words: x/y slots (2) + the x1 word (1)
    assert len(result.presentation.relations) == 4 + 2 + 1
    assert result.exponents == ()


def test_build_simple_step_noncanonical_pair():
    base = LEFT_TABLE.base_alphabet()
    steps = SimpleStepInput(
        (
            SimplePair(
                parse_polynomial("x1*x2", base),  # contains a table leading word
                parse_polynomial("x2", base),
                "u1",
                "v1",
            ),
        )
    )
    with pytest.raises(NonCanonicalSupportError) as exc:
        build_simple_step(LEFT_TABLE, steps, 1, 1)
    assert exc.value.index == 1


def test_build_simple_step_symbol_clash():
    base = LEFT_TABLE.base_alphabet()
    steps = SimpleStepInput(
        (SimplePair(parse_polynomial("x1", base), parse_polynomial("x2", base), "a", "v1"),)
    )
    with pytest.raises(SymbolClashError):
        build_simple_step(LEFT_TABLE, steps, 1, 1)


def test_build_simple_step_bounds():
    with pytest.raises(IndexOutOfRangeError):
        build_simple_step(LEFT_TABLE, _toy_pairs(), m_bound=1, n_bound=1)


# -------------------------------------------------------------- module cyclic


def test_build_module_cyclic():
    base = ModulePresentation(
        Alphabet(("a", "b")), ModuleBasis(("y1", "y2", "y3")), ModuleTop(), ()
    )
    result = build_module_cyclic(base, 3)
    assert result.report.is_certificate
    values = sorted(str(v) for v in result.witness.values())
    assert values == ["y1", "y2", "y3"]
    assert [str(r) for r in result.presentation.relations] == [
        "a*b*y - y1",
        "a*b*b*y - y2",
        "a*b*b*b*y - y3",
    ]
    assert load_presentation(format_presentation(result.presentation)) == result.presentation


def test_build_module_cyclic_single_relation():
    base = ModulePresentation(
        Alphabet(("a", "b")), ModuleBasis(("y1",)), ModuleTop(), ()
    )
    result = build_module_cyclic(base, 1)
    assert result.report.is_certificate
    assert len(result.presentation.relations) == 1


def test_build_module_cyclic_rejects_single_letter():
    base = ModulePresentation(
        Alphabet(("x",)), ModuleBasis(("y1", "y2")), ModuleTop(), ()
    )
    with pytest.raises(SingleLetterAlphabetError):
        build_module_cyclic(base, 2)


def test_build_module_cyclic_symbol_clash():
    base = ModulePresentation(
        Alphabet(("a", "b")), ModuleBasis(("y", "y2")), ModuleTop(), ()
    )
    with pytest.raises(SymbolClashError):
        build_module_cyclic(base, 1)


def test_build_module_cyclic_with_base_relations():
    basis = ModuleBasis(("y1", "y2"))
    alphabet = Alphabet(("a", "b"))
    from gsb.poly import parse_module_element

    base = ModulePresentation(
        alphabet,
        basis,
        ModuleTop(),
        (parse_module_element("b*y1 - y2", alphabet, basis),),
    )
    result = build_module_cyclic(base, 2)
    assert result.report.is_certificate
    assert len(result.presentation.relations) == 3


def test_build_module_cyclic_requires_certified_base():
    # b*a*y1 - y1 contains the lead a*y1 of the other, leaving b*y2 - y1
    alphabet, basis = Alphabet(("a", "b")), ModuleBasis(("y1", "y2"))
    relations = tuple(
        parse_module_element(t, alphabet, basis) for t in ("a*y1 - y2", "b*a*y1 - y1")
    )
    base = ModulePresentation(alphabet, basis, ModuleTop(), relations)
    with pytest.raises(UncertifiedBasisError) as err:
        build_module_cyclic(base, 2)
    assert str(err.value) == "the base module presentation is not certified"


# ------------------------------------------------------------------ lie words


def test_bracket_embedding_words():
    out = bracket_embedding_words(8)
    assert len(out) == 8
    for i, (word, bracket) in enumerate(out, start=1):
        assert word.degree == i + 4
        assert is_alsw(word)
        assert bracket.flatten() == word
    assert str(out[0][0]) == "a*a*b*a*b"
    assert str(out[1][0]) == "a*a*b*b*a*b"
    with pytest.raises(IndexOutOfRangeError):
        bracket_embedding_words(0)


# ------------------------------------------------------ one compile per build


def _fixed_builds():
    """Each builder on fixed inputs, as a thunk; the inputs are built here, so
    calling a thunk runs only its builder."""
    X5 = x_alphabet(5)
    x5 = shirshov_complete(
        [parse_polynomial(t, X5) for t in ("x1*x2 - x3", "x2*x1 - x3", "x5*x4 - 2*x4 + 1/2")],
        DegLex(),
        max_deg=6,
    )
    malcev_base = Presentation(X5, DegLex(), x5.relations)
    AB = Alphabet(("a", "b"))
    basis = ModuleBasis(("y1", "y2", "y3"))
    module_base = ModulePresentation(
        AB, basis, ModuleTop(), (parse_module_element("b*y1 - 1/2*y2", AB, basis),)
    )
    pairs = _toy_pairs()
    return {
        "build_hnn": lambda: build_hnn(GroupTable.cyclic(4), 3),
        "build_malcev": lambda: build_malcev(malcev_base, 5),
        "build_simple_step": lambda: build_simple_step(LEFT_TABLE, pairs, m_bound=2, n_bound=2),
        "build_module_cyclic": lambda: build_module_cyclic(module_base, 3),
    }


# sha256 of repr(result) followed by format_presentation(result.presentation),
# taken before the builders read their checks and witnesses off one scan; Malcev's
# retaken when MalcevResult lost its constant new_ambiguities=0, the rest unchanged
BUILD_DIGESTS = {
    "build_hnn": "18e343a3cf9ccd0f3b30e577ff15a2513d430fa0d9c39cafdbb46d24b1724fa1",
    "build_malcev": "38912fd3643b336a75b4d1734a3302074607e9530129dfbb8e8a8d7c7c683042",
    "build_simple_step": "97ea9243ddbc064cfe5f1f7c3c81060a7e703f3fba627a8cfc23edc866bdfdca",
    "build_module_cyclic": "98c7d28bdea80f12a0dd4f40b31197593ad53755587dc6c582bcde966a48211d",
}


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_results_pinned(name):
    result = _fixed_builds()[name]()
    text = repr(result) + format_presentation(result.presentation)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGESTS[name]


# sha256 of the four fixed builds' presentation texts, joined in name order,
# taken before the text reader and writer were rewritten
BUILD_TEXTS_DIGEST = "bde1f2cd77f0179d861a0fba7b54c4276abbaea7297fee252221cd4fe71cf27d"


def test_build_presentations_round_trip_through_their_text():
    texts = []
    for _name, build in sorted(_fixed_builds().items()):
        presentation = build().presentation
        text = format_presentation(presentation)
        loaded = load_presentation(text)
        assert loaded == presentation
        assert format_presentation(loaded) == text
        texts.append(text)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == BUILD_TEXTS_DIGEST


def test_malcev_keeps_the_base_inverse_pairs_through_a_file_round_trip():
    text = "alphabet: x > x^-1\nordering: deglex\nrelations:\nx*x^-1 - 1\nx^-1*x - 1\n"
    result = build_malcev(load_presentation(text), 2)
    assert result.presentation.alphabet.inverse_pairs == (("x", "x^-1"),)
    assert load_presentation(format_presentation(result.presentation)) == result.presentation


# each builder scans one set: an extended base is checked inside the scan of
# the extended set, not on its own first
@pytest.mark.parametrize(
    "name, compiles",
    [("build_hnn", 1), ("build_malcev", 1), ("build_simple_step", 1), ("build_module_cyclic", 1)],
)
def test_each_build_compiles_each_relation_set_once(name, compiles, monkeypatch):
    build = _fixed_builds()[name]
    calls = []
    original = rewrite.compile_rules

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rewrite, "compile_rules", counted)
    monkeypatch.setattr(completion, "compile_rules", counted)
    build()
    assert len(calls) == compiles


@pytest.mark.parametrize(
    "name", ["build_hnn", "build_malcev", "build_simple_step", "build_module_cyclic"]
)
def test_each_build_runs_one_composition_check(name, monkeypatch):
    build = _fixed_builds()[name]
    calls = []
    original = completion._Scan.check

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(completion._Scan, "check", counted)
    build()
    assert len(calls) == 1
