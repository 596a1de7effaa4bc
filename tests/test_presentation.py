import pytest

from gsb.constructions import GroupTable, build_hnn, build_module_cyclic
from gsb.errors import (
    AlphabetMismatchError,
    BasisMismatchError,
    PresentationFormatError,
    TowerSymbolMissingError,
    UnknownSymbolError,
    WordSyntaxError,
)
from gsb.orderings import DegLex, ModuleTop, Tower
from gsb.poly import parse_module_element, parse_polynomial
from gsb.rewrite import normal_form
from gsb.presentation import (
    ModulePresentation,
    Presentation,
    format_presentation,
    load_presentation,
    load_presentation_file,
    save_presentation_file,
)
from gsb.words import Alphabet, ModuleBasis

ALGEBRA_FILE = """\
# worked example
alphabet: a > b
ordering: deglex
relations:
a*a - b          # comments allowed here too
a*b - b*a
"""

MODULE_FILE = """\
alphabet: a > b
ordering: module-top
basis: y1 > y2
relations:
a*y1 - y2
"""

TOWER_FILE = """\
alphabet: t > t^-1 > b^-1 > b > a^-1 > a
ordering: tower(t, t^-1)
relations:
a*t - t*b
t*t^-1 - 1
"""


def test_load_algebra():
    p = load_presentation(ALGEBRA_FILE)
    assert isinstance(p, Presentation)
    assert p.alphabet.symbols == ("a", "b")
    assert isinstance(p.ordering, DegLex)
    assert set(p.relations) == {
        parse_polynomial("a*a - b", p.alphabet),
        parse_polynomial("a*b - b*a", p.alphabet),
    }


def test_load_module():
    p = load_presentation(MODULE_FILE)
    assert isinstance(p, ModulePresentation)
    assert isinstance(p.ordering, ModuleTop)
    assert p.basis.symbols == ("y1", "y2")
    assert len(p.relations) == 1


def test_load_tower_with_inverse_pairs():
    p = load_presentation(TOWER_FILE)
    assert isinstance(p.ordering, Tower)
    assert ("t", "t^-1") in p.alphabet.inverse_pairs
    assert ("a", "a^-1") in p.alphabet.inverse_pairs
    assert len(p.relations) == 2


def test_a_loaded_alphabet_equals_the_one_built_in_python():
    p = load_presentation("alphabet: t > t^-1 > a\nordering: tower(t, t^-1)\nrelations:\na*t - t*a\n")
    built = Alphabet(("t", "t^-1", "a"))
    assert p.alphabet == built
    assert built.inverse_pairs == (("t", "t^-1"),)
    # no AlphabetMismatchError: a*t*t reduces to t*t*a by the loaded relation
    nf = normal_form(parse_polynomial("a*t*t - 2*t*a", built), p.relations, p.ordering)
    assert nf == parse_polynomial("t*t*a - 2*t*a", built)


def test_roundtrip():
    for text in (ALGEBRA_FILE, MODULE_FILE, TOWER_FILE):
        p = load_presentation(text)
        assert load_presentation(format_presentation(p)) == p


def test_relations_sorted_and_monicized():
    text = "alphabet: a > b\nordering: deglex\nrelations:\nb - a*a\n2*b*b - b\n"
    p = load_presentation(text)
    # b - a*a reorients to a*a - b; 2*b*b - b scales to b*b - 1/2*b
    assert [str(r) for r in p.relations] == ["b*b - 1/2*b", "a*a - b"]


def test_unknown_section_rejected():
    with pytest.raises(PresentationFormatError):
        load_presentation("alphabet: a\nweights: 1\nordering: deglex\nrelations:\n")


def test_missing_sections_rejected():
    with pytest.raises(PresentationFormatError):
        load_presentation("ordering: deglex\nrelations:\n")
    with pytest.raises(PresentationFormatError):
        load_presentation("alphabet: a\nrelations:\n")


def test_module_needs_basis_and_vice_versa():
    with pytest.raises(PresentationFormatError):
        load_presentation("alphabet: a\nordering: module-top\nrelations:\n")
    with pytest.raises(PresentationFormatError):
        load_presentation("alphabet: a\nordering: deglex\nbasis: y\nrelations:\n")


def test_bad_ordering_rejected():
    with pytest.raises(PresentationFormatError):
        load_presentation("alphabet: a\nordering: lex\nrelations:\n")


def test_empty_relations_allowed():
    p = load_presentation("alphabet: a > b\nordering: deglex\nrelations:\n")
    assert p.relations == ()
    q = load_presentation("alphabet: a > b\nordering: deglex\n")
    assert q.relations == ()


def test_relation_syntax_error_names_its_line():
    text = "alphabet: a > b\nordering: deglex\n# a comment\nrelations:\na*b - b*a\na*a - 1/0*b\n"
    with pytest.raises(WordSyntaxError) as exc:
        load_presentation(text)
    assert str(exc.value) == "line 6: zero denominator (at position 6)"
    assert exc.value.position == 6
    module = "alphabet: a > b\nordering: module-top\nbasis: y1\nrelations:\na** y1\n"
    with pytest.raises(WordSyntaxError) as exc:
        load_presentation(module)
    assert str(exc.value) == "line 5: empty factor (at position 2)"


def test_unknown_symbol_names_its_line_and_position():
    text = "alphabet: a > b\nordering: deglex\nrelations:\na*b - b*a\na*z - b\n"
    with pytest.raises(UnknownSymbolError) as exc:
        load_presentation(text)
    assert str(exc.value) == "line 5: unknown symbol 'z' (at position 2)"
    assert (exc.value.token, exc.value.line, exc.value.position) == ("z", 5, 2)
    module = "alphabet: a > b\nordering: module-top\nbasis: y1\nrelations:\na*y1\nb * q*y1\n"
    with pytest.raises(UnknownSymbolError) as exc:
        load_presentation(module)
    assert str(exc.value) == "line 6: unknown symbol 'q' (at position 4)"


def test_module_term_error_points_at_the_last_factor():
    module = "alphabet: a > b\nordering: module-top\nbasis: y\nrelations:\na*b + y\n"
    with pytest.raises(WordSyntaxError) as exc:
        load_presentation(module)
    assert str(exc.value) == (
        "line 5: module term must end in a basis generator, got 'b' (at position 2)"
    )


def test_module_tower_ordering_round_trip():
    text = (
        "alphabet: t > t^-1 > a\n"
        "ordering: module-top(tower(t, t^-1))\n"
        "basis: y1 > y2\n"
        "relations:\n"
        "t*y1 - a*a*y2\n"
    )
    p = load_presentation(text)
    assert p.ordering == ModuleTop(Tower("t", "t^-1"))
    # under the tower order t*y1 leads; deg-lex would pick a*a*y2
    assert str(p.relations[0].leading_word(p.ordering)) == "t*y1"
    assert format_presentation(p) == text
    assert load_presentation(format_presentation(p)) == p
    assert format_presentation(load_presentation(MODULE_FILE)).splitlines()[1] == (
        "ordering: module-top"
    )
    for bad in ("module-top(deglex)", "module-top()", "module-top(tower(t, t^-1)"):
        with pytest.raises(PresentationFormatError):
            load_presentation(text.replace("module-top(tower(t, t^-1))", bad))


AB = Alphabet(("a", "b"))
XYZ = Alphabet(("x", "y", "z"))
Y12 = ModuleBasis(("y1", "y2"))


def test_presentations_reject_relations_over_another_alphabet_or_basis():
    with pytest.raises(AlphabetMismatchError):
        Presentation(AB, DegLex(), (parse_polynomial("x*y - z", XYZ),))
    with pytest.raises(AlphabetMismatchError):
        ModulePresentation(AB, Y12, ModuleTop(), (parse_module_element("x*y1", XYZ, Y12),))
    other_basis = ModuleBasis(("y1", "y3"))
    with pytest.raises(BasisMismatchError):
        ModulePresentation(
            AB, Y12, ModuleTop(), (parse_module_element("a*y1 - y3", AB, other_basis),)
        )


def test_module_tower_ordering_needs_its_letters_even_without_relations():
    with pytest.raises(TowerSymbolMissingError):
        ModulePresentation(AB, Y12, ModuleTop(Tower("t", "t^-1")), ())
    text = "alphabet: a > b\nordering: module-top(tower(t, t^-1))\nbasis: y1\nrelations:\n"
    with pytest.raises(TowerSymbolMissingError):
        load_presentation(text)


def test_accepted_presentations_survive_a_file_round_trip(tmp_path):
    module_tower = (
        "alphabet: t > t^-1 > a\n"
        "ordering: module-top(tower(t, t^-1))\n"
        "basis: y1 > y2\n"
        "relations:\n"
        "t*y1 - a*a*y2\n"
    )
    presentations = [
        load_presentation(text) for text in (ALGEBRA_FILE, MODULE_FILE, TOWER_FILE, module_tower)
    ]
    presentations += [
        Presentation(XYZ, DegLex(), (parse_polynomial("x*y - z", XYZ),)),
        Presentation(AB, DegLex(), ()),
        # not monic as given
        Presentation(AB, DegLex(), (parse_polynomial("2*a - b", AB),)),
        ModulePresentation(AB, Y12, ModuleTop(), (parse_module_element("-3*a*y1 + y2", AB, Y12),)),
        ModulePresentation(AB, Y12, ModuleTop(Tower("a", "b")), ()),
        build_hnn(GroupTable.cyclic(3), 2).presentation,
        build_module_cyclic(ModulePresentation(AB, Y12, ModuleTop(), ()), 2).presentation,
        # the pairing is read off the names, in Python as in a file
        Presentation(Alphabet(("t", "t^-1")), DegLex(), ()),
        Presentation(Alphabet(("a", "a^-1", "b^-1")), DegLex(), ()),
    ]
    for n, p in enumerate(presentations):
        path = tmp_path / f"p{n}.pres"
        save_presentation_file(p, path)
        loaded = load_presentation_file(path)
        assert loaded == p
        assert format_presentation(loaded) == path.read_text()
