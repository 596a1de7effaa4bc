"""The README's library tour runs, and every value its comments state holds."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def _comments(source: str) -> dict:
    """Line number -> the text of the comment that ends the line."""
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def _renderings(value) -> list:
    shown = [repr(value), str(value)]
    if isinstance(value, list):
        shown.append(", ".join(map(str, value)))
    return shown


def _states(comment: str, value) -> bool:
    """Whether the comment opens with the value, followed by its end, a
    comma or a colon; a comment ending in ", ..." states a listing's start."""
    for shown in _renderings(value):
        if comment.endswith(", ...") and shown.startswith(comment[: -len(", ...")] + ","):
            return True
        if comment.startswith(shown) and comment[len(shown) : len(shown) + 1] in ("", ",", ":"):
            return True
    return False


def test_the_library_tour_states_its_values():
    source = _tour()
    comments = _comments(source)
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), "README tour", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README tour", "eval"), namespace)
        comment = comments.get(node.end_lineno)
        assert comment is not None, f"tour line {node.lineno} states no value"
        assert _states(comment, value), f"tour line {node.lineno}: {comment!r} but got {value!r}"
        checked.append(node.lineno)
    # the tour's result lines: status, relations, replay, membership, two
    # normal forms, the irreducible words and their counts, and the oracle
    assert len(checked) == 10
