"""Command-line front end.

Exit codes: 0 success / certified, 2 a check or completion found the set is
not a certified basis, 1 usage or input error.

Each command imports the layers it reads when it runs, and loading this module
imports none: on a small input, importing is most of a run's time, so ``gsb
lyndon`` never loads the completion engine and a check of an algebra file
never loads the module, Lyndon or construction layers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GsbError, LimitError, PresentationFormatError


class _Parser(argparse.ArgumentParser):
    """A usage error as an input error: one ``error:`` line, exit 1 (this tool reserves 2)."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_report(report, as_json: bool) -> None:
    data = report.to_json_dict()
    if as_json:
        _emit_json(data)
        return
    print(f"status: {data['status']}")
    print(f"processed: {data['processed']} compositions")
    if data["added"]:
        print(f"added {len(data['added'])} relations:")
        for line in data["added"]:
            print(f"  {line}")
    for entry in data["nontrivial"]:
        print(f"  nontrivial at {entry['ambiguity']}: {entry['residual']}")


def _load_for(args):
    """Load the presentation, honoring an explicit --module assertion."""
    from .presentation import ModulePresentation, load_presentation_file

    p = load_presentation_file(args.file)
    if getattr(args, "module", False) and not isinstance(p, ModulePresentation):
        raise PresentationFormatError(
            "--module was given but the file is not a module presentation"
        )
    return p


def _cmd_complete(args) -> int:
    from .completion import shirshov_complete
    from .presentation import ModulePresentation, Presentation, save_presentation_file

    p = _load_for(args)
    if isinstance(p, ModulePresentation):
        from .modules import module_complete

        report = module_complete(
            p.relations, p.ordering, max_deg=args.max_deg, max_steps=args.max_steps
        )
        completed = ModulePresentation(p.alphabet, p.basis, p.ordering, report.relations)
    else:
        report = shirshov_complete(
            p.relations, p.ordering, max_deg=args.max_deg, max_steps=args.max_steps
        )
        completed = Presentation(p.alphabet, p.ordering, report.relations)
    _print_report(report, args.json)
    if args.output:
        save_presentation_file(completed, args.output)
    return 0 if report.is_certified else 2


def _cmd_check(args) -> int:
    from .completion import check_gsb
    from .poly import format_element
    from .presentation import ModulePresentation

    p = _load_for(args)
    if isinstance(p, ModulePresentation):
        from .modules import module_check_gsb

        report = module_check_gsb(p.relations, p.ordering, max_deg=args.max_deg)
    else:
        report = check_gsb(p.relations, p.ordering, max_deg=args.max_deg)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        if report.is_certificate:
            print(f"certified basis ({report.evaluated} compositions evaluated)")
        else:
            print(
                f"not certified: {len(report.nontrivial)} nontrivial, "
                f"{report.skipped} skipped"
            )
            for amb, res in report.nontrivial:
                print(f"  at {amb.w}: {format_element(res, p.ordering)}")
    return 0 if report.is_certificate else 2


def _cmd_nf(args) -> int:
    from .poly import format_element, parse_module_element, parse_polynomial
    from .presentation import ModulePresentation
    from .rewrite import normal_form_with_trace

    p = _load_for(args)
    if isinstance(p, ModulePresentation):
        from .modules import module_nf_with_trace

        element = parse_module_element(args.poly, p.alphabet, p.basis)
        nf, trace = module_nf_with_trace(element, p.relations, p.ordering)
        if args.trace:
            for n, step in enumerate(trace.steps, start=1):
                print(f"step {n}: rule #{step.rule} left {step.left}: {step.rewritten}")
    else:
        poly = parse_polynomial(args.poly, p.alphabet)
        nf, trace = normal_form_with_trace(poly, p.relations, p.ordering)
        if args.trace:
            for n, step in enumerate(trace.steps, start=1):
                print(
                    f"step {n}: rule #{step.rule} at ({step.left} | {step.right}): "
                    f"{step.rewritten}"
                )
    print(format_element(nf, p.ordering))
    return 0


def _cmd_irr(args) -> int:
    from .poly import _digits
    from .presentation import ModulePresentation
    from .rewrite import irr_counts, irr_words

    p = _load_for(args)
    if isinstance(p, ModulePresentation):
        from .modules import module_irr

        words = module_irr(p.alphabet, p.basis, p.relations, p.ordering, args.max_deg)
    elif args.count_only:
        # a count can pass Python's int/str digit limit, so it is written in chunks
        print(_digits(sum(irr_counts(p.alphabet, p.relations, p.ordering, args.max_deg))))
        return 0
    else:
        words = irr_words(p.alphabet, p.relations, p.ordering, args.max_deg)
    if args.count_only:
        print(len(words))
    else:
        for w in words:
            print(w)
    return 0


def _cmd_dim(args) -> int:
    import os

    from .poly import _int_of_digits
    from .presentation import ModulePresentation
    from .rewrite import quotient_dim_oracle

    p = _load_for(args)
    if isinstance(p, ModulePresentation):
        raise PresentationFormatError("the dimension oracle works on algebra presentations")
    # the one reader of GSB_MAX_WORDS: ASCII digits, read as a relation line reads them
    env = os.environ.get("GSB_MAX_WORDS")
    capacity = None
    if env:
        capacity = _int_of_digits(env) if env.isascii() and env.isdigit() else 0
        if capacity <= 0:
            raise LimitError(f"GSB_MAX_WORDS must be a positive integer, got {env!r}")
    print(quotient_dim_oracle(p.alphabet, p.relations, p.ordering, args.max_deg, capacity))
    return 0


def _cmd_lyndon(args) -> int:
    from .lyndon import alsw_up_to, nlsw_basis_count, std_bracketing
    from .poly import _digits
    from .presentation import _parse_symbol_chain
    from .words import Alphabet

    alphabet = Alphabet(_parse_symbol_chain(args.alphabet, "--alphabet"))
    if args.count_only:
        if args.max_len < 1:
            raise LimitError(f"max_len must be >= 1, got {args.max_len}")
        for n in range(1, args.max_len + 1):
            print(n, _digits(nlsw_basis_count(alphabet, n)))
        return 0
    for w in alsw_up_to(alphabet, args.max_len):
        if args.bracket:
            print(f"{w}\t{std_bracketing(w)}")
        else:
            print(w)
    return 0


def _load_json(path):
    """The JSON value of a file; an object that gives one key twice is
    refused, since keeping either value would drop the other."""

    def members(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise PresentationFormatError(f"{path}: key {key!r} is given twice")
            data[key] = value
        return data

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=members)
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, bad JSON and over-long integer literals
        raise PresentationFormatError(f"{path}: not a JSON file: {exc}") from exc


def _products(entries) -> dict:
    """A table file's product entries keyed by index pairs ``"j k"``; two
    spellings of one pair, such as ``"1 1"`` and ``"01 1"``, are refused."""
    from .constructions import _table_int

    products = {}
    for raw, value in entries.items():
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise PresentationFormatError(f"bad table key {raw!r}; expected 'j k'")
        j, k = (_table_int(part, f"an index of table key {raw!r}") for part in parts)
        if (j, k) in products:
            raise PresentationFormatError(f"product entry ({j},{k}) is given twice")
        products[j, k] = value
    return products


def _load_group_table(path):
    from .constructions import GroupTable

    data = _load_json(path)
    try:
        # GroupTable reads the inverse keys, and refuses one given twice
        return GroupTable(data["size"], _products(data["product"]), data["inverse"].items())
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise PresentationFormatError(f"bad group table file {path}: {exc}") from exc


def _load_mult_table(path):
    from .constructions import MultTable

    data = _load_json(path)
    try:
        return MultTable(tuple(data["basis"]), _products(data["product"]))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise PresentationFormatError(f"bad multiplication table file {path}: {exc}") from exc


def _load_pairs(path, alphabet):
    from .constructions import SimplePair, SimpleStepInput
    from .poly import parse_polynomial

    data = _load_json(path)
    pairs = []
    try:
        for entry in data["pairs"]:
            pairs.append(
                SimplePair(
                    parse_polynomial(entry["f"], alphabet),
                    parse_polynomial(entry["g"], alphabet),
                    entry["x"],
                    entry["y"],
                )
            )
    except (KeyError, TypeError) as exc:
        raise PresentationFormatError(f"bad pairs file {path}: {exc}") from exc
    return SimpleStepInput(tuple(pairs))


def _build_hnn(args):
    from .constructions import GroupTable, build_hnn

    table = GroupTable.cyclic(args.cyclic) if args.table is None else _load_group_table(args.table)
    return build_hnn(table, table.size if args.index_bound is None else args.index_bound)


def _build_malcev(args):
    from .constructions import build_malcev
    from .presentation import ModulePresentation, load_presentation_file

    base = load_presentation_file(args.base)
    if isinstance(base, ModulePresentation):
        raise PresentationFormatError("malcev extends algebra presentations")
    count = args.count if args.count is not None else base.alphabet.size
    return build_malcev(base, count, a=args.a, b=args.b)


def _build_simple(args):
    from .constructions import SimpleStepInput, build_simple_step

    table = _load_mult_table(args.table)
    steps = _load_pairs(args.pairs, table.base_alphabet()) if args.pairs else SimpleStepInput(())
    return build_simple_step(table, steps, args.m_bound, args.n_bound)


def _build_module_cyclic(args):
    from .constructions import build_module_cyclic
    from .presentation import ModulePresentation, load_presentation_file

    base = load_presentation_file(args.base)
    if not isinstance(base, ModulePresentation):
        raise PresentationFormatError("module-cyclic extends module presentations")
    count = args.count if args.count is not None else base.basis.size
    return build_module_cyclic(base, count, generator=args.generator)


def _cmd_construct(args) -> int:
    from .presentation import format_presentation, save_presentation_file

    result = args.build(args)
    cert_path = args.cert
    if args.output:
        save_presentation_file(result.presentation, args.output)
        cert_path = cert_path or f"{args.output}.cert.json"
    else:
        print(format_presentation(result.presentation), end="")
    if cert_path:
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(result.report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_lie_words(args) -> int:
    from .constructions import bracket_embedding_words

    for word, bracket in bracket_embedding_words(args.max_i):
        print(f"{word}\t{bracket}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    failures = run_all()
    return 1 if failures else 0


def _build_parser() -> _Parser:
    # the docstring's last paragraph is about this module, not about using it
    parser = _Parser(prog="gsb", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="run Shirshov completion")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, default=12)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", help="write the completed presentation here")
    p.add_argument("--module", action="store_true", help="require a module presentation")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check", help="evaluate every composition")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--module", action="store_true", help="require a module presentation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    p.add_argument("file")
    p.add_argument("--poly", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--module", action="store_true", help="require a module presentation")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("irr", help="irreducible words up to a degree")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--module", action="store_true", help="require a module presentation")
    p.set_defaults(func=_cmd_irr)

    p = sub.add_parser("dim", help="exact quotient dimension oracle")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("lyndon", help="Lyndon-Shirshov word tooling")
    p.add_argument("--alphabet", required=True, help='e.g. "x2>x1"')
    p.add_argument("--max-len", type=int, required=True)
    listing = p.add_mutually_exclusive_group()
    listing.add_argument("--bracket", action="store_true")
    listing.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_lyndon)

    p = sub.add_parser("construct", help="emit a certified embedding presentation")
    kinds = p.add_subparsers(dest="kind", required=True)
    written = _Parser(add_help=False)
    written.add_argument("-o", "--output", help="write the presentation here, not to stdout")
    written.add_argument("--cert", help="write the JSON certificate here (default OUTPUT.cert.json)")

    k = kinds.add_parser("hnn", parents=[written], help="the HNN-style group embedding")
    group = k.add_mutually_exclusive_group(required=True)
    group.add_argument("--cyclic", type=int, help="cyclic group order")
    group.add_argument("--table", help="group table file (JSON)")
    k.add_argument("--index-bound", type=int, help="default: the table size")
    k.set_defaults(func=_cmd_construct, build=_build_hnn)

    k = kinds.add_parser("malcev", parents=[written], help="the Malcev two-generator algebra")
    k.add_argument("base", help="base presentation file")
    k.add_argument("--count", type=int, help="default: the base alphabet size")
    k.add_argument("--a", default="a", help="first fresh generator (default a)")
    k.add_argument("--b", default="b", help="second fresh generator (default b)")
    k.set_defaults(func=_cmd_construct, build=_build_malcev)

    k = kinds.add_parser("simple", parents=[written], help="one simple-algebra step")
    k.add_argument("--table", required=True, help="multiplication table file (JSON)")
    k.add_argument("--pairs", help="pairs file (JSON)")
    k.add_argument("--m-bound", type=int, default=1, help="default 1")
    k.add_argument("--n-bound", type=int, default=1, help="default 1")
    k.set_defaults(func=_cmd_construct, build=_build_simple)

    k = kinds.add_parser("module-cyclic", parents=[written], help="the cyclic module")
    k.add_argument("base", help="base module presentation file")
    k.add_argument("--count", type=int, help="default: the base basis size")
    k.add_argument("--generator", default="y", help="fresh generator (default y)")
    k.set_defaults(func=_cmd_construct, build=_build_module_cyclic)

    k = kinds.add_parser("lie-words", help="the words a*a*b^i*a*b, bracketed")
    k.add_argument("--max-i", type=int, default=4, help="default 4")
    k.set_defaults(func=_cmd_lie_words)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GsbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
