"""Command-line front end: load structures, run checks, emit reports.

Exit codes: 0 when every check passed, 1 when a law failed (the report is
still emitted), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import InputFormatError, StructureError
from .quantale import (
    check_ld_laws,
    check_quantale_laws,
    find_dualizers,
    quantale_from_json,
)
from .qmod import verify_linear_qmod_theorem, verify_linear_quantaloid_theorems
from .qrel import (
    check_girard_qrel,
    compose_par,
    compose_tensor,
    rel_dual,
    relation_from_json,
    relation_to_json,
    verify_qrel_laws,
)
from .quantaloid import one_object_quantaloid, quantaloid_from_json
from .report import LawReport, Sampler
from .verify import (
    catalog,
    catalog_entry,
    default_sets,
    run_theorem,
)

PASS_EXIT = 0
FAIL_EXIT = 1
USAGE_EXIT = 2


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise StructureError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise StructureError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(obj, dict):
        raise InputFormatError(f"{path} must hold a JSON object")
    return obj


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def sampler_count(text: str) -> int | None:
    """An argparse type (named for its error message): None for
    ``exhaustive``, N >= 1 for ``random:N``."""
    if text == "exhaustive":
        return None
    if not text.startswith("random:"):
        raise argparse.ArgumentTypeError(f"use exhaustive or random:N, not {text!r}")
    return _at_least(1)(text[len("random:"):])


def _sampler(args) -> Sampler:
    if args.sampler is None:
        return Sampler(mode="exhaustive", seed=args.seed, window=args.window)
    return Sampler(mode="random", seed=args.seed, count=args.sampler,
                   window=args.window)


def _emit(report: LawReport, args) -> int:
    if args.json:
        sys.stdout.write(report.json_bytes().decode("utf-8") + "\n")
    else:
        print(report.to_text())
    return PASS_EXIT if report.ok else FAIL_EXIT


def _write_relation(out, args) -> int:
    payload = json.dumps(relation_to_json(out), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return PASS_EXIT


def cmd_check_quantale(args) -> int:
    loaded = quantale_from_json(_read_json(args.file), args.window)
    report = check_quantale_laws(loaded.quantale, window=args.window,
                                 suite=f"quantale-laws[{args.file}]")
    return _emit(report, args)


def cmd_check_ld(args) -> int:
    loaded = quantale_from_json(_read_json(args.file), args.window)
    if loaded.ld is None:
        raise StructureError("file has no par structure or dualizer")
    report = check_ld_laws(loaded.ld, window=args.window,
                           suite=f"ld-laws[{args.file}]")
    return _emit(report, args)


def cmd_find_dualizer(args) -> int:
    loaded = quantale_from_json(_read_json(args.file), args.window)
    found = find_dualizers(loaded.quantale,
                           loaded.quantale.sample_elements(args.window))
    if args.json:
        print(json.dumps({"dualizers": list(found)}, sort_keys=True))
    elif found:
        print("cyclic dualizing elements:", ", ".join(str(d) for d in found))
    else:
        print("no cyclic dualizing element")
    return PASS_EXIT


def cmd_compose(args) -> int:
    loaded = quantale_from_json(_read_json(args.quantale), args.window)
    if args.op == "par" and loaded.ld is None:
        raise StructureError("par composition needs a par structure")
    amb = loaded.ambient()
    f = relation_from_json(_read_json(args.left), amb)
    g = relation_from_json(_read_json(args.right), amb)
    return _write_relation(
        compose_tensor(f, g) if args.op == "tensor" else compose_par(f, g), args)


def cmd_dual(args) -> int:
    loaded = quantale_from_json(_read_json(args.quantale), args.window)
    if loaded.girard is None:
        raise StructureError("relation dual needs a dualizer in the file")
    amb = loaded.girard
    r = relation_from_json(_read_json(args.relation), amb)
    return _write_relation(rel_dual(r, amb.dualizer), args)


def _structure_for_entry_or_file(args) -> tuple[str, object, object]:
    """Resolve to (label, ld-or-None, girard-or-None)."""
    if args.entry:
        entry = catalog_entry(args.entry, args.window)
        return entry.name, entry.ld, entry.girard
    if not args.file:
        raise StructureError("provide a structure file or --entry NAME")
    loaded = quantale_from_json(_read_json(args.file), args.window)
    return args.file, loaded.ld, loaded.girard


def cmd_check_girard_qrel(args) -> int:
    name, _, girard = _structure_for_entry_or_file(args)
    if girard is None:
        raise StructureError("structure has no Girard form")
    report = check_girard_qrel(girard, default_sets(args.max_set),
                               _sampler(args), suite=f"girard-qrel[{name}]")
    return _emit(report, args)


def cmd_verify_qrel(args) -> int:
    name, ld, _ = _structure_for_entry_or_file(args)
    if ld is None:
        raise StructureError("structure has no par layer")
    report = verify_qrel_laws(ld, default_sets(args.max_set), _sampler(args),
                              suite=f"qrel-laws[{name}]")
    return _emit(report, args)


def _base_quantaloid(args):
    """The catalog entry's kept base, or a quantaloid built from the file."""
    entry = None
    if args.entry:
        entry = catalog_entry(args.entry, args.window)
        ld = entry.ld
    elif not args.file:
        raise StructureError("provide a structure file or --entry NAME")
    else:
        obj = _read_json(args.file)
        if obj.get("kind") not in ("table", "zinf"):
            return quantaloid_from_json(obj)
        ld = quantale_from_json(obj, args.window).ld
        if ld is None:
            raise StructureError("structure has no par layer")
    if not ld.carrier.is_finite:
        raise StructureError("theorem drivers need a finite structure")
    return one_object_quantaloid(ld) if entry is None else entry.base


def cmd_verify_qmod(args) -> int:
    base = _base_quantaloid(args)
    report = verify_linear_qmod_theorem(base, _sampler(args))
    return _emit(report, args)


def cmd_verify_monq(args) -> int:
    base = _base_quantaloid(args)
    report = verify_linear_quantaloid_theorems(base)
    return _emit(report, args)


def cmd_run_theorem(args) -> int:
    report = run_theorem(args.theorem, args.entry, _sampler(args),
                         default_sets(args.max_set), args.window)
    return _emit(report, args)


def cmd_catalog(args) -> int:
    entries = catalog(args.window)
    if args.json:
        payload = {
            name: {
                "quantale": e.quantale_ok,
                "ld": e.ld_ok,
                "girard": e.is_girard,
                "dualizers": list(e.dualizers),
            }
            for name, e in entries.items()
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for name, e in entries.items():
            tags = []
            if e.quantale_ok:
                tags.append("quantale")
            if e.ld_ok:
                tags.append("LD")
            if e.is_girard:
                tags.append(f"Girard(dualizer={e.girard.dualizer})")
            print(f"{name:18s} {', '.join(tags) if tags else 'broken'}")
    return PASS_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrel",
        description="Quantale-valued relations and linear bicategory law checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, entry_or_file=False, file_arg=None):
        p.add_argument("--json", action="store_true",
                       help="machine-readable report output")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sampler", type=sampler_count, default="exhaustive",
                       help="exhaustive or random:N")
        p.add_argument("--max-set", type=_at_least(1), default=2, dest="max_set")
        p.add_argument("--window", type=_at_least(0), default=10,
                       help="integer window for extended-integer sampling")
        if entry_or_file:
            p.add_argument("file", nargs="?", help="structure JSON file")
            p.add_argument("--entry", help="built-in catalog entry name")
        elif file_arg:
            p.add_argument(file_arg)

    p = sub.add_parser("check-quantale", help="check the quantale laws of a file")
    common(p, file_arg="file")
    p.set_defaults(fn=cmd_check_quantale)

    p = sub.add_parser("check-ld", help="check both structures and distributions")
    common(p, file_arg="file")
    p.set_defaults(fn=cmd_check_ld)

    p = sub.add_parser("find-dualizer", help="scan for cyclic dualizing elements")
    common(p, file_arg="file")
    p.set_defaults(fn=cmd_find_dualizer)

    p = sub.add_parser("compose", help="compose two relation files")
    p.add_argument("--op", choices=("tensor", "par"), default="tensor")
    p.add_argument("--quantale", required=True)
    p.add_argument("--out")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.add_argument("--window", type=_at_least(0), default=10)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("dual", help="dualize a relation against the file's dualizer")
    p.add_argument("--quantale", required=True)
    p.add_argument("--out")
    p.add_argument("relation")
    p.add_argument("--json", action="store_true")
    p.add_argument("--window", type=_at_least(0), default=10)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("check-girard-qrel", help="cyclicity and double dual on relations")
    common(p, entry_or_file=True)
    p.set_defaults(fn=cmd_check_girard_qrel)

    p = sub.add_parser("verify-qrel", help="relation-level linear quantaloid laws")
    common(p, entry_or_file=True)
    p.set_defaults(fn=cmd_verify_qrel)

    p = sub.add_parser("verify-qmod", help="enriched-category law suite")
    common(p, entry_or_file=True)
    p.set_defaults(fn=cmd_verify_qmod)

    p = sub.add_parser("verify-monq", help="monad construction law suite")
    common(p, entry_or_file=True)
    p.set_defaults(fn=cmd_verify_monq)

    p = sub.add_parser("run-theorem", help="run a registered equivalence check")
    p.add_argument("theorem")
    common(p, entry_or_file=False)
    p.add_argument("--entry", required=True)
    p.set_defaults(fn=cmd_run_theorem)

    p = sub.add_parser("catalog", help="list built-in structures and classifications")
    p.add_argument("--json", action="store_true")
    p.add_argument("--window", type=_at_least(0), default=10)
    p.set_defaults(fn=cmd_catalog)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing keeps its state in the namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
