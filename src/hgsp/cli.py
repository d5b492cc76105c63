"""Command line front end.

Five subcommands: enumerate (list qualified pairs of a degree), analyze
(inspect one pair), search (look for a witness word; cache.py serves and
stores the results), verify (check a certificate for a given word) and
report (cross-check the census against the embedded tables).

Pairs are given in one of three equivalent forms: parameter lists
(--alpha 0,0,0,0,0,0 --beta 1/3,1/3,2/3,2/3,1/6,5/6), factorization
text (--f 1^6 --g 3^2,6), or ascending coefficients
(--f-coeffs 1,-6,15,-20,15,-6,1 --g-coeffs ...).

Pair input and enumerate --degree are capped at MAX_DEGREE: a larger
degree, or a cyclotomic index or parameter denominator m with
totient(m) > MAX_DEGREE, is a usage error caught before anything is
expanded or factored.

Exit codes: 0 success, 1 domain failure (failed verdict, unqualified
pair, report mismatch), 2 usage or syntax error or an unusable file (stdout
too, or a cache that is not a regular file; a stderr that cannot be
written exits 2 with nothing said), 141 (128 + SIGPIPE) when stdout's
reader closes it early (`hgsp ... | head`).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from . import __version__
from .cache import ResultCache, default_cache_path, outcome_record
from .certify import CHECK_ORDER, CertificateReport, verify_witness
from .cyclotomic import (
    CycloFactorization,
    NotCyclotomicProduct,
    admissible_indices,
    factorization_from_parameters,
    factorization_from_poly,
    parse_parameters,
)
from .hgroup import (
    InvariantFormError,
    build_generators,
    invariant_symplectic_form,
    transvection_vector,
)
from .pairs import (
    EQUIVALENCE,
    NotQualifiedError,
    QualifiedPair,
    enumerate_qualified_pairs,
    initial_classification,
    make_pair,
    vector_gcd,
)
from .poly import parse_coefficients
from .report import build_report
from .search import FOUND, SearchConfig, search_witness
from .words import NotReducedError, Word, WordSyntaxError

CSV_COLUMNS = (
    "pair_id",
    "alpha",
    "beta",
    "lc",
    "v",
    "gcd_v",
    "class",
    "witness",
    "depth",
)

STDOUT, STDERR = "<stdout>", "<stderr>"  # the names a failed write to either goes under

#: Largest degree accepted on input: degree 12 enumerates 75,421 classes,
#: and each step of 2 costs about five times more.
MAX_DEGREE = 12


class DomainError(Exception):
    """Input parsed fine but names something outside the domain."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} is above the limit {MAX_DEGREE}")


def _check_indices(indices: Iterable[int], what: str) -> None:
    allowed = admissible_indices(MAX_DEGREE)
    for m in indices:
        if m not in allowed:
            raise ValueError(
                f"{what} {m} is out of range (its totient exceeds {MAX_DEGREE})"
            )


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "pair input (give alpha/beta, f/g, or f-coeffs/g-coeffs)"
    )
    group.add_argument("--alpha", help="comma-separated parameters of f")
    group.add_argument("--beta", help="comma-separated parameters of g")
    group.add_argument("--f", help="factorization text for f, e.g. 1^6")
    group.add_argument("--g", help="factorization text for g, e.g. 3^2,6")
    group.add_argument("--f-coeffs", help="ascending integer coefficients of f")
    group.add_argument("--g-coeffs", help="ascending integer coefficients of g")


def _resolve_factorizations(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[CycloFactorization, CycloFactorization]:
    styles = [
        (args.alpha is not None, args.beta is not None, "--alpha/--beta"),
        (args.f is not None, args.g is not None, "--f/--g"),
        (args.f_coeffs is not None, args.g_coeffs is not None, "--f-coeffs/--g-coeffs"),
    ]
    chosen = [s for s in styles if s[0] or s[1]]
    if len(chosen) != 1 or not (chosen[0][0] and chosen[0][1]):
        parser.error(
            "give the pair as --alpha/--beta, --f/--g, or --f-coeffs/--g-coeffs "
            "(exactly one style, both sides)"
        )
    try:
        if args.alpha is not None:
            sides = (parse_parameters(args.alpha), parse_parameters(args.beta))
            for params in sides:
                _check_indices((r.denominator for r in params), "denominator")
                _check_degree(len(params))
            return tuple(factorization_from_parameters(p) for p in sides)
        if args.f is not None:
            facs = (CycloFactorization.parse(args.f), CycloFactorization.parse(args.g))
            for fac in facs:
                _check_indices((m for m, _ in fac.factors), "cyclotomic index")
                _check_degree(fac.degree)
            return facs
        polys = (parse_coefficients(args.f_coeffs), parse_coefficients(args.g_coeffs))
        for p in polys:
            _check_degree(p.degree)
        return tuple(factorization_from_poly(p) for p in polys)
    except NotCyclotomicProduct as exc:
        raise DomainError(str(exc)) from exc
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _resolve_pair(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> QualifiedPair:
    f_fac, g_fac = _resolve_factorizations(args, parser)
    try:
        return make_pair(f_fac, g_fac)
    except NotQualifiedError as exc:
        raise DomainError(
            "pair is not qualified:\n" + "\n".join(f"  - {r}" for r in exc.reasons)
        ) from exc


def _pair_record(pair: QualifiedPair, with_omega: bool = False) -> dict:
    gen = build_generators(pair)
    v = transvection_vector(gen)
    record = {
        "pair_id": pair.pair_id,
        "degree": pair.degree,
        "f": pair.f_fac.text,
        "g": pair.g_fac.text,
        "alpha": [str(x) for x in pair.alpha],
        "beta": [str(x) for x in pair.beta],
        "lc": pair.lc,
        "v": list(v),
        "gcd_v": vector_gcd(v),
        "class": initial_classification(pair, v).kind,
        "witness": None,
        "depth": None,
    }
    if with_omega:
        form = invariant_symplectic_form(gen, v)
        record["omega"] = [list(row) for row in form.omega]
    return record


@contextmanager
def _naming(target: str) -> Iterator[None]:
    """Name target in an OSError that names none, as a failed write's."""
    try:
        yield
    except OSError as exc:
        exc.filename = exc.filename or target
        raise


def _print(text: str, target: str = STDOUT) -> None:
    """print to stdout, or to stderr, naming it in a failed write."""
    with _naming(target):
        print(text, file=sys.stderr if target == STDERR else sys.stdout)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(str(x) for x in value)
    return str(value)


def _write_records(records: list[dict], fmt: str, out: TextIO) -> None:
    if fmt == "jsonl":
        for record in records:
            out.write(json.dumps(record) + "\n")
        return
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([_csv_cell(record.get(col)) for col in CSV_COLUMNS])


def _cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.degree < 2 or args.degree % 2:
        parser.error(f"degree must be a positive even integer, got {args.degree}")
    if args.degree > MAX_DEGREE:
        parser.error(f"degree must be at most {MAX_DEGREE}, got {args.degree}")
    if args.output and (Path(args.output).is_dir() or not Path(args.output).parent.is_dir()):
        parser.error(f"--output {args.output} must name a file in an existing directory")
    pairs = enumerate_qualified_pairs(args.degree, mum_only=args.mum)
    records = [_pair_record(p, with_omega=args.with_omega) for p in pairs]
    if args.output:
        with _naming(args.output), open(args.output, "w", encoding="utf-8", newline="") as out:
            _write_records(records, args.format, out)
    else:
        with _naming(STDOUT):
            _write_records(records, args.format, sys.stdout)
    small = sum(1 for p in pairs if abs(p.lc) <= 2)
    _print(f"total {len(pairs)}, |lc| <= 2: {small}, |lc| >= 3: {len(pairs) - small} "
           f"(degree {args.degree}, convention {EQUIVALENCE})", STDERR)
    return 0


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    pair = _resolve_pair(args, parser)
    gen = build_generators(pair)
    v = transvection_vector(gen)
    _print(f"pair_id: {pair.pair_id}")
    _print(f"f: {pair.f_fac.text} = {','.join(str(c) for c in pair.f.coeffs)}")
    _print(f"g: {pair.g_fac.text} = {','.join(str(c) for c in pair.g.coeffs)}")
    _print(f"alpha: {','.join(str(x) for x in pair.alpha)}")
    _print(f"beta: {','.join(str(x) for x in pair.beta)}")
    _print(f"lc: {pair.lc} (|lc| = {abs(pair.lc)})")
    _print(f"v: {','.join(str(x) for x in v)}")
    _print(f"gcd(v): {vector_gcd(v)}")
    try:
        form = invariant_symplectic_form(gen, v)
    except InvariantFormError as exc:
        _print(f"omega: unavailable ({exc})")
    else:
        _print("omega:")
        for row in form.omega:
            _print("  " + " ".join(f"{x:6d}" for x in row))
    cls = initial_classification(pair, v)
    if cls.kind == "arithmetic_small_lc":
        _print(f"sv-criterion: arithmetic by small leading coefficient (|lc| = {abs(pair.lc)})")
    else:
        _print(f"sv-criterion: inapplicable (|lc| = {abs(pair.lc)})")
    if cls.kind == "obstructed":
        _print(f"gcd obstruction: no witness word exists (gcd {cls.gcd})")
    return 0


def _cmd_search(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    pair = _resolve_pair(args, parser)
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        path = Path(args.cache) if args.cache else default_cache_path()
        # the cache creates missing directories, so the nearest existing
        # ancestor has to be one
        if path.is_dir() or not next(p for p in path.parents if p.exists()).is_dir():
            parser.error(f"cache path {path} is a directory or lies under a file")
        cache = ResultCache(path)
        # a record holds one witness, so it cannot answer --all-at-min-depth
        if not (args.force or args.all_at_min_depth):
            hit = cache.serve(pair, args.max_depth)
            if hit is not None:
                _print(json.dumps({**hit.to_json(), "cached": True}))
                return 0
    cfg = SearchConfig(max_depth=args.max_depth, all_at_min_depth=args.all_at_min_depth)
    outcome = search_witness(pair, cfg)
    if outcome.status == FOUND:
        report = verify_witness(pair, outcome.word)
        if not report.verdict:
            raise DomainError(
                f"search found {outcome.word}, but its certificate fails at {report.first_failure}"
            )
    record = outcome_record(pair, outcome)
    _print(json.dumps({**outcome.to_json(), "pair_id": pair.pair_id, "class": record.kind}))
    if cache is not None:
        cache.store(record)
    return 0


def _print_certificate(report: CertificateReport) -> None:
    _print(f"pair_id: {report.pair_id}")
    _print(f"word: {report.word}")
    _print(f"c (last entry of gamma(v)): {report.c}")
    _print(f"omega(v, e_n): {report.omega_v_en}")
    for name in CHECK_ORDER:
        flag = getattr(report, name + "_ok")
        if flag is None:
            mark = " -- "
        elif flag:
            mark = " ok "
        else:
            mark = "FAIL"
        _print(f"  [{mark}] {name}")
    _print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    if report.first_failure:
        _print(f"first failure: {report.first_failure}")


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    pair = _resolve_pair(args, parser)
    try:
        word = Word.parse(args.word)
    except (WordSyntaxError, NotReducedError) as exc:
        shown = repr(args.word[:40]) + ("..." if len(args.word) > 40 else "")
        parser.error(f"bad word {shown}: {exc}")
    report = verify_witness(pair, word)
    if args.json:
        _print(json.dumps(report.to_json()))
    else:
        _print_certificate(report)
    return 0 if report.verdict else 1


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    result = build_report()
    if args.json:
        _print(json.dumps(result.to_json()))
    else:
        _print(result.render())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgsp",
        description="census, witness search and certification for symplectic "
        "hypergeometric pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list qualified pairs of a degree")
    p_enum.add_argument("--degree", type=int, default=6)
    p_enum.add_argument("--mum", action="store_true", help="only pairs with f = (x-1)^n")
    p_enum.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_enum.add_argument("--output", help="write records here instead of stdout")
    p_enum.add_argument(
        "--with-omega",
        action="store_true",
        help="include the invariant form in each record (slower)",
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_analyze = sub.add_parser("analyze", help="inspect a single pair")
    _add_pair_arguments(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_search = sub.add_parser("search", help="search for a witness word")
    _add_pair_arguments(p_search)
    p_search.add_argument("--max-depth", type=_positive_int, default=9)
    p_search.add_argument(
        "--all-at-min-depth",
        action="store_true",
        help="report every passing word of the minimal length (searches even on a cache hit)",
    )
    p_search.add_argument("--cache", help="JSONL cache path (default: HGSP_CACHE or ./hgsp-cache.jsonl)")
    p_search.add_argument("--no-cache", action="store_true")
    p_search.add_argument("--force", action="store_true", help="search even on a cache hit")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="verify a witness certificate")
    _add_pair_arguments(p_verify)
    p_verify.add_argument("--word", required=True, help='witness word, e.g. "A^2BA^-1B^4A"')
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="cross-check the census against the tables")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args, parser)
            with _naming(STDOUT):
                sys.stdout.flush()  # a closed pipe or full disk then shows here, not at exit
            return code
        except DomainError as exc:
            _print(str(exc), STDERR)
            return 1
        except OSError as exc:
            if exc.filename == STDERR:
                raise
            pipe = isinstance(exc, BrokenPipeError)
            if pipe or exc.filename == STDOUT:  # so the flush at exit writes to devnull
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if pipe:  # the reader left: stop quietly
                return 141
            if exc.filename is None:  # not a file the command opened or wrote
                raise
            _print(f"hgsp: {exc.filename}: {exc.strerror}", STDERR)
            return 2
    except OSError as exc:
        if exc.filename != STDERR:
            raise
        # no message can say why, so the exit code alone reports the failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 141 if isinstance(exc, BrokenPipeError) else 2


if __name__ == "__main__":
    sys.exit(main())
