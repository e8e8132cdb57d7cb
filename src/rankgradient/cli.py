"""Command-line front end.

Commands: enumerate, lowindex, chain, gradient, graphing, tower, validate.
Each command takes only the options it reads, and offers --format csv
only where a CSV form exists.  Every report embeds the tool version and a
config echo: the command, its source and every option its parser defines,
as parsed (defaults included), with keys sorted; repeated runs with the
same config produce byte-identical output.

Exit codes: 0 ok, 1 I/O error, 2 parse/config error, 3 budget exhausted,
4 internal invariant violation (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .cache import TableCache
from .chains import (
    DEFAULT_CHAIN_INDEX_CAP,
    farber_chain,
    gradient_sequence,
    hnn_chain,
    lamplighter_chain,
    lamplighter_presentation,
    report_to_csv,
    report_to_obj,
)
from .cosets import DEFAULT_COSET_CAP, low_index, validate
from .errors import BudgetError, InternalInvariantError
from .graphings import edge_measure, graphing_to_json_obj, minimize_graphing
from .homology import DEFAULT_PRIMES
from .towers import (
    build_tower,
    cover_to_json_obj,
    tower_report,
    tower_report_to_csv,
    tower_report_to_obj,
)
from .words import (
    ParseError,
    csv_table,
    frac_str,
    parse_presentation,
    serialize_presentation,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

PRESET_NAMES = (
    "f2",
    "f3",
    "surface2",
    "fig8",
    "s3",
    "z2z2",
    "lamplighter2",
    "lamplighter3",
)


def load_source(args):
    """(presentation, specs-by-name, source tag) from --preset or --input."""
    if args.preset:
        path = os.path.join(os.path.dirname(__file__), "presets", args.preset + ".txt")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ParseError(
                f"unknown preset {args.preset!r}; available: {', '.join(PRESET_NAMES)}"
            ) from None
        source = f"preset:{args.preset}"
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = f"file:{args.input}"
    pres, specs = parse_presentation(text)
    by_name = {}
    for spec in specs:
        if spec.name in by_name:
            raise ParseError(f"duplicate subgroup name {spec.name!r}")
        by_name[spec.name] = spec
    return pres, by_name, source


def pick_spec(args, specs):
    if args.sub:
        if args.sub not in specs:
            raise ParseError(f"no subgroup named {args.sub!r} in the input")
        return specs[args.sub]
    return None


def emit(args, source, body_obj=None, body_csv=None, body_text=None) -> str:
    """Wrap a report in the version/config envelope for the chosen format.

    The config echoes the command, the source and every option the
    command's parser defines, as parsed; --preset and --input are left to
    ``source``.
    """
    echo = {k: v for k, v in vars(args).items() if k not in ("preset", "input")}
    echo["source"] = source
    echo = dict(sorted(echo.items()))
    if args.format == "json":
        return json.dumps(
            {"version": __version__, "config": echo, "report": body_obj}, indent=2
        ) + "\n"
    header = f"# rankgradient {__version__}\n# config {json.dumps(echo)}\n"
    return header + (body_csv if args.format == "csv" else body_text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_enumerate(args):
    pres, specs, source = load_source(args)
    spec = pick_spec(args, specs)
    cache = TableCache(args.cache_dir)
    table = cache.enumerate(pres, spec, cap=args.coset_cap)
    obj = {
        "index": table.index,
        "subgroup": spec.name if spec else "1",
        "perms": {
            name: list(p) for name, p in zip(pres.generators, table.perms)
        },
        "cache": {"hits": cache.hits, "misses": cache.misses, "enabled": cache.enabled},
    }
    text = (
        f"index {table.index} (subgroup {obj['subgroup']}, "
        f"cache {'hit' if cache.hits else 'miss'})\n"
    )
    return emit(args, source, body_obj=obj, body_text=text)


def cmd_lowindex(args):
    pres, _, source = load_source(args)
    counts = {}
    for table, size in low_index(pres, args.max):  # one class of conjugates each
        counts[table.index] = counts.get(table.index, 0) + size
    obj = {
        "counts": {str(k): counts.get(k, 0) for k in range(1, args.max + 1)},
        "total": sum(counts.values()),
    }
    csv_body = csv_table(
        ["index", "count"], [[k, counts.get(k, 0)] for k in range(1, args.max + 1)]
    )
    text = "".join(
        f"index {k}: {counts.get(k, 0)} subgroups\n" for k in range(1, args.max + 1)
    )
    return emit(args, source, body_obj=obj, body_csv=csv_body, body_text=text)


def build_chain(args, pres, specs, source):
    kind = args.kind
    if kind == "auto":
        if args.sub:
            kind = "farber"
        elif source.startswith("preset:lamplighter"):
            kind = "lamplighter"
        elif args.stable in pres.generators:
            kind = "hnn"
        elif len(specs) == 1:
            kind = "farber"
        else:
            raise ParseError(
                "cannot infer the chain kind; pass --kind farber|hnn|lamplighter"
            )
    if kind == "farber":
        spec = pick_spec(args, specs)
        if spec is None:
            if len(specs) != 1:
                raise ParseError("farber chains need --sub naming the seed subgroup")
            spec = next(iter(specs.values()))
        return farber_chain(
            pres, spec, args.depth, coset_cap=args.coset_cap, index_cap=args.index_cap
        )
    if kind == "hnn":
        return hnn_chain(pres, args.stable, args.depth, coset_cap=args.coset_cap)
    if kind == "lamplighter":
        m = args.m
        if m is None and source.startswith("preset:lamplighter"):
            m = int(source.rsplit("lamplighter", 1)[1])
        if m is None:
            raise ParseError("lamplighter chains need --m")
        if pres != lamplighter_presentation(m):
            raise ParseError(f"{source} is not the lamplighter presentation for --m {m}")
        return lamplighter_chain(m, args.depth, coset_cap=args.coset_cap)
    raise ParseError(f"unknown chain kind {kind!r}")


def cmd_chain(args, gradient_only=False):
    pres, specs, source = load_source(args)
    chain = build_chain(args, pres, specs, source)
    report = gradient_sequence(chain, primes=args.primes)
    body = report_to_obj(report)
    if not gradient_only:
        body["chain"] = {
            "provenance": body["chain"],
            "indices": list(chain.indices()),
            "nested": list(chain.nested),
            "stabilized": list(chain.stabilized),
            "truncated": chain.truncated,
        }
    lines = []
    if chain.truncated:
        lines.append(f"TRUNCATED: {chain.truncated}")
    for st in report.levels:
        if st.error:
            lines.append(f"level {st.level}: index {st.index} ERROR {st.error}")
        else:
            ratios = ", ".join(f"{k}={frac_str(v)}" for k, v in st.ratios().items())
            lines.append(
                f"level {st.level}: index {st.index} rank [{st.rank_lower}, {st.rank_upper}] "
                f"beta1 {st.beta1} | {ratios}" + (f" | NOTE {st.note}" if st.note else "")
            )
    return emit(
        args,
        source,
        body_obj=body,
        body_csv=report_to_csv(report),
        body_text="\n".join(lines) + "\n",
    )


def cmd_graphing(args):
    pres, specs, source = load_source(args)
    chain = build_chain(args, pres, specs, source)
    if not 0 <= args.level < len(chain.levels):
        raise ParseError(f"level {args.level} out of range 0..{len(chain.levels) - 1}")
    gens = None
    if args.gens:
        _, sub_specs = parse_presentation(
            "gens " + " ".join(pres.generators) + "\nsub G " + args.gens + "\n"
        )
        gens = sub_specs[0].generators
    graphing, bound = minimize_graphing(chain, args.level, gens, args.coset_cap)
    measure = edge_measure(graphing)
    obj = {
        "level": args.level,
        "index": graphing.index,
        "edge_measure": frac_str(measure),
        "rank_bound": bound,
        "fibers": graphing_to_json_obj(graphing, pres),
    }
    text = (
        f"level {args.level}: index {graphing.index}, edge measure {frac_str(measure)}, "
        f"rank bound {bound}\n"
    )
    return emit(args, source, body_obj=obj, body_text=text)


def cmd_tower(args):
    ns = argparse.Namespace(preset=args.group, input=None)
    a_pres, _, source = load_source(ns)
    mu = Fraction(args.mu)
    levels = build_tower(a_pres, mu, args.depth, scale=args.scale, seed=args.seed)
    report = tower_report(levels, args.primes)
    obj = tower_report_to_obj(report)
    if args.covers:
        obj["covers"] = [cover_to_json_obj(c) for c in levels]
    lines = []
    for i, lc in enumerate(report.levels):
        lines.append(
            f"level {i}: n {lc.n} p {lc.p} mu {frac_str(lc.mu)} radius {lc.radius} "
            f"beta1 {lc.computed_beta1} ({lc.beta1_formula}) "
            f"b1p {{{', '.join(f'{q}: {v}' for q, v in sorted(lc.computed_b1p.items()))}}} "
            f"match {lc.b1p_match}"
        )
    lines.append(
        f"limits: d {frac_str(report.limit_d)}, "
        + ", ".join(f"b1p_{q} {frac_str(v)}" for q, v in sorted(report.limit_b1p.items()))
        + f", beta1 {frac_str(report.limit_beta1)}"
    )
    return emit(
        args,
        source,
        body_obj=obj,
        body_csv=tower_report_to_csv(report),
        body_text="\n".join(lines) + "\n",
    )


def cmd_validate(args):
    pres, specs, source = load_source(args)
    cache = TableCache(args.cache_dir)
    results = []
    for name in sorted(specs):
        table = cache.enumerate(pres, specs[name], cap=args.coset_cap)
        problems = validate(table)
        if problems:
            raise InternalInvariantError(
                f"subgroup {name}: " + "; ".join(problems)
            )
        results.append({"subgroup": name, "index": table.index, "ok": True})
    obj = {
        "generators": list(pres.generators),
        "relators": [pres.word_str(r) for r in pres.relators],
        "subgroups": results,
        "canonical": serialize_presentation(pres, [specs[n] for n in sorted(specs)]),
    }
    text = f"ok: {len(pres.generators)} generators, {len(pres.relators)} relators, " \
           f"{len(results)} subgroup(s) enumerated\n"
    return emit(args, source, body_obj=obj, body_text=text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_CHECK_BOUND (Sorenson and Webster, Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CHECK_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Exact primality test for n < PRIME_CHECK_BOUND."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(text):
    out = tuple(int(p) for p in text.split(","))
    if any(p >= PRIME_CHECK_BOUND for p in out):
        raise argparse.ArgumentTypeError(f"primes must be below {PRIME_CHECK_BOUND}")
    if len(set(out)) != len(out) or not all(is_prime(p) for p in out):
        raise argparse.ArgumentTypeError("primes must be a comma list of distinct primes")
    return out


def _mu(text):
    """Check that text is a rational; keep it as typed for the config echo."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"mu must be a rational such as 3/4, not {text!r}")
    return text


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _parent(*flags, **kwargs):
    """A parent parser holding one option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser():
    source = argparse.ArgumentParser(add_help=False)
    src = source.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--input", help="presentation file")
    plain = _parent("--format", choices=("json", "text"), default="json")
    with_csv = _parent("--format", choices=("json", "csv", "text"), default="json")
    primes = _parent("--primes", type=_primes, default=DEFAULT_PRIMES)
    coset_cap = _parent("--coset-cap", type=_positive_int, default=DEFAULT_COSET_CAP)
    cache_dir = _parent("--cache-dir", default=None, help="coset table cache")

    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--kind", choices=("auto", "farber", "hnn", "lamplighter"),
                       default="auto")
    chain.add_argument("--sub", help="seed subgroup name (farber)")
    chain.add_argument("--stable", default="t", help="stable letter (hnn)")
    chain.add_argument("--m", type=int, default=None, help="wreath exponent (lamplighter)")
    chain.add_argument("--depth", type=int, required=True)
    chain.add_argument("--index-cap", type=_positive_int, default=DEFAULT_CHAIN_INDEX_CAP)

    parser = argparse.ArgumentParser(
        prog="rankgradient",
        description="rank and homology gradients along finite-index subgroup chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", parents=[source, plain, coset_cap, cache_dir],
                        help="Todd-Coxeter enumeration")
    p.add_argument("--sub", help="subgroup name from the input (default: trivial)")

    p = subs.add_parser("lowindex", parents=[source, with_csv],
                        help="all subgroups of small index")
    p.add_argument("--max", type=int, required=True)

    subs.add_parser("chain", parents=[source, with_csv, primes, coset_cap, chain],
                    help="build a chain and report its gradient sequence")
    subs.add_parser("gradient", parents=[source, with_csv, primes, coset_cap, chain],
                    help="gradient sequence only (no chain structure block)")

    p = subs.add_parser("graphing", parents=[source, plain, coset_cap, chain],
                        help="minimized graphing and rank bound at one chain level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--gens", default=None,
                   help="comma-separated generator words for the level subgroup")

    p = subs.add_parser("tower", parents=[with_csv, primes],
                        help="covering tower with prescribed fixed-vertex ratio")
    p.add_argument("--group", choices=("s3", "z2z2"), required=True)
    p.add_argument("--mu", type=_mu, required=True, help="rational, e.g. 3/4")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--scale", type=_positive_int, default=12)
    p.add_argument("--seed", type=int, default=0, help="tower search seed")
    p.add_argument("--covers", action="store_true", help="embed the cover permutations")

    subs.add_parser("validate", parents=[source, plain, coset_cap, cache_dir],
                    help="parse, enumerate and audit an input file")
    return parser


COMMANDS = {
    "enumerate": cmd_enumerate,
    "lowindex": cmd_lowindex,
    "chain": lambda args: cmd_chain(args, gradient_only=False),
    "gradient": lambda args: cmd_chain(args, gradient_only=True),
    "graphing": cmd_graphing,
    "tower": cmd_tower,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = COMMANDS[args.command](args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
