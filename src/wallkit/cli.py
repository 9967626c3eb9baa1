"""Command-line front end.

Exit codes are a contract: 0 pass, 1 condition/verdict failure, 2 input
error, 3 budget exhaustion.  Rationals are rendered as num/den everywhere;
reports are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .complexes import (
    Complex,
    build_cayley_ball,
    build_example1,
    build_example2,
    load_complex,
    save_complex,
)
from .dehn import DEFAULT_NODE_BUDGET, DehnMachine, dehn_reduce, env_budget, shortlex_normal_form
from .errors import BudgetExceeded, HypothesisViolated, ParseError, WallkitError
from .presentation import Presentation, check_small_cancellation, gen_example, parse_presentation
from .separation import (
    admissible_lambda,
    report_to_csv,
    report_to_json,
    verify_linear_separation,
)
from .walls import build_walls, dump_walls, walls_to_dot
from .words import render

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from e


def _int_list(text: str) -> list[int]:
    try:
        ints = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from e
    if not ints:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    return ints


def _positive(text: str) -> int:
    n = int(text)  # argparse reports a ValueError as "invalid _positive value"
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _load_presentation(args) -> Presentation:
    if getattr(args, "input", None):
        return parse_presentation(Path(args.input).read_text(encoding="utf-8"))
    family = getattr(args, "family", None)
    if family in (None, ""):
        raise ParseError("need --input or --family")
    if family == "tv":
        return gen_example("tv", I=set(args.I or [1, 2]), k=args.k)
    if family == "pride":
        return gen_example("pride", n_max=args.n_max)
    if family == "rips":
        return gen_example(
            "rips",
            q_generators=tuple((args.q_gens or "a1").split(",")),
            j_max=args.j_max,
            scale=args.scale,
        )
    if family in ("none", "free"):
        return gen_example("free")
    raise ParseError(f"unknown family {family!r}")


def _build_complex(args) -> Complex:
    example = getattr(args, "example", None)
    if example:
        if example == "example1":
            return build_example1(args.n or [1, 2, 3])
        if example == "example2":
            return build_example2(args.x, args.half_r)
        raise ParseError(f"unknown example {example!r}")
    if getattr(args, "complex_file", None):
        return load_complex(Path(args.complex_file).read_text(encoding="utf-8"))
    p = _load_presentation(args)
    m = DehnMachine(p, node_budget=args.node_budget)
    return build_cayley_ball(p, m, args.radius, vertex_budget=args.vertex_budget, seed=args.seed)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- commands -----------------------------------------------------------------


def cmd_check(args) -> int:
    p = _load_presentation(args)
    report = check_small_cancellation(p, args.lam)
    for e in report.entries:
        worst = p.show(e.worst.word) if e.worst else "-"
        status = "ok" if e.passed else "FAIL"
        print(
            f"relator {e.rid} |r|={e.relator_length} max piece={e.max_piece} "
            f"ratio={_frac_str(e.ratio)} worst={worst} [{status}]"
        )
    print(f"condition C'({_frac_str(report.lam)}): {'pass' if report.passed else 'fail'}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _refuse(out_dir: Path | None, kind: str, e: Exception, code: int) -> int:
    """Report a run that ends before any pair is checked; the summary keeps
    only the error and the failed verdict."""
    print(f"{kind}: {e}", file=sys.stderr)
    if out_dir:
        (out_dir / "summary.json").write_text(json.dumps({"error": str(e), "passed": False}, indent=2) + "\n")
    return code


def cmd_separation(args) -> int:
    admissible_lambda(args.lam)  # before the build: a bad lambda builds no ball
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        c = _build_complex(args)
    except BudgetExceeded as e:
        return _refuse(out_dir, "budget", e, EXIT_BUDGET)
    ws = build_walls(c)
    region = None
    if args.region == "auto":
        region = sorted(random.Random(args.seed).sample(range(c.nv), min(c.nv, 240)))
    try:
        report = verify_linear_separation(
            c, ws, args.lam, region=region, observe=args.observe, max_pairs=args.max_pairs, seed=args.seed
        )
    except HypothesisViolated as e:
        return _refuse(out_dir, "error", e, EXIT_FAIL)
    csv_text = report_to_csv(report)
    json_text = report_to_json(report)
    if out_dir:
        (out_dir / "report.csv").write_text(csv_text)
        (out_dir / "summary.json").write_text(json_text)
        (out_dir / "complex.txt").write_text(save_complex(c))
        if args.dot:
            (out_dir / "walls.dot").write_text(walls_to_dot(ws))
    else:
        sys.stdout.write(json_text)
    mr = report.min_ratio
    print(
        f"pairs={report.pair_count} constant={_frac_str(report.constant)} "
        f"min_ratio={_frac_str(mr) if mr is not None else 'n/a'} "
        f"{'observe' if report.observe else ('pass' if report.passed else 'FAIL')}"
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_word(args) -> int:
    p = _load_presentation(args)
    w = p.word(args.word)
    m = DehnMachine(p, node_budget=args.node_budget)
    if not m.small_cancellation_ok:
        print("presentation fails the 1/6 piece condition", file=sys.stderr)
        return EXIT_FAIL
    reduced = dehn_reduce(w, m)
    nf = shortlex_normal_form(reduced, m)
    print(f"reduced: {render(reduced, p.generators)}")
    print(f"normal form: {render(nf, p.generators)}")
    print("trivial" if len(reduced) == 0 else "non-trivial")
    return EXIT_PASS


def cmd_walls_dump(args) -> int:
    ws = build_walls(_build_complex(args))
    text = dump_walls(ws)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(walls_to_dot(ws))
    return EXIT_PASS


def cmd_examples(_args) -> int:
    print("families (presentations):")
    print("  tv        --I 1,2 --k 7        relators (a^n b^n)^k for n in I")
    print("  pride     --n-max N            relators a*(a^n b^n)^10, b*(a^n b^2n)^10")
    print("  rips      --j-max J --scale S  conjugation words padded with (xy)^i xy^2 blocks")
    print("  none/free                      free group on a, b")
    print("complexes (built directly):")
    print("  example1  --n 1,2,3            chained theta graphs; B(6) holds, ratio dw/d decays")
    print("  example2  --x 2 --half-r 14    two cells sharing a short segment; double-crossing walls")
    return EXIT_PASS


# -- argument wiring ----------------------------------------------------------


def _add_source_args(sp, with_example: bool = True):
    sp.add_argument("--input", help="presentation file")
    sp.add_argument("--family", help="builtin family: tv, pride, rips, none")
    sp.add_argument("--I", type=_int_list, help="tv: index set, e.g. 1,2")
    sp.add_argument("--k", type=int, default=7, help="tv: power (default 7)")
    sp.add_argument("--n-max", dest="n_max", type=int, default=1, help="pride: truncation")
    sp.add_argument("--j-max", dest="j_max", type=int, default=1, help="rips: blocks")
    sp.add_argument("--scale", type=int, default=80, help="rips: scaling constant")
    sp.add_argument("--q-gens", dest="q_gens", help="rips: comma-separated quotient generators")
    if with_example:
        sp.add_argument("--example", help="builtin complex: example1, example2")
        sp.add_argument("--n", type=_int_list, help="example1: n list")
        sp.add_argument("--x", type=int, default=2, help="example2: shared segment length")
        sp.add_argument("--half-r", dest="half_r", type=int, default=14, help="example2: half cell length")
        sp.add_argument("--complex-file", help="load a complex file instead of building")


def _add_budget_args(sp, ball: bool = True):
    default_nodes = env_budget(DEFAULT_NODE_BUDGET)
    sp.add_argument("--node-budget", type=_positive, default=default_nodes, help="Dehn index and normal-form table budget")
    if ball:
        sp.add_argument("--vertex-budget", type=_positive, default=min(500_000, default_nodes), help="ball vertex budget")
        sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wallkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="piece condition check on a presentation")
    _add_source_args(sp, with_example=False)
    sp.add_argument("--lambda", dest="lam", type=_fraction, default=None, help="default: the presentation's lambda")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("separation", help="wall vs path metric comparison")
    _add_source_args(sp)
    sp.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1, 6))
    sp.add_argument("--radius", type=_positive, default=6)
    sp.add_argument("--observe", action="store_true", help="record ratios with no verdict")
    sp.add_argument(
        "--region", choices=("auto", "all"), default="auto",
        help="auto: a seeded sample of 240 vertices (every vertex on smaller complexes); all: every vertex",
    )
    sp.add_argument("--max-pairs", dest="max_pairs", type=_positive, default=None)
    sp.add_argument("--out", help="output directory for report.csv / summary.json")
    sp.add_argument("--dot", action="store_true", help="also write walls.dot")
    _add_budget_args(sp)
    sp.set_defaults(fn=cmd_separation)

    sp = sub.add_parser("word", help="word problem: reduce, normal form, triviality")
    _add_source_args(sp, with_example=False)
    sp.add_argument("word", help="word over the presentation's generators")
    _add_budget_args(sp, ball=False)
    sp.set_defaults(fn=cmd_word)

    sp = sub.add_parser("walls-dump", help="dump the wall partition and hypergraphs")
    _add_source_args(sp)
    sp.add_argument("--radius", type=_positive, default=6)
    sp.add_argument("--out", help="output file (default stdout)")
    sp.add_argument("--dot", help="also write hypergraph DOT to this file")
    _add_budget_args(sp)
    sp.set_defaults(fn=cmd_walls_dump)

    sp = sub.add_parser("examples", help="list builtin families and complexes")
    sp.set_defaults(fn=cmd_examples)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (WallkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
