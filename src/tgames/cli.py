"""Command-line front end.

One executable, subcommand per task.  Game documents are read from a path
or from stdin when the path is ``-``; every run can additionally emit a
machine-readable JSON report via ``--json-report``.

Exit codes: 0 success (or: live / player 2 wins), 1 domain negative (not
live / player 1 wins / violations found), 2 undecided at a resource cap or
usage error, 3 I/O error, 4 input error (malformed document or bad query).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .gameio import parse_game, serialize_game
from .graphs import GameError, check_alphabet, complete as complete_graph
from .graphs import validate as validate_graph
from .liveness import DEFAULT_CAP, check_k_live
from .product import build_product, p2_winning_positions
from .reductions import (
    cnf_to_game,
    parse_dimacs_cnf,
    parse_qdimacs,
    qbf_to_game,
    robot_scenario,
)
from .synthesis import adaptive_controller, simulate, solve_bounded, steps_bound
from .transducers import (
    count,
    dedupe_behavioral,
    enumerate_transducers,
    parse_transducer,
    serialize_transducer,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_IO = 3
EXIT_INPUT = 4


class _Report:
    def __init__(self, command: str, args):
        self.data = {
            "command": command,
            "version": __version__,
            "inputs": [],
            "parameters": {
                k: v for k, v in vars(args).items() if k not in ("func", "command", "json_report")
            },
            "outcome": "error",
            "stats": {},
        }
        self.path = args.json_report
        self.deterministic = args.deterministic
        self.started = time.perf_counter()

    def add_input(self, path: str, text: str):
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.data["inputs"].append({"path": path, "sha256": digest})

    def finish(self, outcome: str, **stats):
        self.data["outcome"] = outcome
        self.data["stats"].update(stats)
        if not self.deterministic:
            self.data["stats"]["wall_time"] = time.perf_counter() - self.started
        # keyed lines go to stderr so stdout stays a clean document stream
        for key, value in self.data["stats"].items():
            print(f"REPORT {key} {value}", file=sys.stderr)
        print(f"REPORT outcome {outcome}", file=sys.stderr)
        if self.path:
            with open(self.path, "w") as fh:
                json.dump(self.data, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_game(path: str, report: _Report):
    text = _read(path)
    report.add_input(path, text)
    return parse_game(text)


def _cmd_validate(args, report) -> int:
    g = _load_game(args.game, report)
    violations = validate_graph(g)
    for v in violations:
        print(v)
    report.finish("ok" if not violations else "error", violations=len(violations))
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_complete(args, report) -> int:
    g = _load_game(args.game, report)
    _write(args.output, serialize_game(complete_graph(g)))
    report.finish("ok")
    return EXIT_OK


def _cmd_product(args, report) -> int:
    g = _load_game(args.game, report)
    ttext = _read(args.env)
    report.add_input(args.env, ttext)
    t = parse_transducer(ttext)
    prod = build_product(g, t)
    _write(args.output, serialize_game(prod.graph))
    if args.lassos:
        win, lassos = p2_winning_positions(prod)
        lines = []
        for pos in sorted(win, key=lambda p: prod.positions[p]):
            lasso = lassos[pos]
            name = lambda vid: prod.graph.vertices[vid].name
            pre = " ".join(f"{name(v)} {a}" for v, a in lasso.prefix)
            cyc = " ".join(f"{name(v)} {a}" for v, a in lasso.cycle)
            lines.append(f"LASSO prefix: {pre} cycle: {cyc}")
        _write(args.lassos if args.lassos != "-" else None, "\n".join(lines) + "\n")
    report.finish("ok", positions=len(prod.positions))
    return EXIT_OK


def _cmd_check_live(args, report) -> int:
    g = _load_game(args.game, report)
    verdict = check_k_live(g, args.k, cap=args.cap)
    stats = {
        "transducers": verdict.stats.transducers_examined,
        "windows": verdict.stats.windows,
        "k": args.k,
    }
    if verdict.undecided:
        print(f"undecided: {count(args.k, g.alphabet1, g.alphabet2)} machines exceed cap {args.cap}")
        report.finish("undecided-at-cap", **stats)
        return EXIT_UNDECIDED
    if verdict.live:
        print("live")
        report.finish("ok", **stats)
        return EXIT_OK
    w = verdict.witness
    print("not live")
    print(f"WITNESS position {w.position_name(g)}")
    print(f"WITNESS alpha {' '.join(w.alpha) if w.alpha else '(empty)'}")
    if args.witness:
        doc = serialize_transducer(w.transducer)
        doc += f"# alpha: {' '.join(w.alpha)}\n# position: {w.position_name(g)}\n"
        _write(args.witness, doc)
    report.finish("not-live", **stats)
    return EXIT_NEGATIVE


def _cmd_solve(args, report) -> int:
    g = _load_game(args.game, report)
    result = solve_bounded(g, args.k, belief_cap=args.cap, machine_cap=args.cap)
    sizes = {"positions": result.positions, "settled": result.settled}
    if result.p2_wins is None:
        print(f"undecided: {result.reason}")
        report.finish("undecided-at-cap", **sizes)
        return EXIT_UNDECIDED
    print("p2-wins" if result.p2_wins else "p1-wins")
    report.finish("ok" if result.p2_wins else "p1-wins", **sizes)
    return EXIT_OK if result.p2_wins else EXIT_NEGATIVE


def _cmd_simulate(args, report) -> int:
    g = _load_game(args.game, report)
    ttext = _read(args.env)
    report.add_input(args.env, ttext)
    hidden = parse_transducer(ttext)
    k = args.k if args.k else hidden.k
    controller = adaptive_controller(g, k)
    max_steps = args.max_steps or steps_bound(g.n, k, g.alphabet1, g.alphabet2)
    trace = simulate(g, controller, hidden, max_steps)
    if args.trace:
        lines = []
        vertex = g.initial
        log = {rec.step: rec for rec in trace.hypothesis_log}
        for i, action in enumerate(trace.actions):
            player = 1 if i % 2 == 0 else 2
            vertex = g.step(vertex, action)
            name = g.vertices[vertex].name
            if player == 2:
                rec = log.get(i // 2 + 1)
                suffix = f" ordinal={rec.ordinal} |M'|={rec.candidates}" if rec else ""
            else:
                suffix = ""
            lines.append(f"STEP {i // 2} P{player} {action} {name}{suffix}")
        _write(args.trace, "\n".join(lines) + "\n")
    winner = {1: "p1", 2: "p2", None: "undecided"}[trace.winner]
    print(f"winner {winner} steps {trace.steps}")
    if trace.winner == 2:
        report.finish("ok", steps=trace.steps)
        return EXIT_OK
    if trace.winner == 1:
        report.finish("p1-wins", steps=trace.steps)
        return EXIT_NEGATIVE
    report.finish("undecided-at-cap", steps=trace.steps)
    return EXIT_UNDECIDED


def _cmd_gen(args, report) -> int:
    if args.family == "qbf":
        text = _read(args.input)
        report.add_input(args.input, text)
        g = qbf_to_game(parse_qdimacs(text))
    elif args.family == "cnf":
        text = _read(args.input)
        report.add_input(args.input, text)
        g = cnf_to_game(parse_dimacs_cnf(text))
    else:
        g = robot_scenario(args.lanes)
    _write(args.output, serialize_game(g))
    report.finish("ok", vertices=g.n)
    return EXIT_OK


def _cmd_enumerate(args, report) -> int:
    outputs = check_alphabet(args.outputs.split(","))
    inputs = check_alphabet(args.inputs.split(","))
    total = count(args.k, outputs, inputs)
    if args.count_only:
        print(total)
        report.finish("ok", count=total)
        return EXIT_OK
    stop = total if args.stop is None else args.stop
    if not 0 <= args.start < stop <= total:
        raise GameError(
            f"ordinal window [{args.start}, {stop}) is empty or outside [0, {total})"
        )
    window = stop - args.start
    if window > args.cap:
        print(f"undecided: {window} machines exceed cap {args.cap}")
        report.finish("undecided-at-cap", count=window)
        return EXIT_UNDECIDED
    stream = enumerate_transducers(args.k, outputs, inputs, args.start, args.stop)
    if args.dedupe:
        stream = dedupe_behavioral(stream)
    emitted = 0
    docs = []
    for t in stream:
        docs.append(serialize_transducer(t))
        emitted += 1
    _write(args.output, "\n".join(docs))
    report.finish("ok", count=emitted)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgames",
        description="games against bounded finite-state environments",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="resource cap: machines in a sweep or an enumerate window; "
        "solve applies it to the machine count and to the belief positions",
    )
    parser.add_argument("--json-report", metavar="PATH", help="write a JSON run report")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="bit-identical output across runs (drops timing stats)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game document")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("complete", help="total-ize a game document")
    p.add_argument("game")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("product", help="restrict player 1 to a machine")
    p.add_argument("game")
    p.add_argument("--env", required=True, help="transducer file")
    p.add_argument("--lassos", help="also write witness lassos (path or -)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("check-live", help="decide k-machine liveness")
    p.add_argument("game")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--witness", help="write the counterexample machine here")
    p.set_defaults(func=_cmd_check_live)

    p = sub.add_parser("solve", help="does player 2 win against k-state machines?")
    p.add_argument("game")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="play the adaptive controller")
    p.add_argument("game")
    p.add_argument("--env", required=True, help="hidden environment machine")
    p.add_argument("-k", type=int, default=0, help="bound (default: machine size)")
    p.add_argument("--max-steps", type=int, default=0)
    p.add_argument("--trace", help="write a step-by-step trace here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", help="generate a game family instance")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("qbf", help="alternating-formula game (QDIMACS input)")
    q.add_argument("input")
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_gen)
    c = gen_sub.add_parser("cnf", help="clause-checking game (DIMACS input)")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.set_defaults(func=_cmd_gen)
    r = gen_sub.add_parser("robot", help="shared-workspace scenario")
    r.add_argument("--lanes", type=int, default=3)
    r.add_argument("-o", "--output")
    r.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enumerate", help="dump or count machines")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--outputs", required=True, help="comma-separated symbols")
    p.add_argument("--inputs", required=True, help="comma-separated symbols")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stop", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def _unknown_global_option(parser: argparse.ArgumentParser, argv) -> str | None:
    """The first option before the subcommand that `parser` does not take,
    or None.  argparse skips such an option and reads its value as the
    subcommand, so `--jobs 2 check-live` would be reported as an invalid
    subcommand '2'."""
    rest = iter(argv)
    for arg in rest:
        if not arg.startswith("-") or arg == "--":
            return None
        opt = arg.split("=", 1)[0]
        # argparse also takes a unique prefix of an option
        known = [a for o, a in parser._option_string_actions.items() if o.startswith(opt)]
        if not known:
            return opt
        if known[0].nargs != 0 and "=" not in arg:
            next(rest, None)  # the option's value
    return None


def main(argv=None) -> int:
    parser = build_parser()
    unknown = _unknown_global_option(parser, sys.argv[1:] if argv is None else argv)
    if unknown:
        parser.error(f"unrecognized arguments: {unknown}")
    args = parser.parse_args(argv)
    report = _Report(args.command, args)
    try:
        if args.cap < 0:
            raise GameError(f"--cap {args.cap} is negative")
        return args.func(args, report)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        report.finish("error")
        return EXIT_IO
    except GameError as e:
        print(f"error: {e}", file=sys.stderr)
        report.finish("error")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
