"""Command line front end.

Every subcommand reads JSON game files and writes a single JSON document
to stdout (deterministic: sorted keys, two-space indent).  Errors go to
stderr as JSON with exit code 1 for bad input or unmet preconditions, 2
when an enumeration cap is hit, and 3 when an internal certificate check
fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bruteforce, jsonio
from ._gc import paused
from .dijkstra import interdicted_distances, shortest_longest_distances
from .errors import (
    CapExceeded,
    InputError,
    InternalInvariantError,
    OracleViolation,
    PreconditionViolated,
    SPGameError,
)
from .game import (
    PLAYER1,
    PLAYER2,
    SPGame,
    normalize,
    play_of,
    positive_costs,
    validate_situation,
)
from .interdiction import (
    InterdictionGame,
    reduce_to_sp,
    solve_interdiction,
    validate_interdiction_situation,
)
from .ne import solve


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _load_plain(path: str) -> SPGame:
    game = jsonio.load_path(path)
    if not isinstance(game, SPGame):
        raise InputError(f"{path} holds an interdiction game, expected a plain one")
    return game


def _load_interdiction(path: str) -> InterdictionGame:
    game = jsonio.load_path(path)
    if not isinstance(game, InterdictionGame):
        raise InputError(f"{path} holds a plain game, expected an interdiction one")
    return game


def _require_positive(game: SPGame) -> None:
    check = positive_costs(game)
    if not check.ok:
        raise InputError(check.detail)


def _write_dot(path: str, game, play=None, situation=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.export_dot(game, play=play, situation=situation))


def cmd_solve(args) -> int:
    game = _load_plain(args.game)
    _require_positive(game)
    game = normalize(game)
    res = solve(game)
    _emit(jsonio.ne_result_to_json(game, res, certificate=args.certificate))
    if args.dot:
        _write_dot(args.dot, game, play=res.play, situation=res.situation)
    return 0


def cmd_solve_interdiction(args) -> int:
    game = _load_interdiction(args.game)
    res = solve_interdiction(game)
    _emit(jsonio.interdiction_result_to_json(game, res, certificate=args.certificate))
    return 0


def cmd_phi(args) -> int:
    game = jsonio.load_path(args.game)
    if isinstance(game, SPGame):
        if args.player is None:
            raise InputError("--player is required for plain games")
        _require_positive(game)
        game = normalize(game)
        pot = shortest_longest_distances(game, args.player)
        _emit(jsonio.potentials_to_json(game.names, pot))
        return 0
    weights = game.r1 if args.metric == "r1" else game.r2
    oracle = game.oracle.dual() if args.dual else game.oracle
    pot = interdicted_distances(game.graph, game.terminal, weights, oracle)
    _emit(jsonio.potentials_to_json(game.names, pot))
    return 0


def cmd_verify(args) -> int:
    game = jsonio.load_path(args.game)
    sobj = jsonio.load_object(args.situation)
    if isinstance(game, SPGame):
        sit = jsonio.situation_from_json(game, sobj)
        validate_situation(game, sit)
        res = bruteforce.verify_ne(game, sit, cap=args.cap)
        out = {"is_ne": res.is_ne}
        if not res.is_ne:
            out["player"] = res.player
            out["deviation"] = jsonio.situation_to_json(game, res.deviation)
            out["improved_cost"] = jsonio.cost_to_json(res.improved_cost)
            play = play_of(game, res.deviation)
            out["deviation_play"] = jsonio.play_to_json(game, play)
    else:
        sit = jsonio.interdiction_situation_from_json(game, sobj)
        validate_interdiction_situation(game, sit)
        res = bruteforce.verify_ne_interdiction(game, sit, cap=args.cap)
        out = {"is_ne": res.is_ne}
        if not res.is_ne:
            out["player"] = res.player
            out["deviation"] = jsonio.interdiction_situation_to_json(
                game, res.deviation
            )
            out["improved_cost"] = jsonio.cost_to_json(res.improved_cost)
    _emit(out)
    return 0


def cmd_reduce(args) -> int:
    game = _load_interdiction(args.game)
    red = reduce_to_sp(game, cap=args.cap)
    obj = jsonio.game_to_json(red.sp_game)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(jsonio.dumps(obj))
    else:
        _emit(obj)
    if args.mapping:
        mapping = {
            "copies": [
                {
                    "vertex": game.names[u],
                    "removed": sorted(removed),
                    "copy": red.sp_game.names[c],
                }
                for (u, removed), c in sorted(
                    red.copy_of.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
                )
            ]
        }
        with open(args.mapping, "w") as fh:
            fh.write(jsonio.dumps(mapping))
    return 0


def cmd_search(args) -> int:
    game = _load_plain(args.game)
    _require_positive(game)
    res = bruteforce.search_terminal_ne(game, cap=args.cap)
    out = {
        "found": res.found,
        "scanned": res.scanned,
        "terminal_plays": res.terminal_plays,
    }
    if res.found:
        out["situation"] = jsonio.situation_to_json(game, res.situation)
        out["play"] = jsonio.play_to_json(game, res.play)
    _emit(out)
    return 0


def cmd_normalize(args) -> int:
    game = _load_plain(args.game)
    game = normalize(game, bipartize=args.bipartize)
    obj = jsonio.game_to_json(game)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(jsonio.dumps(obj))
    else:
        _emit(obj)
    if args.dot:
        _write_dot(args.dot, game)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `spgame` argument parser, built on the first call and reused by
    every later one in the process.

    `parse_args` gives each call a new namespace but hands every call the
    same default objects, so defaults are immutable.  The parser is a few
    hundred objects in reference cycles; built once, it lets `cli.main`
    leave no cyclic garbage behind.
    """
    parser = argparse.ArgumentParser(
        prog="spgame",
        description="Nash equilibria of two-person shortest path games "
        "and shortest path interdiction games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium of a plain game")
    p.add_argument("game")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--dot", metavar="FILE", help="write a Graphviz rendering")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "solve-interdiction", help="equilibrium of an interdiction game"
    )
    p.add_argument("game")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=cmd_solve_interdiction)

    p = sub.add_parser(
        "phi", help="worst-case shortest distances to the terminal"
    )
    p.add_argument("game")
    p.add_argument(
        "--player",
        type=int,
        choices=(PLAYER1, PLAYER2),
        help="whose costs and adversary to use (plain games)",
    )
    p.add_argument(
        "--metric",
        choices=("r1", "r2"),
        default="r2",
        help="arc costs to sum (interdiction games, default r2)",
    )
    p.add_argument(
        "--dual",
        action="store_true",
        help="query the dual oracle (interdiction games)",
    )
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("verify", help="brute-force equilibrium check")
    p.add_argument("game")
    p.add_argument("--situation", required=True, metavar="FILE")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "reduce", help="rewrite an interdiction game as a plain game"
    )
    p.add_argument("game")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--mapping", metavar="FILE", help="write copy-vertex table")
    p.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "search", help="exhaustive scan for a terminal equilibrium"
    )
    p.add_argument("game")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("normalize", help="merge terminals, prune, bipartize")
    p.add_argument("game")
    p.add_argument("--bipartize", action="store_true")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(func=cmd_normalize)

    return parser


_EXIT_CODES = (
    (CapExceeded, 2),
    ((InternalInvariantError, OracleViolation), 3),
    ((InputError, PreconditionViolated), 1),
    (SPGameError, 1),
)


@paused
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SPGameError as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                sys.stderr.write(
                    jsonio.dumps(
                        {"error": type(exc).__name__, "message": str(exc)}
                    )
                )
                return code
        raise AssertionError("unreachable")
    except OSError as exc:
        sys.stderr.write(
            jsonio.dumps({"error": "OSError", "message": str(exc)})
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
