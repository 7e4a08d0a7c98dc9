"""Per-op correctness gate, run outside the timed region.

Each op's stdout is checked against an independent certificate:

* a plain equilibrium must pass `bruteforce.verify_ne_by_distances`, and
  its reported costs, kind and play must equal `play_of` on the parsed
  situation;
* an interdiction equilibrium must pass `validate_interdiction_situation`,
  and a recomputed `interdiction_cost` must equal the reported costs and
  path; on desk-scale games it must also pass the brute-force
  `verify_ne_interdiction`;
* `phi` output must pass `verify_potentials` on a `Potentials` rebuilt
  from it.

A check raises `CheckFailed` (or any exception from the verifiers) on a
bad output and returns the solver branch it read off a good one.
"""

from __future__ import annotations

import json

from spgame import (
    INF,
    InterdictionGame,
    Potentials,
    SPGame,
    interdiction_cost,
    normalize,
    opponent,
    parse_cost,
    play_of,
    sp_blocking_oracle,
    validate_interdiction_situation,
    validate_situation,
    verify_ne_by_distances,
    verify_ne_interdiction,
    verify_potentials,
)
from spgame import jsonio

# brute force runs only on games this small: the desk-scale interdiction
# files, whose at most 6 inner vertices of out-degree <= 3 give at most 7**6
# assignments per player
BRUTE_FORCE_MAX_VERTICES = 7


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cost(value):
    return INF if value == "inf" else parse_cost(value)


class Checker:
    """Caches each input file's parsed game, so a file is loaded once per
    run however many ops read it."""

    def __init__(self, directory: str):
        self.directory = directory
        self._games: dict = {}
        self.brute_forced = 0

    def game(self, fname: str, normalized: bool):
        key = (fname, normalized)
        if key not in self._games:
            game = jsonio.load_path(f"{self.directory}/{fname}")
            if normalized:
                game = normalize(game)
            self._games[key] = game
        return self._games[key]

    def check(self, argv: list, fname: str, stdout: str) -> str:
        out = json.loads(stdout)
        command = argv[0]
        if command == "solve":
            return self._plain_solve(self.game(fname, True), out)
        if command == "solve-interdiction":
            return self._interdiction_solve(self.game(fname, False), out)
        if command == "phi":
            return self._phi(fname, argv, out)
        raise CheckFailed(f"no check for subcommand {command!r}")

    def _plain_solve(self, game: SPGame, out: dict) -> str:
        sit = jsonio.situation_from_json(game, out["situation"])
        validate_situation(game, sit)
        play = play_of(game, sit)
        _expect(out["kind"] == ("terminal" if play.is_terminal else "cyclic"), "kind")
        _expect(_cost(out["costs"]["r1"]) == play.cost1, "r1 cost")
        _expect(_cost(out["costs"]["r2"]) == play.cost2, "r2 cost")
        _expect(out["play"]["arcs"] == list(play.arcs), "play arcs")
        _expect(verify_ne_by_distances(game, sit), "best-response check")
        return out.get("certificate", {}).get("method", out["kind"])

    def _interdiction_solve(self, game: InterdictionGame, out: dict) -> str:
        sit = jsonio.interdiction_situation_from_json(game, out["situation"])
        validate_interdiction_situation(game, sit)
        c1, c2, path = interdiction_cost(game, sit)
        _expect(_cost(out["costs"]["r1"]) == c1, "r1 cost")
        _expect(_cost(out["costs"]["r2"]) == c2, "r2 cost")
        _expect(out["path"] == (list(path) if path is not None else None), "path")
        if game.graph.n <= BRUTE_FORCE_MAX_VERTICES:
            _expect(verify_ne_interdiction(game, sit).is_ne, "brute-force deviation check")
            self.brute_forced += 1
        cert = out.get("certificate", {})
        return cert.get("branch") or cert.get("method", out["kind"])

    def _phi(self, fname: str, argv: list, out: dict) -> str:
        if "--player" in argv:
            player = int(argv[argv.index("--player") + 1])
            game = self.game(fname, True)
            weights = game.cost(player)
            oracle = sp_blocking_oracle(game, opponent(player))
        else:
            game = self.game(fname, False)
            metric = argv[argv.index("--metric") + 1] if "--metric" in argv else "r2"
            weights = game.r1 if metric == "r1" else game.r2
            oracle = game.oracle.dual() if "--dual" in argv else game.oracle
        t = game.terminal
        names = game.names
        index = {name: u for u, name in enumerate(names)}
        _expect(set(out["phi"]) == set(names), "phi covers every vertex")
        potential = tuple(_cost(out["phi"][name]) for name in names)
        blocked = [frozenset()] * len(names)
        for name, arcs in out["blocked"].items():
            blocked[index[name]] = frozenset(arcs)
        pot = Potentials(t, potential, tuple(blocked), (None,) * len(names))
        verify_potentials(game.graph, t, weights, oracle, pot)
        _expect(
            sorted(out["B"]) == sorted(names[u] for u in pot.infinite_vertices),
            "blocked region",
        )
        return "phi"
