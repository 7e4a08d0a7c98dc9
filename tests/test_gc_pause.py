"""The collector pause at the bulk entry points (`spgame._gc.paused`).

The pause is safe only while the paused work makes no cyclic garbage:
`test_pipeline_leaves_no_cyclic_garbage` (the library pipeline) and
`test_cli_makes_no_cyclic_garbage` (every subcommand) are the premise, and the other tests check that every call leaves the
collector as it found it.
"""

import gc
import pathlib

import pytest

from spgame import cli, dijkstra, game, interdiction, jsonio, ne
from spgame.generators import InstanceGenerator

DATA = pathlib.Path(__file__).parent / "data"

CHAIN = str(DATA / "chain.json")
INTERDICT = str(DATA / "interdict3.json")


@pytest.fixture(autouse=True)
def collector_state():
    """Restore the collector's state whatever a test leaves it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def entry_calls():
    """name -> zero-argument call of each paused entry point, on inputs
    built beforehand."""
    plain = game.normalize(jsonio.load_path(CHAIN))
    res = ne.solve(plain)
    return {
        "cli.main": lambda: cli.main(["solve", CHAIN]),
        "jsonio.load_path": lambda: jsonio.load_path(CHAIN),
        "game.normalize_with_maps": lambda: game.normalize_with_maps(plain),
        "ne.solve": lambda: ne.solve(plain),
        "jsonio.ne_result_to_json": lambda: jsonio.ne_result_to_json(plain, res),
        "jsonio.dumps": lambda: jsonio.dumps(jsonio.ne_result_to_json(plain, res)),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_entry_points_leave_the_collector_as_found(capsys, enabled):
    for name, call in entry_calls().items():
        (gc.enable if enabled else gc.disable)()
        call()
        assert gc.isenabled() is enabled, name
    capsys.readouterr()


def test_collector_enabled_again_after_a_raise(monkeypatch):
    def broken(graph, t, weights, oracle):
        raise RuntimeError("sweep failed")

    plain = game.normalize(jsonio.load_path(CHAIN))
    monkeypatch.setattr(dijkstra, "_sweep", broken)
    gc.enable()
    with pytest.raises(RuntimeError, match="sweep failed"):
        ne.solve(plain)
    assert gc.isenabled()


def test_collector_enabled_again_after_cli_errors(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    gc.enable()
    assert cli.main(["solve", str(bad)]) == 1
    assert gc.isenabled()

    real = dijkstra._sweep

    def start_too_far(graph, t, weights, oracle):
        potential, blocked, witness, order = real(graph, t, weights, oracle)
        return (potential[0] + 1,) + potential[1:], blocked, witness, order

    monkeypatch.setattr(dijkstra, "_sweep", start_too_far)
    assert cli.main(["solve", CHAIN]) == 3
    assert gc.isenabled()
    capsys.readouterr()


def test_sweep_runs_with_the_collector_off(capsys, monkeypatch):
    real = dijkstra._sweep
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(dijkstra, "_sweep", spy)
    gc.enable()
    calls = entry_calls()
    calls["cli.main phi --dual"] = lambda: cli.main(["phi", INTERDICT, "--dual"])
    calls["cli.main solve-interdiction"] = lambda: cli.main(
        ["solve-interdiction", INTERDICT]
    )
    for name in (
        "cli.main",
        "cli.main phi --dual",
        "cli.main solve-interdiction",
        "ne.solve",
    ):
        seen.clear()
        calls[name]()
        assert seen and not any(seen), name
        assert gc.isenabled()
    capsys.readouterr()


def generated_files(tmp_path) -> list[str]:
    """About 50 generated plain and interdiction games, written as files."""
    gen = InstanceGenerator(seed=2024)
    games = [gen.sp_game(max_vertices=9) for _ in range(25)]
    games += [gen.interdiction_game(max_vertices=7) for _ in range(25)]
    paths = []
    for i, g in enumerate(games):
        obj = (
            jsonio.game_to_json(g)
            if isinstance(g, game.SPGame)
            else jsonio.interdiction_to_json(g)
        )
        path = tmp_path / f"g{i}.json"
        path.write_text(jsonio.dumps(obj))
        paths.append(str(path))
    return paths


def pipeline(path: str) -> str:
    """The library pipeline of `spgame solve`, `solve-interdiction` and
    `phi --dual` on one file, as result JSON."""
    g = jsonio.load_path(path)
    if isinstance(g, game.SPGame):
        g = game.normalize(g)
        return jsonio.dumps(jsonio.ne_result_to_json(g, ne.solve(g), True))
    res = interdiction.solve_interdiction(g)
    pot = dijkstra.interdicted_distances(g.graph, g.terminal, g.r1, g.oracle.dual())
    return jsonio.dumps(jsonio.interdiction_result_to_json(g, res, True)) + (
        jsonio.dumps(jsonio.potentials_to_json(g.names, pot))
    )


def test_pipeline_leaves_no_cyclic_garbage(tmp_path):
    paths = sorted(str(p) for p in DATA.glob("*.json"))
    paths += generated_files(tmp_path)
    gc.collect()
    for path in paths:
        assert pipeline(path)
    # what the pause holds back is only what the collector would find
    assert gc.collect() == 0


def test_cli_makes_no_cyclic_garbage(capsys, tmp_path):
    # every subcommand runs paused, so every one is checked here; the
    # warm-up call builds the argument parser, which every later call reuses
    plain_sit = tmp_path / "plain_sit.json"
    plain_sit.write_text(
        jsonio.dumps({"sigma1": {"s": 0, "b": 4}, "sigma2": {"a": 2}})
    )
    inter_sit = tmp_path / "inter_sit.json"
    inter_sit.write_text(
        jsonio.dumps(
            {"removed": {"s": [], "a": []}, "offered": {"s": [0, 1], "a": [2, 3]}}
        )
    )
    out = str(tmp_path / "out.json")
    for argv in (
        ["solve", CHAIN, "--certificate"],
        ["phi", CHAIN, "--player", "2"],
        ["phi", INTERDICT, "--dual"],
        ["solve-interdiction", INTERDICT, "--certificate"],
        ["verify", CHAIN, "--situation", str(plain_sit)],
        ["verify", INTERDICT, "--situation", str(inter_sit)],
        ["reduce", INTERDICT, "-o", out, "--mapping", str(tmp_path / "map.json")],
        ["search", CHAIN],
        ["normalize", str(DATA / "mixed.json"), "--bipartize", "-o", out],
        ["bench", "--edges", "200", "--repeats", "1"],
    ):
        assert cli.main(argv) == 0, argv
        gc.collect()
        assert cli.main(argv) == 0, argv
        assert gc.collect() == 0, argv
    capsys.readouterr()
