"""The benchmark harness imports and wraps names of the package; a rename
or deletion there should fail here, not only in a traced benchmark run."""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

import spgame
from spgame import cli, game, jsonio, ne

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["checks", "tracing"])
def test_benchmark_modules_load(monkeypatch, name):
    path = BENCHMARK / f"{name}.py"
    before = digest(path)
    # no bytecode cache under benchmark/, and a private module name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    if name == "tracing":
        # looks up every span target, the class methods among them
        module.Tracer()
    assert digest(path) == before


def test_names_the_benchmark_runner_calls_resolve():
    for fn in (
        cli.main,
        jsonio.load_path,
        game.normalize,
        ne.solve,
        jsonio.dumps,
        jsonio.ne_result_to_json,
    ):
        assert callable(fn)
    assert isinstance(spgame.HAVE_NATIVE, bool)
