import pathlib
import random

import pytest

from spgame import dijkstra
from spgame.costs import INF

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture
def faulty_sweep(monkeypatch):
    """Call with a seed to replace `dijkstra._sweep` by a sweep that
    returns its true output with one fault drawn from `faults`: a finite
    potential raised by 1 ("raise") or lowered by 1 ("lower"), a finite
    potential made infinite ("to_inf"), an infinite potential made 1
    ("from_inf"), or one arc dropped from a removal set ("unblock"); with
    no usable fault the output stays true."""

    def install(seed, faults=("raise", "to_inf", "from_inf")):
        real_sweep, rng = dijkstra._sweep, random.Random(seed)

        def sweep(graph, t, weights, oracle):
            potential, blocked, witness, order = real_sweep(
                graph, t, weights, oracle
            )
            phi, blocked = list(potential), list(blocked)
            finite = [u for u, p in enumerate(phi) if p != INF]
            infinite = [u for u, p in enumerate(phi) if p == INF]
            removing = [u for u, arcs in enumerate(blocked) if arcs]
            usable = [
                f
                for f in faults
                if (f != "from_inf" or infinite) and (f != "unblock" or removing)
            ]
            fault = rng.choice(usable) if usable else None
            if fault == "raise":
                phi[rng.choice(finite)] += 1
            elif fault == "lower":
                phi[rng.choice(finite)] -= 1
            elif fault == "to_inf":
                phi[rng.choice(finite)] = INF
            elif fault == "from_inf":
                phi[rng.choice(infinite)] = 1
            elif fault == "unblock":
                u = rng.choice(removing)
                blocked[u] -= {rng.choice(sorted(blocked[u]))}
            return tuple(phi), tuple(blocked), witness, order

        monkeypatch.setattr(dijkstra, "_sweep", sweep)

    return install
