"""Answers pinned by sha256 digests, one section per layer.

The digests were recorded before products were solved on integer rows and
before the liveness sweep became bit-parallel; any later change to a
product, region, lasso, verdict, witness, controller trace, CLI output or
knowledge-game answer shows up here.  A change that alters one of these
answers on purpose re-pins only its own section and says why.
"""

import hashlib
import random

import pytest

from tgames import (
    CnfFormula,
    QbfFormula,
    adaptive_controller,
    build_product,
    check_k_live,
    cnf_to_game,
    complete,
    count,
    from_ordinal,
    make_game,
    p2_winning_positions,
    qbf_to_game,
    reachable_positions,
    robot_scenario,
    serialize_game,
    serialize_transducer,
    simulate,
    solve_bounded,
    steps_bound,
)
from tgames.cli import main

from helpers import random_game
from test_synthesis import one_pair_formulas

AB = ("a", "b")
XY = ("x", "y")
OBJECTIVES = ("reachability", "buchi", "parity")


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def arenas():
    """Ten seeded random arenas per objective, 2-4 vertices per player."""
    for objective in OBJECTIVES:
        rng = random.Random(f"golden-{objective}")
        for _ in range(10):
            yield random_game(
                rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, objective
            )


def product_answers():
    rng = random.Random("golden-machines")
    for g in arenas():
        for k in (1, 2, 3):
            total = count(k, AB, XY)
            for ordinal in sorted(rng.sample(range(total), min(4, total))):
                prod = build_product(g, from_ordinal(ordinal, k, AB, XY))
                win, lassos = p2_winning_positions(prod)
                yield serialize_game(prod.graph)
                yield reachable_positions(prod)
                for pos in sorted(win, key=prod.positions.__getitem__):
                    yield pos, lassos[pos].prefix, lassos[pos].cycle


def liveness_answers():
    cnfs = (
        CnfFormula(3, ((1, 2), (-1, 3), (-2, -3))),  # satisfiable
        CnfFormula(3, ((1, 2), (-1, 2), (1, -2), (-1, -2, 3))),  # satisfiable
        CnfFormula(3, ((1, 2), (-1, 2), (1, -2), (-1, -2))),  # unsatisfiable
    )
    games = [(g, k) for g in arenas() for k in (1, 2)]
    games += [(cnf_to_game(phi), k) for phi in cnfs for k in (2, 3)]
    for g, k in games:
        v = check_k_live(g, k)
        w = v.witness
        yield v.live, v.stats.transducers_examined
        if w is not None:
            yield w.transducer.labels, w.transducer.trans, w.alpha, w.position


def bounded_answers():
    for g in arenas():
        for k in (1, 2):
            res = solve_bounded(g, k)
            yield res.p2_wins, res.positions, sorted(res.strategy.items())


def bounded_verdict_answers():
    """`p2_wins` alone: the knowledge arena's shape may change, its answers
    may not."""
    for g in arenas():
        for k in (1, 2):
            yield solve_bounded(g, k).p2_wins
    for psi in one_pair_formulas():
        yield solve_bounded(qbf_to_game(psi), 2).p2_wins


def trace_answers():
    g = robot_scenario(2)
    bound = steps_bound(g.n, 2, g.alphabet1, g.alphabet2)
    for ordinal in (1, 211, 1691, 4505, 8229):
        hidden = from_ordinal(ordinal, 2, g.alphabet1, g.alphabet2)
        trace = simulate(g, adaptive_controller(g, 2), hidden, bound)
        yield ordinal, trace.actions, trace.winner, trace.steps
        yield [(r.step, r.ordinal, r.candidates) for r in trace.hypothesis_log]


def not_live_trace_answers():
    """Controller plays on games that are not live, where it may lose: the
    golden arenas not live at k = 1, 2 and every 10th one-pair QBF game at
    k = 2, four hidden machines each.  These plays reach the paths the live
    games never take: a hypothesis whose candidates all lack a winning
    lasso, and the default move after a scan that finds nothing."""
    rng = random.Random("golden-not-live")
    games = [(g, k) for g in arenas() for k in (1, 2) if not check_k_live(g, k).live]
    games += [(qbf_to_game(psi), 2) for psi in one_pair_formulas()[::10]]
    for g, k in games:
        total = count(k, g.alphabet1, g.alphabet2)
        bound = steps_bound(g.n, k, g.alphabet1, g.alphabet2)
        for ordinal in sorted(rng.sample(range(total), min(4, total))):
            ctrl = adaptive_controller(g, k)
            hidden = from_ordinal(ordinal, k, g.alphabet1, g.alphabet2)
            trace = simulate(g, ctrl, hidden, bound)
            yield ordinal, trace.actions, trace.winner, trace.steps
            yield [(r.step, r.ordinal, r.candidates) for r in trace.hypothesis_log]
            yield ctrl.products_built, ctrl.scan_windows


def criterion_2a_answers():
    for psi in one_pair_formulas()[::25]:
        res = solve_bounded(qbf_to_game(psi), 2)
        sol = res.solution
        yield res.p2_wins, res.positions, sorted(res.strategy.items())
        yield sorted(sol.region1), sorted(sol.region2)
        yield sorted(sol.strategy1.items()), sorted(sol.strategy2.items())


def _clauses(rng, nvars, count, width):
    """`count` random clauses of 1..`width` distinct literals over 1..nvars."""
    lits = [s * v for v in range(1, nvars + 1) for s in (1, -1)]
    return tuple(
        tuple(rng.sample(lits, rng.randrange(1, min(width, len(lits)) + 1)))
        for _ in range(count)
    )


def partial_arenas():
    """Seeded arenas with about 40% of their edges dropped; every fourth one
    already declares `~p2_paradise_b` with an edge out of it."""
    rng = random.Random("golden-partial")
    for i in range(300):
        objective = OBJECTIVES[i % 3]
        g = random_game(rng, rng.randrange(1, 5), rng.randrange(1, 5), AB, XY, objective)
        vertices = [(v.name, v.owner, v.color) for v in g.vertices]
        names = [v.name for v in g.vertices]
        edges = [(names[s], a, names[t]) for (s, a), t in g.edges.items() if rng.random() < 0.6]
        if i % 4 == 3:
            vertices.append(("~p2_paradise_b", 2, 2))
            edges.append(("~p2_paradise_b", "y", "u0"))
        yield make_game(objective, AB, XY, vertices, edges, "u0")


def family_answers():
    """Every vertex and edge the generators and `complete` emit, in
    declaration order: names and ids reach `ReplayStrategy`, witnesses and
    pins, so a rewrite of a builder must keep them exactly."""
    rng = random.Random("golden-families")
    games = [qbf_to_game(psi) for psi in one_pair_formulas()]
    for _ in range(300):
        k = rng.randrange(1, 4)
        games.append(qbf_to_game(QbfFormula(k, _clauses(rng, 2 * k, rng.randrange(1, 5), 4))))
    for _ in range(400):
        k = rng.randrange(1, 5)
        games.append(cnf_to_game(CnfFormula(k, _clauses(rng, k, rng.randrange(1, 6), 3))))
    games += [robot_scenario(lanes) for lanes in (2, 3, 4)]
    for g in partial_arenas():
        once = complete(g)
        assert complete(once) == once
        games.append(once)
    for g in games:
        yield serialize_game(g)
        yield sorted(g.edges.items())


def cli_answers(tmp_path):
    rng = random.Random("golden-cli")
    for i, g in enumerate(arenas()):
        t = from_ordinal(rng.randrange(count(2, AB, XY)), 2, AB, XY)
        game, env = tmp_path / f"g{i}.bg", tmp_path / f"t{i}.tr"
        out, lassos = tmp_path / f"p{i}.bg", tmp_path / f"l{i}.txt"
        game.write_text(serialize_game(g))
        env.write_text(serialize_transducer(t))
        rc = main([
            "--deterministic", "product", str(game), "--env", str(env),
            "-o", str(out), "--lassos", str(lassos),
        ])
        yield rc, out.read_bytes(), lassos.read_bytes()


# `bounded` and `criterion_2a` were re-pinned when the knowledge game began
# settling play on player 2's base winning region: positions and strategies
# changed, and `bounded_verdicts`, recorded before that, pins the answers.
# `families` was recorded before the generators declared each clause stage
# in one pass and before `complete` worked on vertex ids.
PINNED = {
    "products": "97fd675361d8eebba53db2ba8ae03baa82264306c8bad8bffdd9f3d6a4e9d8ba",
    "liveness": "0972491d0baf66078463d2135c720e9a8d93ef97fc4c895e7dca7964469b3305",
    "bounded": "ab46b752139358fd629729d9f2e090c1f4e14f2547ca8c2c4e8794f6543fcd33",
    "bounded_verdicts": "d7b23ee3b3227895dad244e785e7ae227a43735098119f4fc9137583823ce6d2",
    "traces": "2d25d038195f3c3eaf2197cbc88184977bbd04a4d733546a6047bbecf9625270",
    "traces_not_live": "77bd9bca20417ee76e8545cfaefc8158b457a0cedbc42462f951c40eeeaf5150",
    "criterion_2a": "aee779f5e873bc08d558c94934e2c6a6f0789ed5d484ba42de9899a1e8b4d5e3",
    "families": "bd7b396141c75c73fcb3500b3bb49ce68e48b102779dd5aa4b8a4dd80eaaaad0",
}


@pytest.mark.parametrize(
    "section, answers",
    [
        ("products", product_answers),
        ("liveness", liveness_answers),
        ("bounded", bounded_answers),
        ("bounded_verdicts", bounded_verdict_answers),
        ("traces", trace_answers),
        ("traces_not_live", not_live_trace_answers),
        ("criterion_2a", criterion_2a_answers),
        ("families", family_answers),
    ],
)
def test_answers_pinned(section, answers):
    assert _digest(answers()) == PINNED[section]


def test_cli_product_bytes_pinned(tmp_path):
    assert _digest(cli_answers(tmp_path)) == (
        "e9823489ed4205fe1c88ce794bf36ebf9a71d5125f86f410db48255a3db85d64"
    )
