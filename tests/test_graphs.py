import random

import pytest

from tgames import (
    GameError,
    GameGraph,
    Vertex,
    Word,
    complete,
    make_game,
    parse_game,
    serialize_game,
    solve_parity,
    validate,
    winner_of_lasso,
)
from tgames.gameio import ParseError

from helpers import random_game


def two_vertex_game(objective="parity"):
    return make_game(
        objective,
        ["a", "b"],
        ["x"],
        [("u", 1, 1), ("v", 2, 2)],
        [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u")],
        "u",
    )


MINIMAL = """\
game parity
alphabet1 a
alphabet2 x
vertex u owner=1 color=1
vertex v owner=2 color=2
init u
edge u a v
edge v x u
"""


class TestParse:
    def test_minimal_two_vertex_document(self):
        g = parse_game(MINIMAL)
        assert g.n == 2
        assert g.objective == "parity"
        assert g.vertices[g.initial].name == "u"
        assert g.edges == {(0, "a"): 1, (1, "x"): 0}

    def test_round_trip_identity(self):
        g = two_vertex_game()
        assert serialize_game(parse_game(serialize_game(g))) == serialize_game(g)

    def test_comments_and_blank_lines(self):
        g = parse_game("# hi\n\n" + MINIMAL + "# bye\n")
        assert g.n == 2

    def test_duplicate_vertex(self):
        bad = MINIMAL.replace("vertex v owner=2", "vertex u owner=2")
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_game(bad)

    def test_unknown_action(self):
        bad = MINIMAL.replace("edge u a v", "edge u zz v")
        with pytest.raises(ParseError):
            parse_game(bad)

    def test_wrong_side_action_rejected(self):
        bad = MINIMAL.replace("edge u a v", "edge u x v")
        with pytest.raises(ParseError):
            parse_game(bad)

    def test_missing_init(self):
        bad = MINIMAL.replace("init u\n", "")
        with pytest.raises(ParseError, match="missing init"):
            parse_game(bad)

    def test_partial_graph_accepted(self):
        g = parse_game(MINIMAL.replace("edge u a v\n", ""))
        assert not g.is_total()

    def test_position_style_names(self):
        text = MINIMAL.replace("vertex u ", "vertex (u,0) ").replace(
            "init u", "init (u,0)"
        ).replace("edge u a v", "edge (u,0) a v").replace(
            "edge v x u", "edge v x (u,0)"
        )
        g = parse_game(text)
        assert g.has_vertex("(u,0)")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_game("game parity\nalphabet1 a\nwhatisthis x\n")

    def test_repeated_symbol_rejected(self):
        bad = MINIMAL.replace("alphabet2 x", "alphabet2 x y x")
        with pytest.raises(ParseError, match="line 3: duplicate action symbol 'x'"):
            parse_game(bad)
        with pytest.raises(GameError, match="duplicate action symbol 'a'"):
            make_game("parity", ["a", "a"], ["x"], [("u", 1, 1)], [], "u")


class TestSerialize:
    def test_deterministic_bytes(self):
        g = two_vertex_game()
        assert serialize_game(g) == serialize_game(g)

    def test_fixpoint_after_one_round_trip(self):
        g = two_vertex_game()
        text = serialize_game(g)
        assert serialize_game(parse_game(text)) == text

    def test_declaration_order_matters(self):
        a = make_game(
            "parity",
            ["a"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        b = make_game(
            "parity",
            ["a"],
            ["x"],
            [("v", 2, 2), ("u", 1, 1)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        assert serialize_game(a) != serialize_game(b)

    def test_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_game(rng, 3, 3, ("a", "b"), ("x", "y"), "parity")
            assert parse_game(serialize_game(g)).edges == g.edges

    def test_equal_after_round_trip_once_totality_is_known(self):
        # is_total keeps its answer on the arena; that must not take part in ==
        rng = random.Random(5)
        for g in [two_vertex_game(), parse_game(MINIMAL.replace("edge u a v\n", ""))]:
            g.is_total()
            assert parse_game(serialize_game(g)) == g
        for _ in range(10):
            g = random_game(rng, 3, 3, ("a", "b"), ("x", "y"), "parity")
            assert g.is_total()
            assert parse_game(serialize_game(g)) == g


class TestValidate:
    def test_total_well_typed(self):
        assert validate(two_vertex_game()) == []

    def test_totality_violation_names_vertex_and_action(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        out = validate(g)
        assert len(out) == 1
        assert out[0].kind == "totality"
        assert (out[0].vertex, out[0].action) == ("u", "b")

    def test_typing_violation_wrong_alphabet(self):
        g = two_vertex_game()
        # hand-build a defect: owner-1 vertex moving on a player-2 symbol
        edges = dict(g.edges)
        edges[(0, "x")] = 1
        broken = GameGraph(
            g.objective, g.alphabet1, g.alphabet2, g.vertices, edges, g.initial
        )
        kinds = [v.kind for v in validate(broken)]
        assert "typing" in kinds

    def test_typing_violation_same_owner_target(self):
        vs = (
            Vertex(0, "u", 1, 1),
            Vertex(1, "u2", 1, 1),
            Vertex(2, "v", 2, 2),
        )
        edges = {(0, "a"): 1, (1, "a"): 2, (2, "x"): 0}
        broken = GameGraph("parity", ("a",), ("x",), vs, edges, 0)
        assert any(v.kind == "typing" and v.vertex == "u" for v in validate(broken))

    def test_init_owner(self):
        g = make_game(
            "parity",
            ["a"],
            ["x"],
            [("v", 2, 2), ("u", 1, 1)],
            [("u", "a", "v"), ("v", "x", "u")],
            "v",
        )
        assert any(v.kind == "init-owner" for v in validate(g))

    def test_color_range_for_buchi(self):
        g = make_game(
            "buchi",
            ["a"],
            ["x"],
            [("u", 1, 3), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        assert any(v.kind == "color-range" for v in validate(g))


class TestComplete:
    def test_already_total_appends_unreachable_paradises(self):
        g = two_vertex_game()
        gc = complete(g)
        assert gc.n == g.n + 4
        assert [v.name for v in gc.vertices[: g.n]] == [v.name for v in g.vertices]
        assert all(gc.edges[(v.id, a)] == g.edges[(v.id, a)]
                   for v in g.vertices for a in gc.acting_alphabet(v.id)
                   if (v.id, a) in g.edges)

    def test_missing_edge_routes_to_opponent_paradise(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        gc = complete(g)
        tgt = gc.vertices[gc.edges[(gc.vertex("u").id, "b")]]
        assert tgt.name == "~p2_paradise_b"
        assert validate(gc) == []

    def test_idempotent(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        once = complete(g)
        twice = complete(once)
        assert serialize_game(once) == serialize_game(twice)

    def test_reserved_vertex_with_wrong_owner_rejected(self):
        g = make_game(
            "parity",
            ["a"],
            ["a"],
            [("u", 1, 1), ("v", 2, 2), ("~p1_paradise_a", 2, 1)],
            [("u", "a", "v"), ("v", "a", "u")],
            "u",
        )
        with pytest.raises(GameError, match="reserved for player 1"):
            complete(g)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(GameError):
            make_game("parity", [], ["x"], [("u", 1, 1)], [], "u")

    def test_never_changes_winner_when_total(self):
        rng = random.Random(11)
        for _ in range(20):
            obj = rng.choice(["reachability", "buchi", "parity"])
            g = random_game(rng, 3, 3, ("a", "b"), ("x", "y"), obj)
            before = solve_parity(g).winner(g.initial)
            gc = complete(g)
            after = solve_parity(gc).winner(gc.initial)
            assert before == after


class TestWinnerOfLasso:
    def test_single_even_cycle(self):
        g = two_vertex_game("parity")
        assert winner_of_lasso(Word((), ("a", "x")), g) == 2

    def test_max_odd_wins_p1(self):
        g = make_game(
            "parity",
            ["a"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2), ("u3", 1, 3), ("v2", 2, 2)],
            [
                ("u", "a", "v"),
                ("v", "x", "u3"),
                ("u3", "a", "v2"),
                ("v2", "x", "u"),
            ],
            "u",
        )
        assert winner_of_lasso(Word((), ("a", "x", "a", "x")), g) == 1

    def test_reachability_prefix_hit(self):
        g = make_game(
            "reachability",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("t", 2, 2), ("u2", 1, 1), ("w", 2, 1)],
            [
                ("u", "a", "t"),
                ("u", "b", "w"),
                ("t", "x", "u2"),
                ("u2", "a", "w"),
                ("u2", "b", "w"),
                ("w", "x", "u2"),
            ],
            "u",
        )
        # prefix visits the color-2 vertex, the cycle stays on color 1
        assert winner_of_lasso(Word(("a", "x"), ("a", "x")), g) == 2
        # never touching it loses
        assert winner_of_lasso(Word(("b", "x"), ("a", "x")), g) == 1

    def test_illegal_action_reports_index(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        with pytest.raises(GameError, match="index 2"):
            winner_of_lasso(Word(("a", "x"), ("b", "x")), g)

    def test_start_override(self):
        g = two_vertex_game("parity")
        assert winner_of_lasso(Word((), ("x", "a")), g, start=g.vertex("v").id) == 2

    def test_odd_cycle_word_rejected(self):
        with pytest.raises(GameError):
            Word((), ("a",))

    def test_finite_word_rejected(self):
        g = two_vertex_game()
        with pytest.raises(GameError):
            winner_of_lasso(Word(("a",)), g)
