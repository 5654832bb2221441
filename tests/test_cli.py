import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tgames
from tgames import (
    GameError,
    Transducer,
    make_game,
    parse_dimacs_cnf,
    parse_game,
    parse_qdimacs,
    serialize_game,
    serialize_transducer,
)
from tgames.cli import EXIT_INPUT, build_parser, main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "version", "inputs", "parameters", "outcome", "stats"],
    "properties": {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256"],
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                },
            },
        },
        "parameters": {"type": "object"},
        "outcome": {
            "enum": ["ok", "not-live", "p1-wins", "undecided-at-cap", "error"]
        },
        "stats": {"type": "object"},
    },
}


def paradise_text():
    g = make_game(
        "buchi", ("a", "b"), ("x", "y"),
        [("u", 1, 2), ("v", 2, 2)],
        [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
        "u",
    )
    return serialize_game(g)


@pytest.fixture
def game_file(tmp_path):
    p = tmp_path / "game.bg"
    p.write_text(paradise_text())
    return str(p)


class TestValidate:
    def test_ok(self, game_file, capsys):
        assert main(["validate", game_file]) == 0
        assert "VIOLATION" not in capsys.readouterr().out

    def test_violations_printed(self, tmp_path, capsys):
        p = tmp_path / "partial.bg"
        p.write_text(paradise_text().replace("edge u b v\n", ""))
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION totality u b" in out


class TestComplete:
    def test_round_trip(self, tmp_path, capsys):
        p = tmp_path / "partial.bg"
        p.write_text(paradise_text().replace("edge u b v\n", ""))
        out_path = tmp_path / "total.bg"
        assert main(["complete", str(p), "-o", str(out_path)]) == 0
        g = parse_game(out_path.read_text())
        assert g.is_total()


class TestProduct:
    def test_emits_parseable_game(self, game_file, tmp_path, capsys):
        t = Transducer(("a", "b"), ("x", "y"), ("a",), ((0, 0),))
        tp = tmp_path / "env.tr"
        tp.write_text(serialize_transducer(t))
        out = tmp_path / "prod.bg"
        assert main(["product", game_file, "--env", str(tp), "-o", str(out)]) == 0
        g = parse_game(out.read_text())
        assert g.has_vertex("(u,0)")
        lout = tmp_path / "lassos.txt"
        assert main([
            "product", game_file, "--env", str(tp), "-o", str(out),
            "--lassos", str(lout),
        ]) == 0
        assert lout.read_text().startswith("LASSO prefix:")


class TestCheckLive:
    def test_live_exit_zero(self, game_file, capsys):
        assert main(["check-live", game_file, "-k", "1"]) == 0
        assert "live" in capsys.readouterr().out

    def test_not_live_writes_witness(self, tmp_path, capsys):
        g = make_game(
            "reachability", ("a", "b"), ("x",),
            [("u", 1, 1), ("v", 2, 2), ("d1", 1, 1), ("d2", 2, 1)],
            [
                ("u", "a", "v"), ("u", "b", "d2"),
                ("v", "x", "u"),
                ("d1", "a", "d2"), ("d1", "b", "d2"), ("d2", "x", "d1"),
            ],
            "u",
        )
        p = tmp_path / "trap.bg"
        p.write_text(serialize_game(g))
        w = tmp_path / "witness.tr"
        assert main(["check-live", str(p), "-k", "1", "--witness", str(w)]) == 1
        text = w.read_text()
        assert "label 0 b" in text
        assert "# position:" in text
        from tgames import parse_transducer

        machine = parse_transducer(text)  # comments are ignored by the parser
        assert machine.labels == ("b",)

    def test_input_error_exit_apart_from_not_live(self, tmp_path, capsys):
        trap = make_game(
            "reachability", ("a", "b"), ("x",),
            [("u", 1, 1), ("v", 2, 2), ("d1", 1, 1), ("d2", 2, 1)],
            [
                ("u", "a", "v"), ("u", "b", "d2"),
                ("v", "x", "u"),
                ("d1", "a", "d2"), ("d1", "b", "d2"), ("d2", "x", "d1"),
            ],
            "u",
        )
        good = tmp_path / "trap.bg"
        good.write_text(serialize_game(trap))
        bad = tmp_path / "malformed.bg"
        bad.write_text(serialize_game(trap).replace("init u", "init nowhere"))
        assert main(["check-live", str(good), "-k", "1"]) == 1
        assert main(["check-live", str(bad), "-k", "1"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.bg")]) == 3

    def test_cap_exit_two(self, game_file):
        assert main(["--cap", "5", "check-live", game_file, "-k", "2"]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--jobs", "2", "check-live", "GAME", "-k", "2"], "--jobs"),
            (["--cap", "5", "--jobs=2", "check-live", "GAME", "-k", "2"], "--jobs"),
            (["check-live", "GAME", "-k", "2", "--dedupe"], "--dedupe"),
        ],
    )
    def test_removed_flag_is_named(self, game_file, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            main([game_file if a == "GAME" else a for a in argv])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSolve:
    def test_belief(self, game_file, capsys):
        assert main(["solve", game_file, "-k", "1"]) == 0
        assert "p2-wins" in capsys.readouterr().out

    def test_belief_report_counts_settled_positions(self, tmp_path):
        # player 2 wins the paradise game's base game from the start, so
        # every position is settled; the forcing game starts outside player
        # 2's base winning region, and its 4 settled positions are the base
        # game's copy reached through the color-2 vertex v
        forcing = make_game(
            "reachability", ("a", "b"), ("x",),
            [("u", 1, 1), ("v", 2, 2), ("d1", 1, 1), ("d2", 2, 1)],
            [
                ("u", "a", "v"), ("u", "b", "d2"),
                ("v", "x", "u"),
                ("d1", "a", "d2"), ("d1", "b", "d2"), ("d2", "x", "d1"),
            ],
            "u",
        )
        stats = []
        for text, code in ((paradise_text(), 0), (serialize_game(forcing), 1)):
            game, rep = tmp_path / "g.bg", tmp_path / "r.json"
            game.write_text(text)
            argv = ["--deterministic", "--json-report", str(rep), "solve", str(game), "-k", "1"]
            assert main(argv) == code
            stats.append(json.loads(rep.read_text())["stats"])
        assert stats[0] == {"positions": 2, "settled": 2}
        assert stats[1] == {"positions": 7, "settled": 4}

    def test_live_method(self, game_file, capsys):
        assert main(["solve", game_file, "-k", "1", "--method", "live"]) == 0

    def test_live_method_on_not_live_game(self, tmp_path, capsys):
        g = make_game(
            "reachability", ("a", "b"), ("x",),
            [("u", 1, 1), ("v", 2, 2), ("d1", 1, 1), ("d2", 2, 1)],
            [
                ("u", "a", "v"), ("u", "b", "d2"),
                ("v", "x", "u"),
                ("d1", "a", "d2"), ("d1", "b", "d2"), ("d2", "x", "d1"),
            ],
            "u",
        )
        p = tmp_path / "trap.bg"
        p.write_text(serialize_game(g))
        assert main(["solve", str(p), "-k", "1", "--method", "live"]) == 1
        assert "not-live" in capsys.readouterr().out


class TestSimulate:
    def test_trace_format(self, game_file, tmp_path, capsys):
        t = Transducer(("a", "b"), ("x", "y"), ("a",), ((0, 0),))
        tp = tmp_path / "env.tr"
        tp.write_text(serialize_transducer(t))
        trace_path = tmp_path / "trace.txt"
        rc = main([
            "simulate", game_file, "--env", str(tp), "-k", "1",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("STEP 0 P1 a ")
        assert any("ordinal=" in ln and "|M'|=" in ln for ln in lines)


class TestGen:
    def test_cnf_pipeline(self, tmp_path, capsys):
        cnf = tmp_path / "unsat2.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n-1 0\n")
        out = tmp_path / "game.bg"
        assert main(["gen", "cnf", str(cnf), "-o", str(out)]) == 0
        assert main(["check-live", str(out), "-k", "2"]) == 0

    def test_qbf(self, tmp_path):
        q = tmp_path / "psi.qdimacs"
        q.write_text("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
        out = tmp_path / "game.bg"
        assert main(["gen", "qbf", str(q), "-o", str(out)]) == 0
        g = parse_game(out.read_text())
        assert g.has_vertex("v1_1_F")

    @pytest.mark.parametrize(
        "family, text, line",
        [
            ("cnf", "p cnf 2 x\n1 0\n", 1),  # problem line
            ("qbf", "p cnf two 1\na 1 0\ne 2 0\n1 2 0\n", 1),  # problem line
            ("qbf", "p cnf 2 1\na x1 0\ne 2 0\n1 2 0\n", 2),  # quantifier variable
            ("qbf", "p cnf 2 1\na 1 0\ne 2 0\n1 y 0\n", 4),  # clause literal
            ("qbf", "p cnf 2 one\na 1 0\ne 2 0\n1 2 0\n", 1),  # clause count
            ("qbf", "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n", 1),  # count mismatch
            ("cnf", "p cnf 2 1\n1 0\n-2 0\n", 1),  # count mismatch
        ],
    )
    def test_malformed_dimacs_is_an_input_error(self, tmp_path, capsys, family, text, line):
        parse = parse_dimacs_cnf if family == "cnf" else parse_qdimacs
        with pytest.raises(GameError, match=f"^line {line}: bad "):
            parse(text)
        doc = tmp_path / "f"
        doc.write_text(text)
        assert main(["gen", family, str(doc)]) == EXIT_INPUT
        assert f"line {line}: bad " in capsys.readouterr().err

    def test_robot(self, tmp_path):
        out = tmp_path / "robot.bg"
        assert main(["gen", "robot", "--lanes", "2", "-o", str(out)]) == 0
        assert parse_game(out.read_text()).objective == "buchi"

    def test_shell_pipe(self, tmp_path):
        cnf = tmp_path / "unit.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        pipeline = (
            f"{sys.executable} -m tgames gen cnf {cnf} | "
            f"{sys.executable} -m tgames check-live - -k 1"
        )
        # the child interpreters import the same tgames as this test run
        src = os.path.dirname(os.path.dirname(tgames.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            pipeline,
            shell=True,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1  # satisfiable unit clause: not live
        assert "not live" in proc.stdout


class TestEnumerate:
    def test_count_only(self, capsys):
        assert main(["enumerate", "-k", "2", "--outputs", "a,b",
                     "--inputs", "x,y", "--count-only"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[0] == "64"

    def test_dump_parses_back(self, tmp_path):
        out = tmp_path / "machines.txt"
        assert main(["enumerate", "-k", "1", "--outputs", "a,b",
                     "--inputs", "x", "-o", str(out)]) == 0
        docs = out.read_text().split("\n\n")
        assert len(docs) == 2

    def test_cap_applies_to_the_window(self, tmp_path):
        # 5,832 machines in all, but the window holds only 2
        out = tmp_path / "machines.txt"
        assert main(["--cap", "100", "enumerate", "-k", "3", "--outputs", "a,b",
                     "--inputs", "x,y", "--start", "0", "--stop", "2",
                     "-o", str(out)]) == 0
        assert len(out.read_text().split("\n\n")) == 2

    def test_window_above_cap_is_undecided(self, tmp_path, capsys):
        out = tmp_path / "machines.txt"
        assert main(["--cap", "100", "enumerate", "-k", "3", "--outputs", "a,b",
                     "--inputs", "x,y", "--start", "0", "--stop", "101",
                     "-o", str(out)]) == 2
        assert "101 machines exceed cap 100" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "window",
        [
            ["--start", "5", "--stop", "2"],  # reversed
            ["--start", "1", "--stop", "1"],  # empty
            ["--start", "9"],  # past the 2 machines there are
            ["--stop", "3"],  # past the end
        ],
    )
    def test_bad_window_is_an_input_error(self, window, tmp_path, capsys):
        out = tmp_path / "machines.txt"
        assert main(["enumerate", "-k", "1", "--outputs", "a,b", "--inputs", "x",
                     *window, "-o", str(out)]) == 4
        captured = capsys.readouterr()
        assert "REPORT count" not in captured.err
        assert "ordinal window" in captured.err
        assert not out.exists()


class TestReport:
    def test_schema_and_determinism(self, game_file, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for path in (r1, r2):
            assert main([
                "--deterministic", "--json-report", str(path),
                "check-live", game_file, "-k", "1",
            ]) == 0
        d1 = json.loads(r1.read_text())
        jsonschema.validate(d1, REPORT_SCHEMA)
        assert r1.read_text() == r2.read_text()
        assert d1["outcome"] == "ok"
        assert d1["stats"] == {"transducers": 2, "windows": 1, "k": 1}
        assert d1["parameters"]["k"] == 1

    def test_report_lines_on_stderr(self, game_file, capsys):
        main(["check-live", game_file, "-k", "1"])
        err = capsys.readouterr().err
        assert "REPORT outcome ok" in err


class TestReadme:
    @staticmethod
    def _command_line_section():
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        start = text.index("## Command line")
        return text[start : text.index("\n## ", start)]

    @staticmethod
    def _options(parser):
        """The option strings of every non-help option of `parser` and of
        its subcommands, grouped per option."""
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from TestReadme._options(sub)
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                yield action.option_strings

    def test_command_line_section_matches_parser(self):
        section = self._command_line_section()
        tokens = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", section))
        groups = list(self._options(build_parser()))
        missing = [g for g in groups if not tokens.intersection(g)]
        assert not missing, f"options the README does not name: {missing}"
        accepted = {opt for g in groups for opt in g}
        unknown = {t for t in tokens if t.startswith("--")} - accepted
        assert not unknown, f"README options the parser rejects: {sorted(unknown)}"
