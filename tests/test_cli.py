import argparse
import hashlib
import json
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import satsearch as ss
from satsearch.cli import _curve_csv, _emit, _json_text, build_parser, main

from conftest import TOY_DIMACS, counter_formula, enumeration_walkers
from oracles import lift_snapshot


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.cnf"
    path.write_text(TOY_DIMACS)
    return str(path)


@pytest.fixture()
def multi_path(tmp_path):
    path = tmp_path / "multi.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    return str(path)


class TestGen:
    def test_writes_verified_instance(self, tmp_path):
        out = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "8", "-m", "12", "--seed", "1", "-o", str(out)]) == 0
        text = out.read_text()
        formula = ss.parse_dimacs(text)
        table = ss.build_unsat_table(formula)
        planted = table.unique_solution()
        assert f"c planted {planted}" in text
        assert "c seed 1" in text

    def test_enumerates_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(read):
            def wrapper(formula, *args):
                calls.append((read.__name__, formula.n))
                return read(formula, *args)

            return wrapper

        # every module that binds either enumeration by name; gen reads the
        # solutions alone and builds no table
        monkeypatch.setattr("satsearch.cli.build_unsat_table", counted(ss.build_unsat_table))
        monkeypatch.setattr("satsearch.generate.satisfying_assignments", counted(ss.cnf.satisfying_assignments))
        for seed in ("2", "3"):
            out = str(tmp_path / f"x{seed}.cnf")
            assert main(["gen", "-n", "19", "-m", "95", "--seed", seed, "-o", out]) == 0
        assert calls == [("satisfying_assignments", 19)] * 2

    @pytest.mark.slow
    def test_n30_instance(self, tmp_path):
        """``gen`` at n = 30 writes a formula whose only solution, by the table, is its planted value."""
        out = tmp_path / "n30.cnf"
        assert main(["gen", "-n", "30", "-m", "150", "--seed", "1", "-o", str(out)]) == 0
        text = out.read_text()
        planted = ss.build_unsat_table(ss.parse_dimacs(text)).unique_solution()
        assert text.startswith(f"c planted {planted}\nc seed 1\np cnf 30 ")

    def test_missing_n_is_usage_error(self, capsys):
        assert main(["gen", "-m", "10"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_small_n_is_instance_error(self, capsys):
        assert main(["gen", "-n", "2", "-m", "5"]) == 3
        assert "n >= 3" in capsys.readouterr().err


class TestAnalyze:
    def test_toy_summary(self, toy_path, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["analyze", "-f", toy_path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["B"] == pytest.approx(1.2247448713915892)
        assert payload["q_m"] == 2
        assert payload["validity_warning"] is True
        assert payload["histogram"] == [1, 2, 1]

    def test_table_export(self, toy_path, tmp_path):
        table_out = tmp_path / "table.json"
        assert main(["analyze", "-f", toy_path, "-o", str(tmp_path / "s.json"), "--table", str(table_out)]) == 0
        assert json.loads(table_out.read_text()) == {
            "n": 2,
            "m": 2,
            "histogram": [1, 2, 1],
            "solutions": [3],
        }

    def test_multiple_solutions_exit_3(self, multi_path, capsys):
        assert main(["analyze", "-f", multi_path]) == 3
        assert "found 3" in capsys.readouterr().err

    def test_guard_exit_4(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 31 1\n1 0\n")
        monkeypatch.setattr(ss.cnf, "violation_blocks", TestEnumerationLimit.refuse)
        assert main(["analyze", "-f", str(path)]) == 4
        TestUsageErrors.assert_one_line_error(capsys, "n <= 30")

    def test_int64_index_limit_exit_4(self, tmp_path, capsys):
        # past the int64 index limit too, the enumeration limit refuses first
        path = tmp_path / "wider.cnf"
        path.write_text("p cnf 63 1\n1 0\n")
        assert main(["analyze", "-f", str(path)]) == 4
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:") and "n <= 30" in lines[0]

    def test_missing_file_exit_3(self):
        assert main(["analyze", "-f", "/nonexistent/file.cnf"]) == 3

    def test_malformed_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n1 -1 0\n")
        assert main(["analyze", "-f", str(path)]) == 3
        assert "tautological" in capsys.readouterr().err

    def test_satlib_trailer(self, tmp_path, capsys):
        path = tmp_path / "satlib.cnf"
        path.write_text("c SATLIB-style\n" + TOY_DIMACS + "%\n0\n\n")
        assert main(["analyze", "-f", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["histogram"] == [1, 2, 1]

    def test_non_utf8_bytes_exit_3(self, tmp_path, capsys):
        path = tmp_path / "binary.cnf"
        path.write_bytes(b"p cnf 2 2\n1 0\n\xff 0\n")
        assert main(["analyze", "-f", str(path)]) == 3
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "non-integer" in lines[0]
        assert captured.out == ""


    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 5 1\n" + "7" * 5000 + " 0\n", "literal of more than 18 digits out of range for n=5"),
            ("p cnf " + "7" * 5000 + " 1\n1 0\n", "line 1: header count of more than 18 digits"),
            ("p cnf " + "7" * 100 + " 1\n1 0\n", "line 1: header count of more than 18 digits"),
        ],
        ids=["5000-digit-literal", "5000-digit-count", "100-digit-count"],
    )
    def test_long_integer_exit_3(self, text, message, tmp_path, capsys):
        # int() refuses more than 4300 digits, and no message echoes the digits
        path = tmp_path / "long.cnf"
        path.write_text(text)
        assert main(["analyze", "-f", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("text", ["p cnf 1_0 1\n1 0\n", "p cnf 2 1\n+1 0\n"])
    def test_non_strict_integer_exit_3(self, text, tmp_path, capsys):
        path = tmp_path / "loose.cnf"
        path.write_text(text)
        assert main(["analyze", "-f", str(path)]) == 3
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "non-integer" in lines[0]
        assert captured.out == ""


class TestSweep:
    def test_auto_qmax_row_count(self, tmp_path):
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "8", "-m", "10", "--seed", "2", "-o", str(inst)]) == 0
        out = tmp_path / "curve.csv"
        assert main(["sweep", "-f", str(inst), "--qmax", "auto", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        table = ss.build_unsat_table(ss.parse_dimacs(inst.read_text()))
        q_m = ss.spectral_summary(table).q_m
        assert lines[0] == "q,p_marginal,p_overlap"
        assert len(lines) - 1 == 2 * q_m + 1

    def test_bad_qmax_usage_error(self, toy_path):
        assert main(["sweep", "-f", toy_path, "--qmax", "soon"]) == 2


class TestRun:
    def test_snapshot(self, tmp_path):
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "8", "-m", "10", "--seed", "3", "-o", str(inst)]) == 0
        snap, out = tmp_path / "state.json", tmp_path / "r.json"
        assert main(["run", "-f", str(inst), "--snapshot", str(snap), "-o", str(out)]) == 0
        histogram = json.loads(out.read_text())["histogram"]
        payload = json.loads(snap.read_text())
        m = len(histogram) - 1
        occupied = [u for u, count in enumerate(histogram) if count]
        assert 0 < len(occupied) < m + 1  # some class is empty, so the keys are not all 2(m+1)
        assert payload["m"] == m
        assert [k for k, _, _ in payload["amplitudes"]] == occupied + [u + m + 1 for u in occupied]
        assert sum(re**2 + im**2 for _, re, im in payload["amplitudes"]) == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_enumerates_no_more(self, tmp_path, monkeypatch):
        """``--snapshot`` adds no pass over the assignments: one walk per table."""
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "8", "-m", "12", "--seed", "1", "-o", str(inst)]) == 0
        calls = {"build_unsat_table": 0, "violation_blocks": 0}

        def counted(name):
            fn = getattr(ss.cnf, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        wrappers = {name: counted(name) for name in calls}
        # every satsearch module that binds either function by name
        for module in [m for name, m in sys.modules.items() if name.startswith("satsearch")]:
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        argv = ["run", "-f", str(inst), "--grover", "--trials", "50", "--snapshot", str(tmp_path / "s.json")]
        assert main([*argv, "-o", str(tmp_path / "r.json")]) == 0
        assert calls["build_unsat_table"] == 2  # the run's table and the trials' second one
        assert calls["violation_blocks"] == calls["build_unsat_table"]

    def test_no_snapshot_file_when_the_sweep_fails(self, multi_path, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(["run", "-f", multi_path, "--snapshot", str(snap), "-o", str(tmp_path / "r.json")]) == 3
        assert "found 3" in capsys.readouterr().err
        assert not snap.exists()

    def test_full_report(self, tmp_path):
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "8", "-m", "10", "--seed", "3", "-o", str(inst)]) == 0
        out = tmp_path / "report.json"
        assert main([
            "run", "-f", str(inst), "--grover", "--steps", "auto",
            "--trials", "500", "--trials-seed", "9", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == ss.__version__
        assert "cost" in payload and "repeat_stats" in payload
        assert payload["repeat_stats"]["trials"] == 500
        assert payload["grover_curve"] is not None
        assert "timings" not in payload

    def test_byte_identical_across_threads(self, tmp_path):
        # one worker against four, which each count every fourth of the 128 4-assignment blocks
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "9", "-m", "12", "--seed", "5", "-o", str(inst)]) == 0
        outputs = []
        for cpus in (1, 4):
            outputs.append(tmp_path / f"r{cpus}.json")
            with enumeration_walkers(cpus) as shares:
                assert main(["run", "-f", str(inst), "--qmax", "60", "-o", str(outputs[-1])]) == 0
            assert len(shares) == (cpus if ss.cnf._openblas() else 1)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_zero_trials_takes_no_samples(self, toy_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "-f", toy_path, "--trials", "0", "-o", str(out)]) == 0
        assert "repeat_stats" not in json.loads(out.read_text())


class TestGrover:
    def test_auto_steps_curve_peaks(self, tmp_path):
        inst = tmp_path / "inst.cnf"
        assert main(["gen", "-n", "10", "-m", "12", "--seed", "4", "-o", str(inst)]) == 0
        out = tmp_path / "grover.csv"
        assert main(["grover", "-f", str(inst), "--steps", "auto", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,p_r"
        final_p = float(lines[-1].split(",")[1])
        assert final_p >= 0.9

    def test_one_step_csv(self, toy_path, tmp_path):
        out = tmp_path / "grover.csv"
        assert main(["grover", "-f", toy_path, "--steps", "1", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [int(k) for k, _ in rows] == [0, 1]
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)  # one step finds 1 of N = 4


class TestSpectrum:
    def test_small_instance(self, tmp_path):
        formula = ss.generate_planted_chain(6, seed=1)
        inst = tmp_path / "chain.cnf"
        inst.write_text(ss.serialize_dimacs(formula))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "-f", str(inst), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["lambda_plus"]) == pytest.approx(payload["predicted_lambda_pm"], rel=0.05)
        assert payload["span_weight"] >= 0.95

    def test_2048_classes(self, tmp_path):
        # every assignment its own class: K = 2048 secular roots, no dimension guard
        path = tmp_path / "counter.cnf"
        path.write_text(ss.serialize_dimacs(counter_formula(11)))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "-f", str(path), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert sum(k for _, k in payload["eigenphases"]) == 2**12

    def test_beyond_the_per_assignment_limit(self, tmp_path):
        formula = ss.generate_planted_chain(16, extras=2, seed=4)
        inst = tmp_path / "chain16.cnf"
        inst.write_text(ss.serialize_dimacs(formula))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "-f", str(inst), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert sum(k for _, k in payload["eigenphases"]) == 2**17
        assert abs(payload["lambda_plus"]) == pytest.approx(payload["predicted_lambda_pm"], rel=0.05)


class TestUsageErrors:
    """Values that parse but cannot be used exit 2 with one error line."""

    @staticmethod
    def assert_one_line_error(capsys, fragment):
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert fragment in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep", "run"])
    def test_qmax_zero(self, command, toy_path, capsys):
        assert main([command, "-f", toy_path, "--qmax", "0"]) == 2
        self.assert_one_line_error(capsys, "--qmax")

    @pytest.mark.parametrize("command", ["grover", "run"])
    def test_negative_steps(self, command, toy_path, capsys):
        assert main([command, "-f", toy_path, "--steps", "-1"]) == 2
        self.assert_one_line_error(capsys, "--steps")

    def test_negative_trials(self, toy_path, capsys):
        assert main(["run", "-f", toy_path, "--trials", "-3"]) == 2
        self.assert_one_line_error(capsys, "--trials")

    def test_trials_beyond_c_long(self, toy_path, tmp_path, capsys):
        assert main(["run", "-f", toy_path, "--trials", str(1 << 63)]) == 2
        self.assert_one_line_error(capsys, "--trials")
        out = tmp_path / "r.json"
        assert main(["run", "-f", toy_path, "--trials", str((1 << 63) - 1), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["repeat_stats"]["trials"] == (1 << 63) - 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen", "-n", "8", "-m", "12", "--seed", "-1"], "--seed"),
            (["run", "--trials", "10", "--trials-seed", "-1"], "--trials-seed"),
        ],
        ids=["gen", "run"],
    )
    def test_negative_seed(self, argv, flag, toy_path, capsys):
        if argv[0] == "run":
            argv = [*argv, "-f", toy_path]
        assert main(argv) == 2
        self.assert_one_line_error(capsys, flag)

    @pytest.mark.parametrize("absolute", [False, True], ids=["same-string", "absolute"])
    @pytest.mark.parametrize("command, flag", [("run", "--snapshot"), ("analyze", "--table")], ids=["run", "analyze"])
    def test_output_and_second_file_differ(self, command, flag, absolute, toy_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        second = str(tmp_path / "out.json") if absolute else "out.json"
        assert main([command, "-f", toy_path, flag, second, "-o", "out.json"]) == 2
        self.assert_one_line_error(capsys, f"-o and {flag} name the same file")
        assert not (tmp_path / "out.json").exists()
        # to stdout, -o names no file
        assert main([command, "-f", toy_path, flag, "out.json"]) == 0

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("analyze", "-o"),
            ("analyze", "--table"),
            ("sweep", "-o"),
            ("run", "-o"),
            ("run", "--snapshot"),
            ("grover", "-o"),
            ("spectrum", "-o"),
        ],
    )
    @pytest.mark.parametrize("absolute", [False, True], ids=["same-string", "absolute"])
    def test_output_is_not_the_input(self, command, flag, absolute, toy_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = (tmp_path / "toy.cnf").read_bytes()
        output = toy_path if absolute else "toy.cnf"
        argv = [command, "-f", "toy.cnf", flag, output]
        if flag != "-o":
            argv += ["-o", str(tmp_path / "out.json")]
        assert main(argv) == 2
        self.assert_one_line_error(capsys, f"-f and {flag} name the same file")
        assert (tmp_path / "toy.cnf").read_bytes() == before
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "sweep", "run", "grover", "spectrum"])
    def test_seed_only_for_gen(self, command, toy_path, capsys):
        assert main([command, "-f", toy_path, "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_steps_without_grover(self, toy_path, tmp_path, capsys):
        # without --grover no baseline runs, so a step count would be ignored
        assert main(["run", "-f", toy_path, "--steps", "5", "--qmax", "2"]) == 2
        self.assert_one_line_error(capsys, "--steps needs --grover")
        # 'auto' is the default and stays allowed
        assert main(["run", "-f", toy_path, "--steps", "auto", "-o", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("argv", [["--trials-seed", "5"], ["--trials", "0", "--trials-seed", "0"]])
    def test_trials_seed_without_trials(self, argv, toy_path, capsys):
        assert main(["run", "-f", toy_path, *argv]) == 2
        self.assert_one_line_error(capsys, "--trials-seed needs --trials")


class TestEnumerationLimit:
    """Every command that enumerates refuses n > cnf.MAX_ENUMERATION_N = 30 with exit 4.

    ``analyze``'s case is ``TestAnalyze.test_guard_exit_4``.
    """

    @staticmethod
    def refuse(formula):
        raise AssertionError("a block was walked")

    @pytest.mark.parametrize("command", ["sweep", "run", "grover", "spectrum"])
    def test_n31_exit_4(self, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "n31.cnf"
        path.write_text("p cnf 31 1\n1 0\n")
        monkeypatch.setattr(ss.cnf, "violation_blocks", self.refuse)
        assert main([command, "-f", str(path)]) == 4
        TestUsageErrors.assert_one_line_error(capsys, "n <= 30")

    def test_gen_n31_exit_4_before_the_draw(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a clause was drawn")

        monkeypatch.setattr(ss.generate, "_random_clause_satisfied_by", refuse)
        assert main(["gen", "-n", "31", "-m", "155"]) == 4
        TestUsageErrors.assert_one_line_error(capsys, "n <= 30")


class TestSolutionGuard:
    """``gen``'s solution list exits 4 with one error line when it would not fit in physical memory."""

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        # room for 100 solutions, or 27 curve rows; the clause tables take 1 byte
        pages = {"SC_PAGE_SIZE": ss.cnf.SOLUTION_BYTES, "SC_PHYS_PAGES": 100}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(ss.cnf, "TABLE_BYTES", 1)

    def test_analyze_exit_3_without_a_solution_list(self, tmp_path, toy_path, capsys):
        # the table keeps two solutions and counts the rest, so it needs no room for them
        path = tmp_path / "half.cnf"
        path.write_text("p cnf 12 1\n1 0\n")  # 2048 solutions
        assert main(["analyze", "-f", str(path)]) == 3
        assert capsys.readouterr().err == "error: expected exactly one satisfying assignment, found 2048\n"
        assert main(["analyze", "-f", toy_path]) == 0

    def test_gen_exit_4(self, tmp_path, capsys, monkeypatch):
        # the solution list, not the 60 clauses, is what this memory bounds
        monkeypatch.setattr(ss.generate, "CLAUSE_BYTES", 1)
        # one initial clause leaves 7/8 of the 4096 assignments
        assert main(["gen", "-n", "12", "-m", "1"]) == 4
        TestUsageErrors.assert_one_line_error(capsys, "solutions exceed the 100 that fit in physical memory")
        assert main(["gen", "-n", "12", "-m", "60", "-o", str(tmp_path / "x.cnf")]) == 0


class TestDimacsGuard:
    """A DIMACS file longer than ``memory_capacity(DIMACS_BYTES)`` exits 4 with one error line, unparsed."""

    BOUND = 40
    REFUSED = f"{BOUND + 1} bytes of the file exceed the {BOUND} that fit"

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        # room for a DIMACS file of BOUND bytes; the clause tables take 1 byte
        pages = {"SC_PAGE_SIZE": ss.cnf.DIMACS_BYTES, "SC_PHYS_PAGES": self.BOUND}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(ss.cnf, "TABLE_BYTES", 1)

    @staticmethod
    def refuse_parsing(monkeypatch):
        def refuse(text):
            raise AssertionError("the text was parsed")

        monkeypatch.setattr(ss.cnf, "parse_dimacs", refuse)

    def test_bound(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "padded.cnf"
        text = TOY_DIMACS + "c" * (self.BOUND - len(TOY_DIMACS) - 1) + "\n"
        path.write_text(text)
        assert path.stat().st_size == self.BOUND
        assert main(["analyze", "-f", str(path)]) == 0
        capsys.readouterr()
        path.write_text(text + "\n")
        self.refuse_parsing(monkeypatch)
        assert main(["analyze", "-f", str(path)]) == 4
        TestUsageErrors.assert_one_line_error(capsys, self.REFUSED)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file(self, capsys, monkeypatch):
        self.refuse_parsing(monkeypatch)
        assert main(["run", "-f", "/dev/zero"]) == 4
        TestUsageErrors.assert_one_line_error(capsys, self.REFUSED)


class TestTableGuard:
    """m clauses on w workers above ``memory_capacity(TABLE_BYTES)`` exit 4 with one error line, before any table is built."""

    BOUND = 40

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        # room for the clause tables of BOUND clauses on one worker
        pages = {"SC_PAGE_SIZE": ss.cnf.TABLE_BYTES, "SC_PHYS_PAGES": self.BOUND}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)

    def test_bound(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "units.cnf"
        path.write_text(f"p cnf 1 {self.BOUND}\n" + "1 0\n" * self.BOUND)
        assert main(["analyze", "-f", str(path)]) == 0
        capsys.readouterr()
        path.write_text(f"p cnf 1 {self.BOUND + 1}\n" + "1 0\n" * (self.BOUND + 1))
        monkeypatch.setattr(ss.cnf, "violation_blocks", TestEnumerationLimit.refuse)
        assert main(["analyze", "-f", str(path)]) == 4
        refused = f"{self.BOUND + 1} clauses on 1 workers exceed the {self.BOUND} that fit"
        TestUsageErrors.assert_one_line_error(capsys, refused)

    def test_every_worker_counts(self, tmp_path, capsys, monkeypatch):
        # 2**(n-2) blocks of 4 assignments on two CPUs, and a pool whatever numpy's
        # BLAS: two workers, so half the clauses fill the memory
        path = tmp_path / "units.cnf"
        path.write_text(f"p cnf 12 {self.BOUND // 2 + 1}\n" + "1 0\n" * (self.BOUND // 2 + 1))
        monkeypatch.setattr(ss.cnf, "_openblas", lambda: (lambda: 1, lambda count: None))
        monkeypatch.setattr(ss.cnf, "violation_blocks", TestEnumerationLimit.refuse)
        with enumeration_walkers(2):
            assert main(["analyze", "-f", str(path)]) == 4
        half = self.BOUND // 2
        TestUsageErrors.assert_one_line_error(capsys, f"{half + 1} clauses on 2 workers exceed the {half} that fit")


class TestClauseGuard:
    """``gen -m`` above ``memory_capacity(CLAUSE_BYTES)`` exits 4 with one error line, before any clause is drawn."""

    BOUND = 40

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        # room for BOUND initial clauses
        pages = {"SC_PAGE_SIZE": ss.generate.CLAUSE_BYTES, "SC_PHYS_PAGES": self.BOUND}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)

    def test_bound(self, capsys, monkeypatch):
        assert main(["gen", "-n", "10", "-m", str(self.BOUND)]) == 0
        assert ss.parse_dimacs(capsys.readouterr().out).m >= self.BOUND

        def refuse(*args):
            raise AssertionError("a clause was drawn")

        monkeypatch.setattr(ss.generate, "_random_clause_satisfied_by", refuse)
        for m in (self.BOUND + 1, 100_000_000):
            assert main(["gen", "-n", "10", "-m", str(m)]) == 4
            refused = f"{m} initial clauses exceed the {self.BOUND} that fit in physical memory"
            TestUsageErrors.assert_one_line_error(capsys, refused)


class TestCurveGuard:
    """A curve whose rows would not fit in physical memory exits 4 before it is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--qmax", "100000000000"],
            ["grover", "--steps", "100000000000"],
            ["run", "--qmax", "100000000000000000000"],
            ["run", "--grover", "--steps", "100000000000"],
        ],
        ids=["sweep", "grover", "run", "run-grover"],
    )
    def test_exit_4(self, argv, toy_path, capsys):
        assert main([*argv, "-f", toy_path]) == 4
        TestUsageErrors.assert_one_line_error(capsys, "curve rows exceed the")


# (k, 2) and (k, 3) arrays of any finite float: -0.0, subnormals down to
# 5e-324 and magnitudes up to 1.8e308 included
CURVE_ARRAYS = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.sampled_from([2, 3])),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)

# columns 1 and 2 bit-identical, as p_marginal and p_overlap are
EQUAL_COLUMNS = np.array([[0.0, 0.1, 0.1], [1.0, 5e-324, 5e-324], [2.0, -0.0, -0.0], [3.0, 1e308, 1e308]])
# columns 1 and 2 equal as numbers, differing only in the sign of zero
SIGNED_ZEROS = np.array([[0.0, 0.0, -0.0], [1.0, 0.5, 0.5], [2.0, -0.0, 0.0]])


def longer_than_a_block():
    """Rows (q, p, p) past two blocks of ``BLOCK_ROWS``, columns 1 and 2 parting in the sign of zero in the last one."""
    rows = 2 * ss.cli.BLOCK_ROWS + 5
    curve = np.empty((rows, 3))
    curve[:, 0] = np.arange(rows)
    curve[:, 1] = curve[:, 2] = np.sin(np.arange(rows) / 97.0) ** 2
    curve[-3:, 1], curve[-3:, 2] = 0.0, -0.0
    return curve


def streamed(write, *args):
    """The whole text of a writer's pieces, at the real block size and at blocks of 2 and 3 rows."""
    texts = set()
    for rows in (ss.cli.BLOCK_ROWS, 2, 3):
        with mock.patch.object(ss.cli, "BLOCK_ROWS", rows):
            texts.add("".join(write(*args)))
    (text,) = texts
    return text


class TestJsonText:
    """``_json_text`` writes 2-D arrays as ``json.dumps`` writes their lists of rows, column 0 as ints."""

    @staticmethod
    def json_dumps(payload):
        listed = {
            key: [[int(first), *rest] for first, *rest in value.tolist()] if isinstance(value, np.ndarray) else value
            for key, value in payload.items()
        }
        return json.dumps(listed, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(CURVE_ARRAYS)
    @example(np.array([[0.0, 0.5, 0.25]]))
    @example(np.array([[-0.0, -0.0], [3.0, 5e-324], [1e308, 2.2250738585072014e-308 / 7], [2.0**53, 4.0]]))
    @example(np.array([[7.0, 1.0, -2.0], [8.0, 1e308, -1e-320]]))
    @example(EQUAL_COLUMNS)
    @example(SIGNED_ZEROS)
    @example(longer_than_a_block())
    def test_bytes_match_json_dumps(self, array):
        payload = {"version": "0.1.0", "curve": array, "nested": {"rows": [[1, 0.5]], "none": None}, "empty": []}
        assert streamed(_json_text, payload) == self.json_dumps(payload)

    @settings(max_examples=200, deadline=None)
    @given(CURVE_ARRAYS)
    @example(EQUAL_COLUMNS)
    @example(SIGNED_ZEROS)
    @example(longer_than_a_block())
    def test_csv_matches_row_format(self, array):
        template = ",".join(["%d"] + ["%r"] * (array.shape[1] - 1))
        expected = "".join(["q,a,b\n", *(template % tuple(row) + "\n" for row in array.tolist())])
        assert streamed(_curve_csv, "q,a,b", array) == expected

    def test_empty_array(self):
        payload = {"curve": np.empty((0, 3)), "grover_curve": None}
        assert "".join(_json_text(payload)) == self.json_dumps(payload)
        assert "".join(_curve_csv("q,a,b", np.empty((0, 3)))) == "q,a,b\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_raises(self, value, column):
        array = np.ones((3, 3))
        array[1, column] = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text({"curve": array})

    @pytest.mark.parametrize("refused", ["curve", "value"])
    def test_refused_report_leaves_output(self, refused, tmp_path):
        """A non-finite array or value raises before the output is opened, so an existing file keeps its bytes."""
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        payload = {"curve": np.ones((2 * ss.cli.BLOCK_ROWS, 3)), "p": 0.5}
        if refused == "curve":
            payload["curve"][-1, 1] = math.nan
        else:
            payload["p"] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit(_json_text(payload), str(out))
        assert out.read_bytes() == b"an earlier report\n"


class TestParser:
    # each subcommand's option strings after the common ones, pinned like
    # satsearch.__all__
    OPTIONS = {
        "gen": "-n -m --seed",
        "analyze": "-f --formula --table",
        "sweep": "-f --formula --qmax",
        "run": "-f --formula --qmax --grover --steps --trials --trials-seed --snapshot",
        "grover": "-f --formula --steps",
        "spectrum": "-f --formula",
    }

    def test_option_strings_pinned(self):
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(self.OPTIONS)
        for name, sub in commands.choices.items():
            flags = " ".join(flag for action in sub._actions for flag in action.option_strings)
            assert flags == "-h --help -o --output " + self.OPTIONS[name], name

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_no_guard_option(self, command, toy_path, capsys):
        argv = ["gen", "-n", "8", "-m", "12"] if command == "gen" else [command, "-f", toy_path]
        assert main([*argv, "--guard-n", "40"]) == 2
        assert "unrecognized arguments: --guard-n 40" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_no_threads_option(self, command, toy_path, capsys):
        # the enumeration picks its own workers
        argv = ["gen", "-n", "8", "-m", "12"] if command == "gen" else [command, "-f", toy_path]
        assert main([*argv, "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_no_timings_option(self, toy_path, tmp_path, capsys):
        # a run reads no clock: its report is a function of the table alone
        assert main(["run", "-f", toy_path, "--timings", "-o", str(tmp_path / "out")]) == 2
        assert "unrecognized arguments: --timings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", ["sweep --format json", "sweep --snapshot x", "grover --format json"])
    def test_json_and_snapshot_only_from_run(self, argv, toy_path, tmp_path, capsys):
        assert main([*argv.split(), "-f", toy_path, "-o", str(tmp_path / "out")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_stdout_default(self, toy_path, capsys):
        assert main(["analyze", "-f", toy_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_m"] == 2


class TestOutputBytes:
    """Every command's output bytes on one fixed n = 8 instance, pinned by sha256.

    Any change to these digests is a change of the output format or of the
    numbers.  The float digits come from numpy's elementwise exp, sin, arcsin
    and sqrt, its pairwise sums and its BLAS dot products; a platform whose
    math library or BLAS rounds differently would need the digests taken
    again.
    """

    COMMANDS = [
        ["gen", "-n", "8", "-m", "12", "--seed", "1", "-o", "inst.cnf"],
        ["analyze", "-f", "inst.cnf", "-o", "analyze.json"],
        ["sweep", "-f", "inst.cnf", "-o", "sweep.csv"],
        ["grover", "-f", "inst.cnf", "-o", "grover.csv"],
        # trials seed 1 draws no hit, which test_strict_json_without_a_hit needs
        [
            "run", "-f", "inst.cnf", "--grover", "--trials", "50", "--trials-seed", "1",
            "--snapshot", "snap.json", "-o", "run.json",
        ],
        ["spectrum", "-f", "inst.cnf", "-o", "spectrum.json"],
    ]
    FILES = {"inst.cnf", "analyze.json", "sweep.csv", "grover.csv", "run.json", "snap.json", "spectrum.json"}
    SHA256 = {
        "inst.cnf": "b046d53e02cb3a9a680eeee9d3369ed605a58bd891646e2fc61a839135ea71e9",
        "analyze.json": "4ddcea610bacefb861a44bce5eb8c98997a9cd589ea0da066bb16fe5b69f5bc1",
        "sweep.csv": "bec6fd1b45ecf007b7191c324e00e65c5243b77070aaeadc52a0103dff13fccf",
        "grover.csv": "a037eb0c6434317dff84b4f1d636292e195e23bcd6b774211405b10eeb6411cb",
        "run.json": "99cc2bad33b3fb7f19014fa2eeba97bd9ac37be52ae2c19cd031353800d7078b",
        "snap.json": "482ee63a52a6868aa6c674cc9254c0d35a92e0db57b7b7d41f9975add76babdb",
        "spectrum.json": "894a6053ea0536559df70ba33626911aed72486b29e3685dc014ab00bf62d80b",
    }
    # the per-assignment document the pinned snap.json lifts to: one
    # (index, re, im) row per amplitude of modulus above 1e-6
    PER_ASSIGNMENT_SNAP_SHA256 = "a88be147c8d4291398e6e039128f0990984aee672a16b9bbca4c2d0e669d66e6"

    def digests(self, directory):
        """Run every command with its files in ``directory``; sha256 of each file."""
        for argv in self.COMMANDS:
            argv = [str(directory / a) if a in self.FILES else a for a in argv]
            assert main(argv) == 0, argv
        return {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in self.SHA256
        }

    def test_pinned_digests(self, tmp_path):
        assert self.digests(tmp_path) == self.SHA256

    def test_lifted_snapshot_is_the_per_assignment_document(self, tmp_path):
        self.digests(tmp_path)
        formula = ss.read_dimacs(str(tmp_path / "inst.cnf"))
        lifted = lift_snapshot(formula, json.loads((tmp_path / "snap.json").read_text()), 1e-6)
        assert hashlib.sha256(lifted.encode()).hexdigest() == self.PER_ASSIGNMENT_SNAP_SHA256

    def test_no_per_assignment_state(self, tmp_path, monkeypatch):
        """The same bytes with no profile of more than m + 1 entries, one per violation count.

        A per-assignment profile has 2**n = 256 entries here, against m + 1 = 26.
        """
        post_init = ss.PhaseProfile.__post_init__

        def class_profiles_only(self):
            post_init(self)
            if self.size > self.m + 1:
                raise AssertionError(f"profile of {self.size} entries at m = {self.m}")

        monkeypatch.setattr(ss.PhaseProfile, "__post_init__", class_profiles_only)
        assert self.digests(tmp_path) == self.SHA256

    def test_strict_json_without_a_hit(self, tmp_path):
        self.digests(tmp_path)

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads((tmp_path / "run.json").read_text(), parse_constant=refuse)
        assert report["repeat_stats"]["empirical_success_rate"] == 0.0
        assert report["repeat_stats"]["mean_repeats"] is None

    def test_path_spelling_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.COMMANDS[0]) == 0
        outputs = []
        for k, path in enumerate(["inst.cnf", "./inst.cnf", str(tmp_path / "inst.cnf")]):
            out = tmp_path / f"run{k}.json"
            assert main(["run", "--trials", "5", "-f", path, "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 3
