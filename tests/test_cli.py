import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import nnormkit.cli as cli
from nnormkit import topology
from nnormkit.cli import build_parser, main
from nnormkit.topology import counterexample_r5, parse_trace_csv


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestNormCommand:
    def test_orthonormal_pair(self, capsys):
        assert main(["norm", "1,0,0", "0,1,0"]) == 0
        out = capsys.readouterr().out
        assert "standard 2-norm = 1" in out

    def test_dependent_triple(self, capsys):
        assert main(["norm", "1,0,0", "0,1,0", "1,1,0"]) == 0
        out = capsys.readouterr().out
        assert "standard 3-norm = 0" in out

    def test_a_negative_leading_vector_after_the_separator(self, capsys):
        # -1,2,0 is a vector, not an option, with or without --; the norm is
        # even, so it prints the negated vector's value
        assert main(["norm", "--", "-1,2,0", "0,1,3"]) == 0
        value = capsys.readouterr().out.splitlines()[0]
        assert main(["norm", "1,-2,0", "0,1,3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == value
        assert main(["norm", "-1,2,0", "0,1,3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == value
        assert main(["norm", "-.5,2,0", "0,1,3"]) == 0

    def test_rectangle_area(self, capsys):
        assert main(["norm", "2,0,0", "0,3,0"]) == 0
        assert "standard 2-norm = 6" in capsys.readouterr().out

    def test_gram_matrix_printed(self, capsys):
        main(["norm", "2,0,0", "0,3,0"])
        out = capsys.readouterr().out
        assert "gram matrix:" in out
        assert "4" in out and "9" in out

    def test_malformed_vector_exits_2(self, capsys):
        assert main(["norm", "1,banana,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_mixed_lengths_exit_2(self):
        assert main(["norm", "1,0", "1,0,0"]) == 2

    def test_mixed_lengths_message(self, capsys):
        # the library names the first vector whose length is not the first's
        assert main(["norm", "1,0,0", "0,1"]) == 2
        assert capsys.readouterr().err == "error: vector length: expected 3, got 2\n"

    def test_arity_mismatch_with_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        assert main(["norm", "--config", cfg, "1,0,0", "0,1,0"]) == 2
        assert capsys.readouterr().err == "error: vector count: expected 3, got 2\n"

    @pytest.mark.parametrize(
        "doc, space_part",
        [
            ({"space": {"dim": 3, "arity": 2}, "frame": [[1, 0, 0], [2, 0, 0]]}, {"space": {"dim": 3, "arity": 2}}),
            ({"trials": 2.5}, {}),
        ],
        ids=["dependent-frame", "fractional-trials"],
    )
    def test_a_config_part_the_norm_does_not_read_is_ignored(self, tmp_path, capsys, doc, space_part):
        # the frame was built and the trials checked, and both exited 2
        assert main(["norm", "--config", write_config(tmp_path, space_part, "space.json"), "1,0,0", "0,1,0"]) == 0
        expected = capsys.readouterr()
        assert main(["norm", "--config", write_config(tmp_path, doc), "1,0,0", "0,1,0"]) == 0
        assert capsys.readouterr() == expected

    def test_a_bad_space_is_still_a_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 3.7, "arity": 2}})
        assert main(["norm", "--config", cfg, "1,0,0", "0,1,0"]) == 2
        assert capsys.readouterr() == ("", "error: bad config: dim 3.7 is not an integer\n")

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["norm", "2,0,0", "0,3,0", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "norm"
        assert doc["results"]["norm"] == 6.0
        assert doc["failures"] == []
        assert "digest" in doc


class TestQuotientCommand:
    def test_removed_first_basis_direction(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 5, "arity": 5}})
        assert main(["quotient", "--config", cfg, "-u", "1,0,0,0,0", "-s", "1"]) == 0
        out = capsys.readouterr().out
        assert "= 1" in out
        assert "decomposition residual = 0" in out

    def test_a_negative_leading_vector_attached_to_its_flag(self, tmp_path, capsys):
        # -u=-1,2,3 and -u -1,2,3 are one vector; the quotient norm is even,
        # so it prints the negated vector's output. A flag with no value is
        # still a usage error.
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 2}, "frame": [[1, 1, 0], [0, 1, 2]]})
        assert main(["quotient", "--config", cfg, "-u=-1,2,3", "-s", "1,2"]) == 0
        out = capsys.readouterr().out
        assert main(["quotient", "--config", cfg, "-u", "1,-2,-3", "-s", "1,2"]) == 0
        assert capsys.readouterr().out == out
        assert main(["quotient", "--config", cfg, "-u", "-1,2,3", "-s", "1,2"]) == 0
        assert capsys.readouterr().out == out
        assert main(["quotient", "--config", cfg, "-u", "-s", "1,2"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_vector_in_kept_span_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 4, "arity": 4}})
        assert main(["quotient", "--config", cfg, "-u", "0,1,1,0", "-s", "1"]) == 0
        assert "= 0" in capsys.readouterr().out

    def test_full_removal_sums_class1_terms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert out.count("class-1 term") == 3

    def test_csv_report(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        out = tmp_path / "quotient.csv"
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "1,2", "--format", "csv", "--output", str(out)]) == 0
        head, residual = out.read_text().split("residual,")
        assert head == "key,value\nclassm_norm,3.0\nclass1[1],1.0\nclass1[2],2.0\n"
        # the closed form against each term's own 3-norm: equal but for the
        # rounding of two determinant evaluations
        assert residual.endswith("\n") and abs(float(residual)) < 1e-12

    def test_residual_measures_the_closed_form_against_the_definition(self, tmp_path, monkeypatch):
        # each class-1 term taken by its definition 1e-3 too large moves the
        # residual by -2e-3 over the terms' scale: |u| = sqrt(14) times the
        # kept unit frame vectors' lengths, for each of the two terms
        norm = cli.standard_norm
        monkeypatch.setattr(cli, "standard_norm", lambda cfg, vs: norm(cfg, vs) + 1e-3)
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        out = tmp_path / "quotient.json"
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "1,2", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["residual"] == pytest.approx(-2e-3 / (2 * np.sqrt(14)))

    def test_a_zero_vector_has_residual_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        out = tmp_path / "quotient.json"
        assert main(["quotient", "--config", cfg, "-u", "0,0,0", "-s", "1,2", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["residual"] == 0.0

    def test_bad_indices_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "4"]) == 2
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "2,1"]) == 2

    def test_vector_length_message(self, capsys):
        assert main(["quotient", "-u", "1,0", "-s", "1"]) == 2
        assert capsys.readouterr().err == "error: vector length: expected 3, got 2\n"

    def test_bad_index_set_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 3}})
        assert main(["quotient", "--config", cfg, "-u", "1,2,3", "-s", "1,4"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: index set (1, 4) exceeds arity 3\n")


#: each subcommand with a flag it does not read; cover and verify write JSON
#: only, so a csv request is refused rather than ignored
UNREAD_FLAGS = [
    ["norm", "2,0,0", "0,3,0", "--seed", "1"],
    ["quotient", "-u", "1,0,0", "-s", "1", "--seed", "1"],
    ["cover", "--n", "5", "--m", "2", "--seed", "1"],
    ["demo", "counterexample", "--seed", "1"],
    ["cover", "--n", "5", "--m", "2", "--config", "cfg.json"],
    ["demo", "counterexample", "--config", "cfg.json"],
    ["cover", "--n", "5", "--m", "2", "--format", "csv"],
    ["verify", "covering", "--format", "csv"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[f"{a[0]}{a[-2]}" for a in UNREAD_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(argv + ["--output", str(out)]) == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


CSV_COMMANDS = [
    ["norm", "2,0,0", "0,3,0"],
    ["quotient", "-u", "1,2,3", "-s", "1,2"],
    ["demo", "counterexample", "--k", "3"],
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=[a[0] for a in CSV_COMMANDS])
def test_every_csv_value_parses_as_a_float(argv, tmp_path):
    # the norm report wrote its gram entries as numpy reprs, np.float64(4.0)
    out = tmp_path / "report.csv"
    assert main(argv + ["--format", "csv", "--output", str(out)]) == 0
    header, *rows = csv.reader(out.read_text().splitlines())
    assert header[-1] == "value" and rows
    for row in rows:
        float(row[-1])


class TestCoverCommand:
    def test_minimal_size_5_2(self, capsys):
        assert main(["cover", "--n", "5", "--m", "2"]) == 0
        assert "least number of class-2 norms for n=5: 3" in capsys.readouterr().out

    def test_selection_check(self, capsys):
        assert main(["cover", "--n", "5", "--m", "2", "--selection", "1,2;3,4"]) == 0
        assert "covers {1..5}: False" in capsys.readouterr().out

    def test_selection_of_another_subset_size_exit_2(self, capsys):
        # refused before anything is printed, so no partial report is left
        assert main(["cover", "--n", "5", "--m", "2", "--selection", "1,2,3;3,4,5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: selection subsets have size 3, expected 2\n"
        assert captured.out == ""

    def test_malformed_selection_exit_2(self, capsys):
        assert main(["cover", "--n", "5", "--m", "2", "--selection", "1,x"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad index set '1,x'")
        assert captured.out == ""

    def test_enumerate(self, capsys):
        assert main(["cover", "--n", "3", "--m", "2", "--enumerate"]) == 0
        assert "minimal covering families: 3" in capsys.readouterr().out

    def test_enumerate_guard_exit_2(self, capsys):
        assert main(["cover", "--n", "8", "--m", "2", "--enumerate"]) == 2
        assert capsys.readouterr().out == ""

    def test_bad_range_exit_2(self):
        assert main(["cover", "--n", "3", "--m", "4"]) == 2

    def test_bad_range_message(self, capsys):
        assert main(["cover", "--n", "5", "--m", "7"]) == 2
        assert capsys.readouterr().err == "error: need 1 <= m <= n, got m=7, n=5\n"

    def test_json_report(self, tmp_path):
        out = tmp_path / "cover.json"
        assert main(["cover", "--n", "4", "--m", "2", "--selection", "1,2;3,4", "--enumerate", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["command"], doc["inputs"], doc["failures"]) == ("cover", {"n": 4, "m": 2}, [])
        results = doc["results"]
        assert (results["minimal_cover_size"], results["covers"]) == (2, True)
        assert results["selection"] == {"n": 4, "subsets": [[1, 2], [3, 4]]}
        assert len(results["minimal_families"]) == 3


class TestVerifyCommand:
    def test_axioms_suite_passes(self, capsys):
        assert main(["verify", "axioms", "--trials", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_failures_are_printed_reported_and_exit_1(self, tmp_path, capsys):
        # at rel = 1e-300 every rounding gap of an equality check is a failure
        cfg = write_config(tmp_path, {"tolerances": {"rel": 1e-300}})
        out = tmp_path / "verify.json"
        assert main(["verify", "axioms", "--config", cfg, "--trials", "5", "--seed", "1", "--output", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        failures = doc["failures"]
        assert failures and doc["results"]["failure_count"] == len(failures)
        assert printed[:-1] == [f"FAIL {f['check']}: {f['witness']}" for f in failures]
        assert all(f["check"].startswith("axiom:") for f in failures)
        assert printed[-1] == f"verify axioms: {len(failures)} failure(s) across axioms (seed=1, trials=5)"

    def test_quotient_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 4, "arity": 3}, "trials": 10})
        assert main(["verify", "quotient", "--config", cfg, "--seed", "5"]) == 0

    def test_covering_suite_reports_minimal_size(self, capsys):
        assert main(["verify", "covering", "--trials", "5"]) == 0
        assert "minimal cover size for n=5, m=2: 3" in capsys.readouterr().out

    def test_equivalence_suites_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 4, "arity": 2}, "trials": 5})
        for suite in ("convergence", "boundedness", "cauchy"):
            assert main(["verify", suite, "--config", cfg, "--seed", "11"]) == 0

    def test_verify_all_builds_each_equivalence_table_once(self, tmp_path, monkeypatch):
        # 16 specs on 3 frames: 48 tables, read by all three equivalence
        # suites. The pinned bytes are those of the report when each suite
        # built its own tables
        built = []
        table = cli.equivalence_matrix

        def counting(*args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(cli, "equivalence_matrix", counting)
        out = tmp_path / "verify.json"
        assert main(["verify", "all", "--seed", "3", "--trials", "8", "--output", str(out)]) == 0
        assert len(built) == 48
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "24863912adbae2a08d93be41307a91759599401279f25ef467e80968a460924d"

    def test_verify_all_report_names_the_six_suites_in_order(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "all", "--seed", "0", "--trials", "8", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"] == {
            "suites": ["axioms", "quotient", "convergence", "boundedness", "cauchy", "covering"],
            "failure_count": 0,
        }
        assert doc["failures"] == []
        assert capsys.readouterr().out.splitlines()[-1] == (
            "verify all: 0 failure(s) across axioms, quotient, convergence, boundedness, cauchy, covering (seed=0, trials=8)"
        )

    @staticmethod
    def failing_run(tmp_path, capsys, suite: str, count: int, checks: set[str]) -> None:
        """`verify <suite>` under an injected fault: exit 1, and `count`
        failures, each printed as one FAIL line, each named by one of
        `checks`, and counted by the report's failure_count."""
        out = tmp_path / "verify.json"
        assert main(["verify", suite, "--seed", "3", "--trials", "4", "--output", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        failures = doc["failures"]
        assert doc["results"]["failure_count"] == len(failures) == count
        assert [line for line in printed if line.startswith("FAIL ")] == [f"FAIL {f['check']}: {f['witness']}" for f in failures]
        assert {f["check"] for f in failures} == checks
        assert printed[-1] == f"verify {suite}: {count} failure(s) across {suite} (seed=3, trials=4)"

    @pytest.mark.parametrize("suite, count", [("convergence", 24), ("boundedness", 12), ("cauchy", 24)])
    def test_a_sequence_suite_checks_each_table_against_its_answer(self, tmp_path, capsys, monkeypatch, suite, count):
        # every trace called zero: k e1 converges, is bounded and is Cauchy,
        # so every row of a table agrees, and a convergent row is Cauchy. 16
        # specs on 3 frames: the 12 divergent tables fail each question, and
        # the 12 oscillating ones convergence and cauchy
        monkeypatch.setattr(topology, "_zero_flags", lambda profiles, n: [True] * n)
        self.failing_run(tmp_path, capsys, suite, count, {f"{suite}:answer"})

    @pytest.mark.parametrize("shift, count", [(1, 42), (-1, 21)])
    def test_the_covering_suite_checks_the_claimed_least_size(self, tmp_path, capsys, monkeypatch, shift, count):
        # 21 shapes (n, m), n <= 6. One too large: a family of the true size
        # covers, and the enumerated ones are not of the claimed size. One
        # too small (0 when m = n, which is no error): only the sizes differ
        size = cli.minimal_cover_size
        monkeypatch.setattr(cli, "minimal_cover_size", lambda n, m: size(n, m) + shift)
        checks = {"covering:minimal_families"} | ({"covering:smaller_family_covers"} if shift > 0 else set())
        self.failing_run(tmp_path, capsys, "covering", count, checks)

    def test_the_covering_suite_needs_a_minimal_family(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_minimal_covers", lambda n, m: [])
        self.failing_run(tmp_path, capsys, "covering", 21, {"covering:minimal_families"})

    def test_the_covering_suite_checks_the_r5_verdicts(self, tmp_path, capsys, monkeypatch):
        demo = cli.counterexample_r5

        def swapped(k_max):
            record = demo(k_max)
            return dataclasses.replace(
                record, noncovering_verdict=record.covering_verdict, covering_verdict=record.noncovering_verdict
            )

        monkeypatch.setattr(cli, "counterexample_r5", swapped)
        self.failing_run(tmp_path, capsys, "covering", 2, {"covering:counterexample"})

    def test_the_quotient_suite_checks_coset_invariance(self, tmp_path, capsys, monkeypatch):
        # n = 2 by default: s = {1}, {2}, {1,2}, {1,2}, one coset each at
        # trials 4 // 4; the suite checks each s's cosets in one stack
        monkeypatch.setattr(cli, "_coset_gaps", lambda frame, norm, s, us, coefficients: [1.0] * len(us))
        self.failing_run(tmp_path, capsys, "quotient", 4, {"quotient:coset_invariance"})

    def test_corrupted_frame_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"space": {"dim": 3, "arity": 2}, "frame": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]},
        )
        assert main(["verify", "all", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "config must be a mapping, got [1, 2]"),
            ({"space": [3, 2]}, "space must be a mapping, got [3, 2]"),
            ({"space": {"dim": 3.7, "arity": 2}}, "dim 3.7 is not an integer"),
            ({"space": {"dim": 3, "arity": 2.5}}, "arity 2.5 is not an integer"),
            ({"space": {"dim": 3, "arity": 2}, "trials": 10.5}, "trials 10.5 is not an integer"),
            ({"space": {"dim": 3, "arity": 2}, "seed": 1.5}, "seed 1.5 is not an integer"),
            ({"space": {"dim": "3", "arity": 2}}, "dim '3' is not an integer"),
            ({"space": {"dim": "3.0", "arity": 2}}, "dim '3.0' is not an integer"),
            ({"space": {"dim": True}}, "dim True is not an integer"),
            ({"space": {"dim": 3, "arity": 2}, "trials": "10"}, "trials '10' is not an integer"),
        ],
        ids=["list", "space-list", "dim", "arity", "trials", "seed", "dim-str", "dim-str-float", "dim-bool", "trials-str"],
    )
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, doc, message):
        # a list raised AttributeError, and sizes were truncated (dim 3.7 ran as d = 3)
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "axioms", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: bad config: {message}\n"

    def test_bad_trials_exit_2(self):
        assert main(["verify", "axioms", "--trials", "0"]) == 2

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2


class TestDemoCommand:
    def test_trace_rows(self, capsys):
        assert main(["demo", "counterexample", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "1   " in out and "2   " in out and "3   " in out
        assert "false conclusion" in out
        assert "diverges" in out

    def test_single_row(self, capsys):
        assert main(["demo", "counterexample", "--k", "1"]) == 0

    def test_k_zero_exit_2(self):
        assert main(["demo", "counterexample", "--k", "0"]) == 2

    def test_csv_trace_round_trips(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["demo", "counterexample", "--k", "5", "--output", str(out), "--format", "csv"]) == 0
        points = parse_trace_csv(out.read_text())
        assert points == counterexample_r5(k_max=5).traces

    def test_json_report(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "counterexample", "--k", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["noncovering"]["verdict"] == "converges"
        assert doc["results"]["covering"]["verdict"] == "diverges"

    def test_explicit_json_format_is_the_default_report(self, tmp_path):
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["demo", "counterexample", "--k", "3", "--output", str(default)]) == 0
        assert main(["demo", "counterexample", "--k", "3", "--format", "json", "--output", str(explicit)]) == 0
        assert explicit.read_bytes() == default.read_bytes()
        doc = json.loads(explicit.read_text())
        assert (doc["command"], doc["inputs"], doc["failures"]) == ("demo.counterexample", {"k": 3}, [])
        assert doc["results"]["rows"] == [list(row) for row in counterexample_r5(k_max=3).rows]


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 2}, "seed": 9, "trials": 15})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "axioms", "--config", cfg, "--output", str(a)]) == 0
        assert main(["verify", "axioms", "--config", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shared_parser_matches_a_fresh_one(self, tmp_path, capsys):
        # main reuses one parser; a call that errors in it (exit 2) must not
        # change what the next call returns or writes
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 2}, "seed": 9, "trials": 5})
        out = tmp_path / "report.json"
        argv = ["verify", "axioms", "--config", cfg, "--output", str(out)]
        build_parser.cache_clear()
        fresh_code = main(argv)
        fresh = out.read_bytes()
        assert build_parser() is build_parser()
        for bad in (["verify", "nonexistent-suite"], ["norm", "--format", "xml", "1,0,0"]):
            assert main(bad) == 2
            assert main(argv) == fresh_code == 0
            assert out.read_bytes() == fresh
        capsys.readouterr()

    def test_env_var_overrides_seed(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"space": {"dim": 3, "arity": 2}, "seed": 9})
        monkeypatch.setenv("NNORMKIT_SEED", "1234")
        assert main(["verify", "axioms", "--config", cfg, "--trials", "5", "--seed", "7"]) == 0
        assert "seed=1234" in capsys.readouterr().out

    def test_env_var_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("NNORMKIT_SEED", "not-a-number")
        assert main(["verify", "axioms", "--trials", "5"]) == 2

    @pytest.mark.parametrize("source", ["config", "flag", "env"])
    @pytest.mark.parametrize("suite", ["axioms", "covering"])
    def test_a_negative_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch, source, suite):
        # axioms reported numpy's "expected non-negative integer", and
        # covering, which draws nothing, ran and exited 0
        argv = ["verify", suite, "--trials", "5", "--output", str(tmp_path / "verify.json")]
        if source == "config":
            argv += ["--config", write_config(tmp_path, {"seed": -1})]
        elif source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("NNORMKIT_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not (tmp_path / "verify.json").exists()


class TestConfigHandling:
    def test_missing_file_exit_2(self):
        assert main(["norm", "1,0", "0,1", "--config", "/nonexistent/net.json"]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["norm", "1,0", "0,1", "--config", str(path)]) == 2

    def test_custom_metric_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"space": {"dim": 2, "arity": 2, "metric": [[2.0, 0.0], [0.0, 1.0]]}},
        )
        assert main(["norm", "--config", cfg, "1,0", "0,1"]) == 0
        # sqrt(det diag(2,1)) = sqrt(2)
        assert "1.41421356237" in capsys.readouterr().out

    def test_indefinite_metric_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"space": {"dim": 2, "arity": 2, "metric": [[1.0, 0.0], [0.0, -1.0]]}})
        assert main(["norm", "--config", cfg, "1,0", "0,1"]) == 2
