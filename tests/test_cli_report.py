"""Tests for the CLI (python -m repro) and the report formatting."""

import argparse

import pytest

from repro.__main__ import build_parser, main
from repro.lattester.report import format_value, table


class TestReportFormatting:
    def test_format_value_floats(self):
        assert format_value(1.234) == "1.23"
        assert format_value(1234.5) == "1234"
        assert format_value(float("nan")) == "nan"

    def test_format_value_passthrough(self):
        assert format_value("x") == "x"
        assert format_value(7) == "7"

    def test_table_alignment(self):
        text = table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_table_title(self):
        text = table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig19" in out

    def test_guidelines(self, capsys):
        assert main(["guidelines"]) == 0
        assert "Best practices" in capsys.readouterr().out

    def test_audit_clean_plan(self, capsys):
        rc = main(["audit", "--access", "4096", "--pattern", "seq"])
        assert rc == 0
        assert "ship it" in capsys.readouterr().out

    def test_audit_bad_plan_nonzero_exit(self, capsys):
        rc = main(["audit", "--access", "64", "--threads", "24",
                   "--remote", "--mixed"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "G1" in out and "G3" in out and "G4" in out

    def test_run_dispatches_experiment(self, capsys):
        rc = main(["run", "fig10"])
        assert rc == 0
        assert "XPBuffer" in capsys.readouterr().out

    def test_unknown_figure_exits_2_with_figure_list(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err
        assert "fig2" in err and "fig19" in err

    def test_unknown_verb_lists_exactly_the_parsers_verbs(self, capsys):
        parser = build_parser()
        verbs = next(action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
        verbs.add_parser("extra")
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["nope"])
        assert exc.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("valid commands: ")]
        assert lines == ["valid commands: " + ", ".join(verbs.choices)]
        assert list(verbs.choices)[-1] == "extra"

    def test_unknown_argument_exits_2_with_verb_list(self, capsys):
        assert main(["list", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert "valid commands: list, run, trace, sweep, serve" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestViolationFormatters:
    def test_chaos_violation_opens_with_its_cell(self):
        from repro.chaos_serve import format_violation
        violation = {"kind": "garbage-value", "key": "k1", "observed": "x",
                     "legal": ["y"], "window": []}
        assert format_violation(violation).splitlines()[0] == \
            "garbage-value key=k1 observed=x"
        cell = {"workload": "ycsb-a", "substrate": "lsm",
                "scenario": "power-fail", "mode": "closed"}
        lines = format_violation(dict(violation, cell=cell)).splitlines()
        assert lines == ["ycsb-a/lsm/power-fail/closed: garbage-value "
                         "key=k1 observed=x", "  legal: y"]

    def test_pmcheck_violation_reads_its_cell(self):
        from repro.pmcheck import format_violation
        violation = {"kind": "ack-before-fence", "site": "wal.py:append:1",
                     "ns": None, "ts": 5.0, "note": "n",
                     "cell": {"workload": "ycsb-a", "substrate": "lsm",
                              "naive": True}}
        assert format_violation(violation).splitlines()[0] == \
            "ycsb-a/lsm(naive): ack-before-fence at wal.py:append:1"

    def test_pmcheck_cell_line_uses_the_summary_tally(self):
        from repro.__main__ import _pmcheck_cell_line
        rec = {"workload": "ycsb-a", "substrate": "lsm",
               "served": {"ops": 320},
               "pmcheck": {"total": 3, "kinds": {"ack-before-fence": 3}}}
        assert _pmcheck_cell_line(rec) == \
            "ycsb-a  lsm      ops=320   3 violations (ack-before-fence x3)"
        rec["pmcheck"] = {"total": 0, "kinds": {}}
        assert _pmcheck_cell_line(rec).endswith("ops=320   clean")
