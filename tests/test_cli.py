"""Tests for the interactive shell / script runner."""

import pytest

from repro.cli import Shell


@pytest.fixture()
def shell_and_output():
    lines = []
    shell = Shell(write=lines.append)
    return shell, lines


def text_of(lines):
    return "\n".join(str(line) for line in lines)


class TestStatements:
    def test_ddl_and_query(self, shell_and_output):
        shell, lines = shell_and_output
        shell.run_script(
            "CREATE TYPE T { id: int, v: int };\n"
            "CREATE DATASET D(T) PRIMARY KEY id;\n"
        )
        shell.db.load("D", [{"id": i, "v": i * 2} for i in range(5)])
        shell.run_statement("SELECT d.id, d.v FROM D d ORDER BY d.id")
        output = text_of(lines)
        assert "d.id" in output
        assert "8" in output  # v of id 4

    def test_multiline_statement_buffering(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed("CREATE TYPE T {")
        shell.feed("  id: int")
        shell.feed("};")
        shell.feed("CREATE DATASET D(T) PRIMARY KEY id;")
        assert shell.db.catalog.has_dataset("D")

    def test_error_reported_not_raised(self, shell_and_output):
        shell, lines = shell_and_output
        shell.run_statement("SELECT x FROM NoSuchDataset n")
        assert "error:" in text_of(lines)

    def test_parse_error_reported(self, shell_and_output):
        shell, lines = shell_and_output
        shell.run_statement("SELEC typo")
        assert "error:" in text_of(lines)

    def test_row_limit(self, shell_and_output):
        shell, lines = shell_and_output
        shell.run_script(
            "CREATE TYPE T { id: int };\nCREATE DATASET D(T) PRIMARY KEY id;\n"
        )
        shell.db.load("D", [{"id": i} for i in range(100)])
        shell.run_statement("SELECT d.id FROM D d")
        assert "more rows" in text_of(lines)


class TestDotCommands:
    def test_mode_switch(self, shell_and_output):
        shell, lines = shell_and_output
        assert shell.feed(".mode ontop")
        assert shell.mode == "ontop"
        shell.feed(".mode bogus")
        assert shell.mode == "ontop"
        assert "usage" in text_of(lines)

    def test_dedup_switch(self, shell_and_output):
        shell, _ = shell_and_output
        shell.feed(".dedup elimination")
        assert shell.dedup == "elimination"
        shell.feed(".dedup default")
        assert shell.dedup is None

    def test_timing_switch(self, shell_and_output):
        shell, _ = shell_and_output
        shell.feed(".timing off")
        assert shell.timing is False

    def test_quit(self, shell_and_output):
        shell, _ = shell_and_output
        assert shell.feed(".quit") is False
        assert shell.feed(".exit") is False

    def test_help(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed(".help")
        assert ".mode" in text_of(lines)

    def test_unknown_command(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed(".frobnicate")
        assert "unknown command" in text_of(lines)

    def test_datasets_listing(self, shell_and_output):
        shell, lines = shell_and_output
        shell.run_script(
            "CREATE TYPE T { id: int };\nCREATE DATASET D(T) PRIMARY KEY id;\n"
        )
        shell.feed(".datasets")
        assert "D" in text_of(lines)

    def test_demo_loads_and_queries(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed(".demo spatial")
        assert shell.db.catalog.has_dataset("Parks")
        shell.run_statement(
            "SELECT COUNT(1) AS c FROM Parks p, Wildfires w "
            "WHERE ST_Contains(p.boundary, w.location)"
        )
        assert "error" not in text_of(lines)

    def test_demo_joins_listed(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed(".demo text")
        shell.feed(".joins")
        assert "similarity_jaccard" in text_of(lines)


class TestScriptRunner:
    def test_main_with_script_file(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "demo.sql"
        script.write_text(
            "CREATE TYPE T { id: int };\n"
            "CREATE DATASET D(T) PRIMARY KEY id;\n"
            "SELECT COUNT(1) AS c FROM D d;\n"
        )
        assert main([str(script)]) == 0
        captured = capsys.readouterr()
        assert "c" in captured.out
        # A flag counts wherever it stands, after the script too.
        assert main([str(script), "--demo", "interval"]) == 0
        assert "loaded the interval demo" in capsys.readouterr().out

    def test_main_with_missing_script(self, capsys):
        from repro.cli import main

        assert main(["/no/such/file.sql"]) == 1
        assert "cannot read" in capsys.readouterr().err
        # An unknown flag is reported as one, not as a script to open.
        assert main(["--bogus"]) == 1
        err = capsys.readouterr().err
        assert "--bogus" in err and "cannot read" not in err
        assert len(err.splitlines()) == 1

    def test_explain_in_shell(self, shell_and_output):
        shell, lines = shell_and_output
        shell.feed(".demo interval")
        shell.run_statement(
            "EXPLAIN SELECT COUNT(1) AS c FROM NYCTaxi n1, NYCTaxi n2 "
            "WHERE overlapping_interval(n1.ride_interval, n2.ride_interval)"
        )
        assert "FUDJ JOIN" in text_of(lines)


class TestPersistenceCommands:
    def test_save_and_open(self, tmp_path):
        lines = []
        shell = Shell(write=lines.append)
        shell.run_script(
            "CREATE TYPE T { id: int };\nCREATE DATASET D(T) PRIMARY KEY id;\n"
        )
        shell.db.load("D", [{"id": i} for i in range(7)])
        shell.feed(f".save {tmp_path / 'db'}")
        assert "saved" in "\n".join(map(str, lines))

        fresh = Shell(write=lines.append)
        fresh.feed(f".open {tmp_path / 'db'}")
        assert fresh.db.catalog.has_dataset("D")
        assert len(fresh.db.cluster.dataset("D")) == 7

    def test_open_missing_reports_error(self):
        lines = []
        shell = Shell(write=lines.append)
        shell.feed(".open /no/such/dir")
        assert any("error:" in str(line) for line in lines)

    def test_usage_messages(self):
        lines = []
        shell = Shell(write=lines.append)
        shell.feed(".save")
        shell.feed(".open")
        text = "\n".join(map(str, lines))
        assert "usage: .save" in text
        assert "usage: .open" in text


class TestInteractiveLoop:
    def test_stdin_driven_session(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            input=(
                "CREATE TYPE T { id: int };\n"
                "CREATE DATASET D(T) PRIMARY KEY id;\n"
                "SELECT COUNT(1) AS c FROM D d;\n"
                ".datasets\n"
                ".quit\n"
            ),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-1000:]
        assert "FUDJ shell" in result.stdout
        assert "D  (0 records)" in result.stdout

    def test_eof_exits_cleanly(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            input="", capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0

    def test_demo_flag(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--demo", "interval"],
            input=".joins\n.quit\n",
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "overlapping_interval" in result.stdout
