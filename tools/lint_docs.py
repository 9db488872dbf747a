#!/usr/bin/env python
"""Docs linter: keep the documented surface honest.

Ten checks over ``README.md`` and ``docs/*.md``:

1. **Links resolve.** Every relative markdown link (and image) points at
   a file or directory that exists; fragment-only links and absolute
   URLs are skipped.
2. **Dot-commands are documented.** Every ``.``-prefixed command the
   shell accepts (parsed from ``repro.cli``'s help text) is mentioned
   somewhere in the docs.
3. **Database kwargs are documented.** Every keyword of the public
   ``Database(...)`` constructor (via ``inspect.signature``) is
   mentioned somewhere in the docs.
4. **sys tables are documented.** Every virtual table registered in
   ``repro.engine.telemetry.SYS_TABLES`` is mentioned somewhere in the
   docs.
5. **CLI flags are documented.** Every ``--flag`` the shell advertises
   in its usage text (``repro.cli``'s module docstring) is mentioned
   somewhere in the docs.
6. **Execution modes are documented.** Every mode in
   ``repro.engine.batch.EXECUTION_MODES`` appears as a literal
   ``execution="<mode>"`` usage somewhere in the docs.
7. **Optimizer modes are documented.** Every mode in
   ``repro.optimizer.OPTIMIZER_MODES`` appears as a literal
   ``optimizer="<mode>"`` usage somewhere in the docs.
8. **Environment overrides are documented.** Every ``FUDJ_*``
   environment variable the source reads via ``os.environ`` is
   mentioned somewhere in the docs.
9. **Event kinds are documented.** Every event ``kind`` the engine can
   emit (``repro.engine.events.EVENT_KINDS`` — ``emit()`` rejects
   anything outside the registry, so the registry *is* the emitted
   surface) appears in ``docs/observability.md``.
10. **The serving surface is documented.** ``docs/serving.md`` is the
    session-server reference: every server-side event kind
    (``server.*`` / ``session.*`` / ``cancel.*``) must appear there,
    and every registered ``sys.*`` table must be documented in a
    ``docs/*.md`` page (a mention only in the repo ``README.md`` does
    not count as documentation).

Run with ``make lint-docs`` (CI runs it on every push).  Exits nonzero
with one line per violation.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Markdown links/images: [text](target) — targets split off any #fragment.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: A dot-command line in the shell help: "    .name arg-spec   description".
_DOT_COMMAND = re.compile(r"^\s{4}(\.[a-z]+)\s", re.MULTILINE)
#: A CLI flag in the shell's usage text: "--memory-budget", "--trace", ...
_CLI_FLAG = re.compile(r"--[a-z][a-z-]+")


def doc_files() -> list:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(files: list) -> list:
    problems = []
    for path in files:
        for match in _LINK.finditer(path.read_text()):
            target = match.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def shell_dot_commands() -> set:
    from repro import cli

    commands = set(_DOT_COMMAND.findall(cli.__doc__))
    # .exit is an undocumented alias of .quit; hold the docs to the
    # advertised surface.
    return commands


def cli_flags() -> set:
    from repro import cli

    return set(_CLI_FLAG.findall(cli.__doc__))


def database_kwargs() -> set:
    from repro.database import Database

    params = inspect.signature(Database.__init__).parameters
    return {name for name in params if name != "self"}


def sys_tables() -> set:
    from repro.engine.telemetry import SYS_TABLES

    return set(SYS_TABLES)


def execution_modes() -> tuple:
    from repro.engine.batch import EXECUTION_MODES

    return EXECUTION_MODES


def check_execution_modes(files: list) -> list:
    """Every execution granularity must be shown in its call form.

    Plain substring search, not :func:`check_mentions` — the needles end
    in a closing quote, where a ``\\b`` word boundary never matches."""
    corpus = "\n".join(path.read_text() for path in files)
    problems = []
    for mode in execution_modes():
        literal = f'execution="{mode}"'
        if literal not in corpus:
            problems.append(f"execution mode {literal} is not documented "
                            "in README.md or docs/")
    return problems


def optimizer_modes() -> tuple:
    from repro.optimizer import OPTIMIZER_MODES

    return OPTIMIZER_MODES


def check_optimizer_modes(files: list) -> list:
    """Every optimizer mode must be shown in its call form (plain
    substring search, as in :func:`check_execution_modes`)."""
    corpus = "\n".join(path.read_text() for path in files)
    problems = []
    for mode in optimizer_modes():
        literal = f'optimizer="{mode}"'
        if literal not in corpus:
            problems.append(f"optimizer mode {literal} is not documented "
                            "in README.md or docs/")
    return problems


#: os.environ reads of a FUDJ_* variable anywhere in src/.
_ENV_READ = re.compile(r"environ(?:\.get)?\(\s*[\"'](FUDJ_[A-Z_]+)[\"']")


def env_vars() -> set:
    names = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        names.update(_ENV_READ.findall(path.read_text()))
    return names


def event_kinds() -> set:
    from repro.engine.events import EVENT_KINDS

    return set(EVENT_KINDS)


def check_event_kinds() -> list:
    """Every emittable event kind must appear in the observability doc
    specifically — that page is the event-log reference."""
    doc = REPO / "docs" / "observability.md"
    corpus = doc.read_text() if doc.exists() else ""
    problems = []
    for kind in sorted(event_kinds()):
        if kind not in corpus:
            problems.append(f"event kind {kind!r} is not documented in "
                            "docs/observability.md")
    return problems


#: Event kinds emitted by the session server: the serving-doc surface.
_SERVING_KIND_PREFIXES = ("server.", "session.", "cancel.")


def check_serving_surface() -> list:
    """Check #10: ``docs/serving.md`` documents every server-side
    event kind, and every ``sys.*`` table is documented inside
    ``docs/`` proper (not just the repo README)."""
    problems = []
    serving = REPO / "docs" / "serving.md"
    serving_corpus = serving.read_text() if serving.exists() else ""
    if not serving_corpus:
        problems.append("docs/serving.md is missing — the session "
                        "server has no reference page")
    for kind in sorted(event_kinds()):
        if kind.startswith(_SERVING_KIND_PREFIXES):
            if kind not in serving_corpus:
                problems.append(f"server event kind {kind!r} is not "
                                "documented in docs/serving.md")
    docs_corpus = "\n".join(path.read_text() for path in
                            sorted((REPO / "docs").glob("*.md")))
    for table in sorted(sys_tables()):
        if not re.search(re.escape(table) + r"\b", docs_corpus):
            problems.append(f"sys table {table!r} is not documented in "
                            "any docs/*.md page")
    return problems


def check_mentions(files: list, needles: set, what: str) -> list:
    corpus = "\n".join(path.read_text() for path in files)
    problems = []
    for needle in sorted(needles):
        # Word-ish match: the token must appear verbatim (dot-commands
        # include their leading dot; kwargs are plain identifiers).
        if not re.search(re.escape(needle) + r"\b", corpus):
            problems.append(f"{what} {needle!r} is not documented in "
                            "README.md or docs/")
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    files = doc_files()
    if len(files) < 2:
        print("lint-docs: no docs found — is the repo layout intact?")
        return 1
    problems = []
    problems += check_links(files)
    problems += check_mentions(files, shell_dot_commands(), "dot-command")
    problems += check_mentions(files, database_kwargs(), "Database kwarg")
    problems += check_mentions(files, sys_tables(), "sys table")
    problems += check_mentions(files, cli_flags(), "CLI flag")
    problems += check_execution_modes(files)
    problems += check_optimizer_modes(files)
    problems += check_mentions(files, env_vars(), "environment variable")
    problems += check_event_kinds()
    problems += check_serving_surface()
    for problem in problems:
        print(f"lint-docs: {problem}")
    if problems:
        print(f"lint-docs: {len(problems)} problem(s)")
        return 1
    print(f"lint-docs: {len(files)} files clean "
          f"({len(shell_dot_commands())} dot-commands, "
          f"{len(database_kwargs())} Database kwargs, "
          f"{len(sys_tables())} sys tables, "
          f"{len(cli_flags())} CLI flags, "
          f"{len(execution_modes())} execution modes, "
          f"{len(optimizer_modes())} optimizer modes, "
          f"{len(env_vars())} env vars, "
          f"{len(event_kinds())} event kinds checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
