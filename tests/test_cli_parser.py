"""``cli.main`` builds the root parser and only the subparser that its first
argument names, and answers every argument list as the full parser does.

The one-subparser path is compared with ``build_parser().parse_args`` on
the running interpreter, not with stored text: argparse's wording changes
between Python versions.
"""

import argparse

import pytest

from rankkit import cli

COMMANDS = ["filter", "select", "retrieve", "rerank", "distill", "eval"]

# each command's required flags, with values that parse; no file is read,
# since every argument list below ends in a usage error or in --help
REQUIRED = {
    "filter": ["--query-embeddings", "q.jsonl", "--doc-embeddings", "d.jsonl", "--out", "o"],
    "select": ["--embeddings", "d.jsonl", "--out", "o"],
    "retrieve": ["--query-embeddings", "q.jsonl", "--doc-embeddings", "d.jsonl", "--out", "o"],
    "rerank": ["--run", "r.run", "--queries", "q.jsonl", "--corpus", "c.jsonl", "--out", "o"],
    "distill": ["--queries", "q.jsonl", "--query-embeddings", "q.jsonl",
                "--doc-embeddings", "d.jsonl", "--out", "o"],
    "eval": ["--run", "r.run", "--qrels", "qrels.txt"],
}

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["nope"],
    ["retr"],  # an abbreviated command
    ["--bogus"],
    *([cmd, "--help"] for cmd in COMMANDS),
    *([cmd] for cmd in COMMANDS),  # no required flag
    ["eval", "--run", "r.run"],  # one required flag missing
    ["eval", "--run"],  # a flag without its value
    ["select", *REQUIRED["select"], "--k", "x"],
    ["filter", *REQUIRED["filter"], "--quality-threshold", "x"],
    ["rerank", *REQUIRED["rerank"], "--timeout", "x"],  # a parent parser's type
    ["select", *REQUIRED["select"], "--algorithm", "nope"],
    ["eval", *REQUIRED["eval"], "--gain", "cubic"],
    ["rerank", *REQUIRED["rerank"], "--backend", "nope"],  # a parent parser's choices
    ["rerank", *REQUIRED["rerank"], "--tag", "a b"],
    ["rerank", *REQUIRED["rerank"], "--listwise", "--pairwise"],
    ["distill", "--help", "--bogus"],
    # unrecognized arguments, which the root parser reports with its usage
    *([cmd, *REQUIRED[cmd], "--no-such-flag"] for cmd in COMMANDS),
    ["eval", *REQUIRED["eval"], "extra"],
]


def full_parser_outcome(argv, capsys):
    """The exit code, stdout and stderr of ``argv`` through the parser of
    every command, as ``main`` maps them."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return (cli.EXIT_OK if exc.value.code == 0 else cli.EXIT_FATAL), out, err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_answers_as_the_full_parser(argv, capsys):
    expected = full_parser_outcome(argv, capsys)
    code = cli.main(list(argv))
    assert (code, *capsys.readouterr()) == expected


@pytest.fixture
def built(monkeypatch):
    """The names of the subparsers added while the test runs."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_only_its_own_subparser(command, built, capsys):
    assert cli.main([command, "--help"]) == 0
    assert built == [command]
    assert capsys.readouterr().out.startswith(f"usage: rankkit {command} ")


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["--bogus", "eval"]])
def test_no_command_first_builds_every_subparser(argv, built, capsys):
    cli.main(argv)
    assert built == COMMANDS


def test_build_parser_builds_every_subparser(built):
    cli.build_parser()
    assert built == COMMANDS


def test_a_command_runs_its_own_function(monkeypatch):
    """The subparser names the module's ``cmd_*`` when it is built, so a
    rebound command function is the one that runs."""
    ran = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: ran.append(args.run))
    assert cli.main(["eval", "--run", "r.run", "--qrels", "qrels.txt"]) == 0
    assert ran == ["r.run"]


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: command"),
    (["nope"], "error: argument command: invalid choice: "),
])
def test_the_full_parser_names_the_command_argument(argv, message, capsys):
    """Only a command's own parser lists the commands as its metavar: the
    full parser's errors name the argument ``command``."""
    assert cli.main(argv) == cli.EXIT_FATAL
    assert message in capsys.readouterr().err
