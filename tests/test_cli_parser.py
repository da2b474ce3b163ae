"""The parser narrowed to the invoked command against the whole parser.

main builds only the subparser of the command it finds in argv.  For every
command, a valid argv must give the same Namespace from both parsers, and a
missing required argument, a bad integer or a bad choice the same exit
code 2 and the same stderr.  Help, an empty argv and an unknown command
still go to the whole parser and list every command.
"""

import argparse

import pytest

from gfrob import cli
from gfrob.cli import COMMANDS, build_parser, invoked_command, main

VALID = {
    "group": ["group", "--group", "g.json"],
    "groupoid": ["groupoid", "--group", "g.json", "--n", "3"],
    "braidize": ["braidize", "--module", "m.json", "--tensor", "t.json"],
    "br-basis": ["br-basis", "--module", "m.json", "--n", "2"],
    "check-gfa": ["check-gfa", "--algebra", "a.json"],
    "wdvv": ["wdvv", "--potential", "p.json", "--metric", "e.json"],
    "check-pre-gfm": ["check-pre-gfm", "--module", "m.json", "--metric", "e.json", "--potential", "p.json"],
    "assemble-z2": ["assemble-z2", "--input", "i.json"],
    "potential": ["potential", "D", "4"],
    "flat-coords": ["flat-coords", "5"],
    "construct-z2": ["construct-z2", "4"],
    "verify-paper": ["verify-paper"],
}

INVALID = {
    "missing required": ["groupoid", "--group", "g.json"],
    "missing positional": ["potential", "A"],
    "bad int option": ["br-basis", "--module", "m.json", "--n", "two"],
    "bad int positional": ["construct-z2", "x"],
    "bad choice": ["potential", "E", "4"],
    "bad format choice": ["wdvv", "--potential", "p.json", "--metric", "e.json", "--format", "xml"],
    "bad top-level format": ["--format", "xml", "group", "--group", "g.json"],
    "unrecognized argument": ["verify-paper", "--n", "2"],
}


def parse(capsys, parser, argv):
    """(Namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


def test_table_covers_every_command():
    assert sorted(COMMANDS) == sorted(VALID)


@pytest.mark.parametrize("prefix", [[], ["--format", "text"], ["--format=json"]])
@pytest.mark.parametrize("command", sorted(VALID))
def test_narrowed_parser_gives_the_same_namespace(capsys, command, prefix):
    argv = prefix + VALID[command]
    assert invoked_command(argv) == command
    narrowed = parse(capsys, build_parser(command), argv)
    assert isinstance(narrowed[0], argparse.Namespace)
    assert narrowed == parse(capsys, build_parser(), argv)


@pytest.mark.parametrize("case", sorted(INVALID))
def test_narrowed_parser_gives_the_same_error(capsys, case):
    argv = INVALID[case]
    command = invoked_command(argv)
    assert command is not None
    narrowed = parse(capsys, build_parser(command), argv)
    assert narrowed[0] == 2 and narrowed[2].startswith("usage: gfrob")
    assert narrowed == parse(capsys, build_parser(), argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == narrowed[2]


@pytest.mark.parametrize("command", sorted(VALID))
def test_command_help_is_the_same(capsys, command):
    argv = [command, "-h"]
    assert parse(capsys, build_parser(command), argv) == parse(capsys, build_parser(), argv)


@pytest.mark.parametrize(
    "argv, stream",
    [(["-h"], "out"), (["--help", "group"], "out"), ([], "err"), (["frobnicate"], "err"), (["-x"], "err")],
)
def test_whole_parser_lists_every_command(capsys, argv, stream):
    assert invoked_command(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == (0 if stream == "out" else 2)
    out, err = capsys.readouterr()
    text = out if stream == "out" else err
    assert all(name in text for name in COMMANDS)
    assert (out, err) == parse(capsys, build_parser(), argv)[1:]


def test_a_call_builds_two_parsers_and_keeps_none(capsys, monkeypatch):
    """One top-level parser and one subparser per call, and no parser kept afterwards."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        built.clear()
        assert main(["potential", "A", "2"]) == 0
        assert len(built) == 2
    capsys.readouterr()
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(cli).values())
