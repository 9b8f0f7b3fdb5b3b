"""The README's examples run as written.

The Library block is executed and each printed line compared with the
`# ...` line the README gives for it.  Each `$ filtrate ...` line is run
through `cli.main`; it must exit 0, and every complete `"key": value`
fragment of the response shown under it must appear in the report.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import filtrate.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The bodies of the fenced blocks opened with ```<language>, in order."""
    blocks = []
    fence = None  # the language of the open block
    for line in README.splitlines(keepends=True):
        if not line.startswith("```"):
            if fence is not None:
                body.append(line)
        elif fence is None:
            fence, body = line[3:].strip(), []
        else:
            if fence == language:
                blocks.append("".join(body))
            fence = None
    return blocks


def _examples() -> list[tuple[str, str]]:
    """(command line, response text) for each `$ filtrate` line."""
    out = []
    for block in _blocks(""):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, response = chunk.partition("\n")
            out.append((command, response))
    return out


def _fragments(response: str) -> list[str]:
    """Every `"key": value` whose value is whole JSON, as json.dumps writes it."""
    decoder = json.JSONDecoder()
    out = []
    for match in re.finditer(r'"([^"\\]+)":\s*', response):
        try:
            value, _ = decoder.raw_decode(response, match.end())
        except json.JSONDecodeError:
            continue  # cut short by "..." in the README
        out.append(json.dumps({match.group(1): value})[1:-1])
    return out


def test_library_block_prints_what_it_shows():
    (block,) = _blocks("python")
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    assert printed.getvalue().splitlines() == expected


def test_command_line_examples_report_what_they_show(capsys):
    examples = _examples()
    assert len(examples) == 6
    for command, response in examples:
        argv = shlex.split(command)
        assert argv[0] == "filtrate"
        assert cli.main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        fragments = _fragments(response)
        assert fragments, command
        for fragment in fragments:
            assert fragment in out, (command, fragment)
