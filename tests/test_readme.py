"""The README's examples are current: its Python examples import only names
that exist, its "Library use" example runs, its `podwave` command lines
parse to a valid configuration, and its options table is RunConfig's."""

import ast
import os
import re
import shlex
from dataclasses import fields

from podwave import cli
from podwave.config import RunConfig, make_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def blocks(language):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), flags=re.M | re.S)


def test_readme_imports_resolve():
    imports = [node for block in blocks("python") for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(isinstance(node, ast.ImportFrom) and node.module.startswith("podwave")
               for node in imports)
    for node in imports:
        exec(compile(ast.Module(body=[node], type_ignores=[]), "<README python block>", "exec"), {})


def test_readme_library_example_runs(capsys):
    """The "Library use" example runs as written, so a changed signature or
    return shape of any call it makes fails here."""
    example, = [block for block in blocks("python") if "podwave.rom" in block]
    exec(compile(example, "<README Library use>", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_readme_command_lines_parse():
    """Every `podwave ...` line of the README's sh blocks, continuation
    lines joined, parses and makes a valid RunConfig; nothing is run."""
    lines = [line for block in blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("podwave ")]
    assert len(commands) >= 3
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        make_config(args.config, {f.name: getattr(args, f.name) for f in fields(RunConfig)})


def test_readme_options_table_is_the_config():
    """The `| key | default | meaning |` table of "Configuration" names every
    RunConfig field once, and each default cell, read as config text
    (`empty` is ""), makes that field's default value."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Configuration\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    cells = [(key, cell.strip()) for keys, cell in rows for key in re.findall(r"`(\w+)`", keys)]
    assert sorted(key for key, _ in cells) == sorted(f.name for f in fields(RunConfig))
    defaults = {key: "" if cell == "empty" else cell.strip("`") for key, cell in cells}
    for f in fields(RunConfig):
        assert repr(getattr(RunConfig(**{f.name: defaults[f.name]}), f.name)) == repr(f.default)
