"""The README's library example runs, and its CLI lines parse, against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    norm, cost = (float(v) for v in capsys.readouterr().out.split())
    assert norm < 0.05 and cost > 0.0


def test_cli_block_parses():
    from koopmpc.cli import build_parser

    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "koopmpc"]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)


def test_cli_section_names_every_option():
    import argparse

    from koopmpc.cli import build_parser

    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = {
        (command, option)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
        and not re.search(re.escape(option) + r"(?![\w-])", section)
    }
    assert not missing


def test_backticked_code_names_exist():
    import importlib

    import koopmpc

    def resolve(name):
        head, *rest = name.split(".")
        try:
            obj = importlib.import_module(f"koopmpc.{head}")
        except ModuleNotFoundError:
            obj = getattr(koopmpc, head)
        for part in rest:
            obj = getattr(obj, part)

    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", prose))
    code_names = {name for name in names if name.rsplit(".", 1)[1] not in ("json", "csv", "py", "md", "toml")}
    assert code_names
    missing = set()
    for name in code_names:
        try:
            resolve(name)
        except AttributeError:
            missing.add(name)
    assert not missing
