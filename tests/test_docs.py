"""The README's library example and every demo script run without error,
and every cross-reference in the package's docstrings names an object."""

import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import brownmin
from brownmin import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "brownmin").glob("*.py"))


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_shell_examples_parse():
    # every brownmin command in the README's plain code blocks, with its
    # continuation lines joined and its comment dropped, is a valid call
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    shell = "".join(text for lang, text in blocks if not lang).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:] for line in shell.splitlines()
                if line.startswith("brownmin ")]
    assert len(commands) == 4
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    suggest = next(argv for argv in commands if argv[0] == "suggest-lambda")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(suggest) == 0
    assert out.getvalue() == "720\n"


# runs a demo with every warning raised from package code an error, as
# pyproject.toml makes it in the tests
RUN_DEMO = ("import runpy, sys, warnings; warnings.filterwarnings('error', module='brownmin'); "
            "runpy.run_path(sys.argv[1], run_name='__main__')")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", RUN_DEMO, str(demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _resolves(root, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(root, name):
            return False
        root = getattr(root, name)
    return True


@pytest.mark.parametrize("source", MODULES, ids=[m.stem for m in MODULES])
def test_docstring_references_resolve(source):
    # a :func:, :class: or :meth: target, less any leading ~, names an
    # object of brownmin, of its own module or of a class of that module
    name = "brownmin" if source.stem == "__init__" else f"brownmin.{source.stem}"
    module = importlib.import_module(name)
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == name]
    roots = [SimpleNamespace(brownmin=brownmin), brownmin, module, *classes]
    docstrings = [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(source.read_text()))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    targets = re.findall(r":(?:func|class|meth):`~?([^`]+)`", "\n".join(docstrings))
    assert [t for t in targets if not any(_resolves(root, t) for root in roots)] == []
