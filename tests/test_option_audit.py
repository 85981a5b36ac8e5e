"""Every defaulted parameter of the package takes another value somewhere,
and every command-line flag is read.

A default that no call in src/, tests/, demos/ or bench/ ever overrides,
or that every call overriding it sets to the default literal again, is a
constant dressed up as an option: it doubles the configurations to cover
and is exercised at one value only.  Constructors are left out; their
defaults are the fields of value objects.  A flag of `gapguide` that
`cli.py` never reads as `args.<dest>` does nothing; the two kept only so
that old command lines parse must say so in their help.
"""

import argparse
import ast
from pathlib import Path

from gapguide.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "demos", "bench")
CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _defaulted_parameters():
    """(qualified name, function name, parameter, positional index or None,
    default expression)."""
    for path in sorted((ROOT / "src" / "gapguide").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree.body)] + [(c.name, c.body) for c in tree.body
                                        if isinstance(c, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, ast.FunctionDef) or fn.name in CONSTRUCTORS:
                    continue
                static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
                skip = 1 if cls and not static else 0
                a = fn.args
                pos = a.posonlyargs + a.args
                qual = f"{path.stem}.{cls + '.' if cls else ''}{fn.name}"
                first = len(pos) - len(a.defaults)
                for i, default in enumerate(a.defaults, first):
                    yield qual, fn.name, pos[i].arg, i - skip, default
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield qual, fn.name, arg.arg, None, default


def _calls():
    """name -> [(positional arguments, {keyword: argument})] over every call
    site, positional arguments cut at the first starred one.

    `op(fn, *args, **kwargs)` wrappers, as the benchmark uses, also count as
    a call of `fn` with the remaining arguments.
    """
    calls = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                kws = {k.arg: k.value for k in node.keywords if k.arg}
                sites = [(_name(node.func), node.args)]
                if node.args:
                    sites.append((_name(node.args[0]), node.args[1:]))
                for name, args in sites:
                    npos = next((i for i, x in enumerate(args)
                                 if isinstance(x, ast.Starred)), len(args))
                    calls.setdefault(name, []).append((args[:npos], kws))
    return calls


def _is_literal(node, value):
    try:
        return ast.literal_eval(node) == value
    except ValueError:
        return False


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = _calls()
    unset = []
    for qual, fn, param, index, default in _defaulted_parameters():
        try:
            value = ast.literal_eval(default)
        except ValueError:
            value = object()            # no call can repeat it as a literal
        passed = [kws[param] if param in kws else args[index]
                  for args, kws in calls.get(fn, [])
                  if param in kws or (index is not None and len(args) > index)]
        if all(_is_literal(node, value) for node in passed):
            unset.append(f"{qual}({param})")
    assert not unset, ("defaulted parameters no caller sets to another value; "
                       "make them constants: " + ", ".join(unset))


UNREAD_FLAGS = {"seed", "threads"}


def test_every_cli_flag_is_read():
    tree = ast.parse((ROOT / "src" / "gapguide" / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    unread, silent = [], []
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.dest in UNREAD_FLAGS:
                if "read by nothing" not in (action.help or ""):
                    silent.append(f"{name} --{action.dest}")
            elif action.dest not in read:
                unread.append(f"{name} --{action.dest}")
    assert "command" in read
    assert not unread, "flags that cli.py never reads: " + ", ".join(unread)
    assert not silent, ("unread flags whose help does not say so: "
                        + ", ".join(silent))
