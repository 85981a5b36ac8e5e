"""Every defaulted parameter of the package is set by some caller.

A default that no call in src/, tests/, demos/ or bench/ ever overrides is
a constant dressed up as an option: it doubles the configurations to cover
and is exercised at one value only.  Constructors are left out; their
defaults are the fields of value objects.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "demos", "bench")
CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _defaulted_parameters():
    """(qualified name, function name, parameter, positional index or None)."""
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
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    yield qual, fn.name, pos[i].arg, i - skip
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield qual, fn.name, arg.arg, None


def _calls():
    """name -> [(positional count, keyword names)] over every call site.

    `op(fn, *args, **kwargs)` wrappers, as the benchmark uses, also count as
    a call of `fn` with the remaining arguments.
    """
    calls = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                kws = {k.arg for k in node.keywords if k.arg}
                sites = [(_name(node.func), node.args)]
                if node.args:
                    sites.append((_name(node.args[0]), node.args[1:]))
                for name, args in sites:
                    npos = next((i for i, x in enumerate(args)
                                 if isinstance(x, ast.Starred)), len(args))
                    calls.setdefault(name, []).append((npos, kws))
    return calls


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = _calls()
    unset = [f"{qual}({param})"
             for qual, fn, param, index in _defaulted_parameters()
             if not any(param in kws or (index is not None and npos > index)
                        for npos, kws in calls.get(fn, []))]
    assert not unset, ("defaulted parameters no caller sets; make them "
                       "constants: " + ", ".join(unset))
