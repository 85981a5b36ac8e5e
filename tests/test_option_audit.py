"""The package holds what its pipeline calls: every public function and
class has a caller, every defaulted parameter takes another value
somewhere and its default somewhere else, every parameter and every field
of its dataclasses is read, and every command-line flag is read.

Callers are the package itself, the demos and the benchmark (src/, demos/
and bench/); a test is not one.  A public top-level function or class that
only tests name is a test helper and belongs in tests/.  A default that no
call ever overrides, or that every call overriding it sets to the default
literal again, is a constant dressed up as an option: it doubles the
configurations to cover and is exercised at one value only.  A default
that every call overrides is never taken: the callers hold the value, and
the library's copy can only drift from theirs.  A call that spreads a
mapping (`f(**kwargs)`) may set any defaulted keyword of `f` or leave it
be, so it passes both rules.  Constructors are left out; their defaults
are the fields of value objects.  A dataclass field that no caller loads
as an attribute is written and carried for nothing.  A flag of `gapguide`
that `cli.py` never reads as `args.<dest>` does nothing; the two kept only
so that old command lines parse must say so in their help.  A config key
in a command's reader table that neither the command nor a helper it
calls names is accepted and read by nothing.  A parameter its function's
body never loads is passed for nothing.
"""

import argparse
import ast
from pathlib import Path

from gapguide.cli import COMMANDS, READERS, build_parser

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "bench")
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


def _caller_trees():
    """(path, syntax tree) of every Python file of src/, demos/ and bench/."""
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _calls():
    """name -> [(positional arguments, {keyword: argument}, spread)] over
    every call site, positional arguments cut at the first starred one;
    `spread` is whether the call passes a `**mapping`.

    `op(fn, *args, **kwargs)` wrappers, as the benchmark uses, also count as
    a call of `fn` with the remaining arguments.
    """
    calls = {}
    for _, tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            kws = {k.arg: k.value for k in node.keywords if k.arg}
            spread = any(k.arg is None for k in node.keywords)
            sites = [(_name(node.func), node.args)]
            if node.args:
                sites.append((_name(node.args[0]), node.args[1:]))
            for name, args in sites:
                npos = next((i for i, x in enumerate(args)
                             if isinstance(x, ast.Starred)), len(args))
                calls.setdefault(name, []).append((args[:npos], kws, spread))
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
        passed, spread = [], False
        for args, kws, spreads in calls.get(fn, []):
            if param in kws:
                passed.append(kws[param])
            elif index is not None and len(args) > index:
                passed.append(args[index])
            else:
                spread |= spreads
        if not spread and all(_is_literal(node, value) for node in passed):
            unset.append(f"{qual}({param})")
    assert not unset, ("defaulted parameters no caller sets to another value; "
                       "make them constants: " + ", ".join(unset))


def _dataclass_fields():
    """(qualified class name, field) for every annotated field of a
    dataclass in the package."""
    for path in sorted((ROOT / "src" / "gapguide").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or not any(
                    _name(d.func if isinstance(d, ast.Call) else d)
                    == "dataclass" for d in cls.decorator_list):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield f"{path.stem}.{cls.name}", stmt.target.id


def _loaded_attributes():
    """Every attribute name loaded as `x.name` or `getattr(x, "name")` in
    src/, demos/ or bench/."""
    names = set()
    for _, tree in _caller_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and _name(node.func) == "getattr"
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_every_dataclass_field_is_read():
    # by name only: a field whose name another class's read attribute
    # shares passes unseen
    loaded = _loaded_attributes()
    unread = [f"{cls}.{field}" for cls, field in _dataclass_fields()
              if field not in loaded]
    assert not unread, ("dataclass fields nothing reads; delete them: "
                        + ", ".join(unread))


def _loaded(nodes):
    """(bare names, attribute names) loaded under `nodes`."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
    return names, attrs


def _units(tree, module):
    """(qualified name, name or None, is a method, loaded names) for each
    top-level statement of a package module, a class split into its own
    statements and one unit per method.  Dunder methods, called by Python
    itself, have no name to look for."""
    for stmt in tree.body:
        qual = f"{module}.{getattr(stmt, 'name', '')}"
        if isinstance(stmt, ast.ClassDef):
            methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)]
            rest = [m for m in stmt.body if m not in methods]
            yield qual, stmt.name, False, _loaded(
                rest + stmt.decorator_list + stmt.bases)
            for m in methods:
                name = None if m.name.startswith("__") else m.name
                yield f"{qual}.{m.name}", name, True, _loaded([m])
        elif isinstance(stmt, ast.FunctionDef):
            yield qual, stmt.name, False, _loaded([stmt])
        else:
            yield module, None, False, _loaded([stmt])


def _refers(loaded, name, method):
    """Whether `loaded` names `name`: a method only as an attribute."""
    names, attrs = loaded
    return name in attrs or (not method and name in names)


def test_every_public_name_has_a_caller():
    # Every function, class and public method of the package must be named
    # by the demos, the benchmark or a package unit that is itself reached;
    # re-exports in __init__ and __all__ strings do not count.  By name
    # only, like the field check; a method counts only as `x.name`.
    outside, units = (set(), set()), []
    for path, tree in _caller_trees():
        if path.parent.name != "gapguide":
            for seen, new in zip(outside, _loaded([tree])):
                seen |= new
        elif path.name != "__init__.py":
            units += _units(tree, path.stem)
    alive, uncalled = units, []
    while True:
        dead = [u for u in alive if u[1] is not None
                and not _refers(outside, u[1], u[2])
                and not any(_refers(o[3], u[1], u[2])
                            for o in alive if o is not u)]
        if not dead:
            break
        uncalled += [u[0] for u in dead]
        alive = [u for u in alive if u not in dead]
    assert not uncalled, ("names only tests use; move them into tests/ or "
                          "delete them: " + ", ".join(uncalled))


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


def test_every_config_key_is_read():
    # by name only: a key counts as read where the command, or a cli.py
    # function it calls however deeply, holds it as a string constant
    tree = ast.parse((ROOT / "src" / "gapguide" / "cli.py").read_text())
    functions = {fn.name: fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    unread = []
    for command, keys in READERS.items():
        todo, seen, named = [COMMANDS[command].__name__], set(), set()
        while todo:
            name = todo.pop()
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Constant):
                    named.add(node.value)
                elif (isinstance(node, ast.Name) and node.id in functions
                      and node.id not in seen):
                    todo.append(node.id)
        unread += [f"{command}: {key}" for key in keys if key not in named]
    assert not unread, ("config keys their command accepts and never "
                        "reads: " + ", ".join(unread))


def _is_interface(fn):
    """Whether the body, past its docstring, is empty or only raises
    NotImplementedError: a signature that subclasses fill in."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                       and isinstance(s.value, ast.Constant))]
    return not body or (
        len(body) == 1 and isinstance(body[0], ast.Raise)
        and _name(getattr(body[0].exc, "func", body[0].exc))
        == "NotImplementedError")


def test_every_parameter_is_read():
    # a parameter the body never loads is passed for nothing; a name that
    # starts with "_" is unread on purpose (a protocol or uniform dispatch
    # signature)
    unread = []
    for path in sorted((ROOT / "src" / "gapguide").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or _is_interface(fn)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p.arg})" for p in params
                       if not p.arg.startswith("_") and p.arg not in loaded]
    assert not unread, ("parameters their function never reads; delete "
                        "them: " + ", ".join(unread))


def test_every_default_is_taken():
    """Fails on a defaulted parameter that every call sets, positionally
    or by keyword, with no `**` spread.  Calls are matched by name only,
    like the other rules, not by binding: `DecayProfile.rows(d_lo, d_hi)`
    escapes, as `BandTable.rows()` shares its name and is called bare."""
    calls = _calls()
    overridden = []
    for qual, fn, param, index, _ in _defaulted_parameters():
        sites = calls.get(fn, [])
        if sites and all(
                not spread and (param in kws or (
                    index is not None and len(args) > index))
                for args, kws, spread in sites):
            overridden.append(f"{qual}({param})")
    assert not overridden, ("defaulted parameters every caller sets; drop "
                            "the default: " + ", ".join(overridden))
