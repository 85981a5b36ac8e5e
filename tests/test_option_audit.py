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
body never loads is passed for nothing.  A method whose name another
package class's method shares is checked per class: a call on a receiver
of one class does not keep the other's alive.
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
    like the other default rule: a method whose name another class's
    method shares is judged on the calls of both."""
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


# methods that share their name with another package class's method and
# that no receiver visibly of their class calls, though something does;
# each with the reason the audit cannot see the call
UNRESOLVED = {}


class _Receivers:
    """The package classes a receiver expression is visibly of: `self` or
    `cls` in a method, a constructor call, an annotated parameter, a call
    of a function whose definitions share one return annotation, a field
    annotated in the class of its own receiver, a local name bound to one
    of these, or a branch of a conditional expression.  A class stands
    for itself and every subclass."""

    def __init__(self):
        self.classes, self.returns = {}, {}
        for path in sorted((ROOT / "src" / "gapguide").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    assert node.name not in self.classes, node.name
                    self.classes[node.name] = node
                elif isinstance(node, ast.FunctionDef):
                    self.returns.setdefault(node.name, []).append(
                        node.returns)
        self.methods = {c: {m.name for m in node.body
                            if isinstance(m, ast.FunctionDef)}
                        for c, node in self.classes.items()}
        self.fields = {c: {f.target.id: f.annotation for f in node.body
                           if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)}
                       for c, node in self.classes.items()}
        self.bases = {c: [_name(b) for b in node.bases
                          if _name(b) in self.classes]
                      for c, node in self.classes.items()}

    def annotated(self, node):
        """The classes an annotation names: `C`, `mod.C`, `"C"`, `C | D`."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotated(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.BinOp):
            return self.annotated(node.left) | self.annotated(node.right)
        return {_name(node)} & set(self.classes)

    def types(self, node, scope):
        """The classes `node` is visibly of, given the names bound in
        `scope`; empty where none is visible."""
        if isinstance(node, ast.Name):
            return scope.get(node.id, set())
        if isinstance(node, ast.IfExp):
            return (self.types(node.body, scope)
                    | self.types(node.orelse, scope))
        if isinstance(node, ast.Attribute):
            return set().union(*(
                self.annotated(self.fields[c][node.attr])
                for c in self.types(node.value, scope)
                if node.attr in self.fields[c]))
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in self.classes:
                return {name}
            returns = self.returns.get(name, [None])
            if all(r is not None and ast.dump(r) == ast.dump(returns[0])
                   for r in returns):
                return self.annotated(returns[0])
        return set()

    def scope(self, cls, fn):
        """Names bound in `fn` (a method of class `cls`, a function, or a
        module's top level) to the classes they are visibly of."""
        scope = {}
        if isinstance(fn, ast.FunctionDef):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            scope = {p.arg: self.annotated(p.annotation) for p in params
                     if p.annotation is not None}
            if cls in self.classes and params and not any(
                    _name(d) == "staticmethod" for d in fn.decorator_list):
                scope[params[0].arg] = {cls}
        assigns = [n for stmt in _body(fn) for n in ast.walk(stmt)
                   if isinstance(n, ast.Assign) and len(n.targets) == 1
                   and isinstance(n.targets[0], ast.Name)]
        for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
            name = node.targets[0].id
            scope[name] = (scope.get(name, set())
                           | self.types(node.value, scope))
        return scope

    def reached(self, cls, method):
        """"C.method" for each class C whose `method` a call on a receiver
        of class `cls` may run: each subclass's, and the one `cls`
        inherits."""
        below = {cls}
        while more := {c for c, bases in self.bases.items()
                       if below & set(bases)} - below:
            below |= more
        out = {f"{c}.{method}" for c in below if method in self.methods[c]}
        todo = [cls]
        while todo:
            c = todo.pop(0)
            if method in self.methods[c]:
                return out | {f"{c}.{method}"}
            todo += self.bases[c]
        return out


def _body(fn):
    """The statements of a function, or those of a module other than its
    functions and classes, whose methods are scopes of their own."""
    if isinstance(fn, ast.FunctionDef):
        return fn.body
    return [s for s in fn.body
            if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]


def _scopes(tree):
    """(class name or None, scope) for the module, each top-level
    function, and each method of each class."""
    yield None, tree
    yield from ((None, fn) for fn in tree.body
                if isinstance(fn, ast.FunctionDef))
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            yield from ((cls.name, fn) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef))


def test_every_shared_method_name_is_called_on_each_class():
    # By name alone, a call of one class's method keeps alive every method
    # of that name: StripSpec.contains once passed unseen because
    # CrossSection.contains is called.  So a public method (or property)
    # whose name two package classes define needs, in each class, a call or
    # read whose receiver is visibly of that class or of a base class.
    r = _Receivers()
    owners = {}
    for c, methods in r.methods.items():
        for m in methods:
            if not m.startswith("__"):
                owners.setdefault(m, set()).add(c)
    shared = {m for m, cs in owners.items() if len(cs) > 1}
    defined = {f"{c}.{m}" for m in shared for c in owners[m]}
    reached = set()
    for _, tree in _caller_trees():
        for cls, fn in _scopes(tree):
            scope = r.scope(cls, fn)
            for stmt in _body(fn):
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute)
                            and node.attr in shared
                            and isinstance(node.ctx, ast.Load)):
                        for c in r.types(node.value, scope):
                            reached |= r.reached(c, node.attr)
    unreached = sorted(defined - reached - set(UNRESOLVED))
    stale = sorted(set(UNRESOLVED) - (defined - reached))
    assert not unreached, ("methods no receiver of their class calls; "
                           "delete them: " + ", ".join(unreached))
    assert not stale, ("UNRESOLVED lists methods the audit resolves, or "
                       "that do not exist: " + ", ".join(stale))
