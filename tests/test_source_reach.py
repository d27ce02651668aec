"""src/ holds only code that the package itself runs.

A module-level function or class that nothing else in src/scanpose references
is code only the tests reach: a second copy of something the pipeline does
another way, or a wrapper kept for a test. The tests check the code the
pipeline runs instead, against the oracles in tests/oracles.py. The same holds
one level down: a defaulted parameter that no call in src/scanpose passes is a
branch only the tests take, and it becomes a constant instead; and a dataclass
field that no code reads or serializes is a value computed to be dropped.
An exception class that no except clause in src/scanpose names is told apart
from a built-in error only by the tests, so the code raises the built-in.
"""

import ast
import builtins
import os
import runpy
from collections import defaultdict

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "scanpose")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
PERFBENCH = os.path.dirname(TRACER)


def _parse(src_dir):
    modules = {}
    for filename in sorted(os.listdir(src_dir)):
        if filename.endswith(".py"):
            with open(os.path.join(src_dir, filename)) as fh:
                modules[filename[:-3]] = ast.parse(fh.read())
    return modules


def _imports(tree):
    """The package modules a tree imports by alias, and the names it imports
    from them: `from . import autodiff as ad` maps ad to autodiff, and
    `from .geometry import project_batch` gives (geometry, project_batch)."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    names.add((node.module, alias.name))
    return aliases, names


def _references(modules):
    """(module, name) of each definition that another module reaches: by
    importing its name, or through `alias.name` where the alias is its
    module's. A qualified name under any other qualifier (`np.stack`, an
    object's attribute) reaches no definition here."""
    found = set()
    for tree in modules.values():
        aliases, names = _imports(tree)
        found |= names
        found |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases}
    return found


def _own_scope(fn):
    """The names a function or lambda binds in its own scope: its parameters,
    the names it assigns and the functions it defines."""
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _free_loads(node, bound=frozenset()):
    """The plain names a subtree reads that no enclosing function binds, so
    that a local variable named like a definition does not reach it."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        bound = bound | _own_scope(node)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        found.add(node.id)
    for child in ast.iter_child_nodes(node):
        found |= _free_loads(child, bound)
    return found


def unreferenced_definitions(src_dir):
    """(module, name) of each module-level def or class that no code in
    src_dir outside its own body references: by a plain name in its own
    module that no function binds locally, or in another module by import or
    module-qualified name."""
    modules = _parse(src_dir)
    imported = _references(modules)
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            local = set().union(*(_free_loads(other) for other in tree.body
                                  if other is not node))
            if node.name not in local and (module, node.name) not in imported:
                found.append((module, node.name))
    return found


# the src/ definitions that only the benchmark tracer's entry points reach;
# deleting the last one empties the set
TRACER_ONLY = {"geometry.triangulation_jacobian_batch"}


def test_src_holds_no_test_only_code():
    traced = {f"{module}.{attr}" for module, attr, _ in runpy.run_path(TRACER)["ENTRY_POINTS"]}
    unreached = {f"{module}.{name}" for module, name in unreferenced_definitions(SRC)}
    assert not unreached - traced, \
        f"only tests reach these src/ definitions: {sorted(unreached - traced)}"
    assert unreached & traced == TRACER_ONLY, \
        f"only the tracer reaches these src/ definitions: {sorted(unreached & traced)}"


# tests drive the CLI in process through main(argv); the console script calls
# main() with no arguments
PASSED_BY_TESTS_ONLY = {"main.argv"}


def _passes(call, name, index):
    """Whether a call passes parameter `name`, which sits at positional
    `index` (None for keyword-only); ** passes every name and * every
    position from its own on."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return len(call.args) > index or any(i <= index for i in starred)


def unpassed_defaults(src_dir):
    """`function.parameter` for each defaulted parameter of a function or
    method in src_dir that no call in src_dir passes, by keyword or by
    position. Calls match by name alone, and calling a class calls its
    __init__."""
    trees = _parse(src_dir).values()
    calls = defaultdict(list)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    found = []
    for tree in trees:
        owners = {id(item): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, ast.FunctionDef)}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            owner = owners.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = owner is not None and not static  # self is not passed by position
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = positional[len(positional) - len(fn.args.defaults):]
            defaulted += [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            callee = owner.name if owner is not None and fn.name == "__init__" else fn.name
            for arg in defaulted:
                index = positional.index(arg) - bound if arg in positional else None
                if not any(_passes(call, arg.arg, index) for call in calls[callee]):
                    qual = fn.name if owner is None else f"{owner.name}.{fn.name}"
                    found.append(f"{qual}.{arg.arg}")
    return found


def test_src_passes_every_defaulted_parameter():
    unpassed = [p for p in unpassed_defaults(SRC) if p not in PASSED_BY_TESTS_ONLY]
    assert not unpassed, f"no call in src/ passes these parameters: {unpassed}"


def _name_of(annotation):
    """The class an annotation names: `SceneConfig`, `evalsim.SceneConfig` or
    the string "RunConfig" all give the last dotted part."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1]
    return getattr(annotation, "attr", None) or getattr(annotation, "id", None)


def _dataclass_fields(trees):
    """{class name: {field name: annotated class name}} of each @dataclass."""
    found = {}
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        decorators = [getattr(d, "func", d) for d in cls.decorator_list]
        if any(_name_of(d) == "dataclass" for d in decorators):
            found[cls.name] = {item.target.id: _name_of(item.annotation) for item in cls.body
                               if isinstance(item, ast.AnnAssign)
                               and isinstance(item.target, ast.Name)}
    return found


def _class_of(node, params, fields):
    """The class of a name or attribute chain, from the annotations of the
    function's params ({name: class}) and of the dataclass fields; else None."""
    if isinstance(node, ast.Name):
        return params.get(node.id)
    if isinstance(node, ast.Attribute):
        return fields.get(_class_of(node.value, params, fields), {}).get(node.attr)
    return None


def _serialized(trees, fields):
    """Names of the dataclasses that an asdict call in the trees serializes,
    known from annotations: asdict(config) serializes the class the parameter
    config is annotated with, asdict(scene.config) the class of the field
    config of scene's class, and asdict(self) the method's own class."""
    found = set()
    for tree in trees:
        owners = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, ast.FunctionDef)}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = {a.arg: _name_of(a.annotation) for a in fn.args.args + fn.args.kwonlyargs
                      if a.annotation is not None}
            params["self"] = owners.get(id(fn))
            found |= {_class_of(call.args[0], params, fields) for call in ast.walk(fn)
                      if isinstance(call, ast.Call) and _name_of(call.func) == "asdict"}
    return found


def unread_fields(src_dir, reader_dir):
    """`Class.field` for each field of a src_dir dataclass that no code in
    src_dir or reader_dir reads as an attribute (by name, on any object) and
    that no asdict call in src_dir serializes with its class."""
    trees = list(_parse(src_dir).values())
    fields = _dataclass_fields(trees)
    serialized = _serialized(trees, fields)
    trees += _parse(reader_dir).values()
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, names in fields.items() if cls not in serialized
                  for name in names if name not in read)


# the LayerOutput diagnostics that nothing reads yet: the per-layer run trace
# (ROADMAP item 2) is to read them, and deletes any it leaves unread
UNREAD_UNTIL_TRACED = {"LayerOutput.confidences", "LayerOutput.flagged"}


def test_src_dataclass_fields_have_a_reader():
    unread = set(unread_fields(SRC, PERFBENCH))
    assert unread == UNREAD_UNTIL_TRACED, \
        f"no code in src/ or perfbench/ reads these fields: {sorted(unread)}"


def _raisable_classes(trees):
    """Names of the classes defined in the trees that derive from a built-in
    exception, directly or through one another."""
    bases = {cls.name: {_name_of(b) for b in cls.bases}
             for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = set()
    while True:
        grown = {name for name, named in bases.items() if named & (known | found)}
        if grown == found:
            return found
        found = grown


def uncaught_exception_classes(src_dir):
    """Names of the exception classes defined in src_dir that no except clause
    in src_dir names, alone or in a tuple."""
    trees = list(_parse(src_dir).values())
    caught = set()
    for handler in (n for tree in trees for n in ast.walk(tree)
                    if isinstance(n, ast.ExceptHandler) and n.type is not None):
        named = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught |= {_name_of(t) for t in named}
    return sorted(_raisable_classes(trees) - caught)


def test_src_exception_classes_are_caught():
    uncaught = uncaught_exception_classes(SRC)
    assert not uncaught, f"no except clause in src/ names these exception classes: {uncaught}"
