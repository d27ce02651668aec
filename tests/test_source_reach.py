"""src/ holds only code that the package itself runs.

A module-level function or class that nothing else in src/scanpose references
is code only the tests reach: a second copy of something the pipeline does
another way, or a wrapper kept for a test. The tests check the code the
pipeline runs instead, against the oracles in tests/oracles.py.
"""

import ast
import os
import runpy

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "scanpose")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

# scan_recurrent is the subject of acceptance criteria 1-2 (the LTI reference
# the selective scan must reproduce); the package never calls it
ALLOWED = {"scan_recurrent"}


def _identifiers(nodes):
    """Every name a set of AST subtrees reads, by plain name, attribute or import."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unreferenced_definitions(src_dir):
    """(module, name) of each module-level def or class that no code in
    src_dir outside its own body references."""
    modules = {}
    for filename in sorted(os.listdir(src_dir)):
        if filename.endswith(".py"):
            with open(os.path.join(src_dir, filename)) as fh:
                modules[filename[:-3]] = ast.parse(fh.read())
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            others = [n for n in tree.body if n is not node]
            others += [t for m, t in modules.items() if m != module]
            if node.name not in _identifiers(others):
                found.append((module, node.name))
    return found


def test_src_holds_no_test_only_code():
    traced = {attr for _, attr, _ in runpy.run_path(TRACER)["ENTRY_POINTS"]}
    unreached = [f"{module}.{name}" for module, name in unreferenced_definitions(SRC)
                 if name not in traced and name not in ALLOWED]
    assert not unreached, f"only tests reach these src/ definitions: {unreached}"
