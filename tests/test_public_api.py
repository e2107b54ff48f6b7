"""Every public function, class and method of the package has a caller.

The package's own code, the benchmark and the demos are scanned with `ast`;
a definition counts as used when it is referred to outside its own body.  A
top-level function or class is referred to by its bare name in its own
module or in a file that imports it from the package, or as an attribute of
an imported package module (the benchmark patches functions that way).  A
method is referred to by any attribute of its name, except one taken from
a module imported from outside the package.  A method whose name is also an
attribute of a builtin container, `str` or `numpy.ndarray` (`get`, `shape`)
would pass on any read of that attribute, so it counts as called only when
`COLLIDING_CALLERS` names the file that calls it and that file reads the
attribute.  Tests do not count, so code that only tests reach shows up
here.  A name kept on purpose without such a caller goes on
`UNCALLED_ALLOWED` with the reason it stays.
"""

import ast
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repurpose"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "demos")

# "module.Name" or "module.Class.method" -> why it stays without a caller.
UNCALLED_ALLOWED = {
    "corpus.Corpus.build":
        "the in-memory twin of load_corpus, which tests state rows through",
    "corpus.Corpus.smiles_of":
        "the only reader of the compounds file's SMILES column",
}

BUILTIN_ATTRIBUTES = frozenset().union(
    *(dir(kind) for kind in (dict, list, set, str, tuple, np.ndarray)))

# "module.Class.method" whose name is in BUILTIN_ATTRIBUTES -> the file,
# relative to the root, that calls it.
COLLIDING_CALLERS = {
    "factorization.InteractionMatrix.shape": "demos/04_factor_models.py",
    "similarity.SimilarityMatrix.get": "demos/03_fingerprint_similarity.py",
}


def _is_public(name):
    return not name.startswith("_")


def public_definitions():
    """(qualified name, is a method, file, first line, last line) of each
    public top-level function and class and each public method of a public
    class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or not _is_public(node.name):
                continue
            found.append((f"{module}.{node.name}", False, path, node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{module}.{node.name}.{item.name}", True, path, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and _is_public(item.name))
    return [(name, is_method, path, node.lineno, node.end_lineno)
            for name, is_method, path, node in found]


def _from_package(node, path):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 and PACKAGE in path.parents \
            or (node.module or "").split(".")[0] == "repurpose"
    return any(alias.name.split(".")[0] == "repurpose" for alias in node.names)


def references():
    """({name: [(file, line)]} of package-level uses, {name: [(file, line)]}
    of attribute uses) over every scanned source file."""
    bare, attributes = {}, {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            if "tests" in path.relative_to(directory).parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            known = {node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            foreign = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    (known if _from_package(node, path) else foreign).update(
                        (alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id in known:
                    bare.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    owner = getattr(node.value, "id", None)
                    # np.mean is not a call of a method named mean
                    if owner not in foreign:
                        attributes.setdefault(node.attr, []).append(
                            (path, node.lineno))
                    if owner in known:
                        bare.setdefault(node.attr, []).append(
                            (path, node.lineno))
    return bare, attributes


def uncalled():
    bare, attributes = references()
    found = []
    for qualified, is_method, path, first, last in public_definitions():
        name = qualified.rsplit(".", 1)[1]
        uses = (attributes if is_method else bare).get(name, ())
        if is_method and name in BUILTIN_ATTRIBUTES:
            caller = COLLIDING_CALLERS.get(qualified)
            uses = [(where, line) for where, line in uses
                    if caller and where == ROOT / caller]
        if not any(where != path or not first <= line <= last
                   for where, line in uses):
            found.append(qualified)
    return sorted(found)


def test_every_public_name_has_a_caller():
    assert [name for name in uncalled() if name not in UNCALLED_ALLOWED] == []


def test_allowlist_names_existing_uncalled_definitions():
    assert sorted(set(UNCALLED_ALLOWED) - set(uncalled())) == []


def test_colliding_callers_name_colliding_methods():
    methods = {name for name, is_method, *_ in public_definitions() if is_method}
    for qualified in COLLIDING_CALLERS:
        assert qualified in methods
        assert qualified.rsplit(".", 1)[1] in BUILTIN_ATTRIBUTES
