"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qwreath"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# TensorPoly and TensorVector results may share their term dicts with
# operands, so no library code may change a ``terms`` dict in place.
MUTATING_METHODS = {"pop", "popitem", "update", "clear", "setdefault"}


def terms_mutations(source):
    """Line numbers where source changes an attribute named ``terms`` in
    place: an item assignment, augmented assignment or deletion, or a call
    of a mutating dict method on it."""

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_terms(node.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING_METHODS and is_terms(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_in_place_terms_mutation(path):
    assert terms_mutations(path.read_text(encoding="utf-8")) == []


def test_terms_mutation_guard_sees_each_form():
    source = "\n".join([
        "p.terms[k] = c",
        "p.terms[k] += c",
        "del p.terms[k]",
        "a, p.terms[k] = 1, 2",
        "p.terms.pop(k)",
        "p.terms.update(q)",
        "p.terms.clear()",
        "p.terms.setdefault(k, c)",
        "terms[k] = c",
        "x = p.terms[k]",
        "out[p.terms[k]] = c",
        "p.terms = {}",
        "q = p.terms.get(k)",
    ])
    assert terms_mutations(source) == list(range(1, 9))


# Every function, class and method of the library is used somewhere: in the
# library, its tests or the benchmark harness.
REPO = SRC.parent.parent
REFERENCE_ROOTS = [REPO / "src", REPO / "tests", REPO / "perfbench"]


def definitions(source):
    """(qualified name, name) of every function, class and method defined
    in source, nested ones included; dunders are left out."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((qual, child.name))
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def references(source):
    """Every identifier source uses: names, attributes, imported names, and
    string constants that are one identifier (as getattr-style tables use)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def dead_definitions(library, corpus):
    """Qualified names defined in the library sources that no source in the
    corpus references."""
    used = set()
    for source in corpus:
        used |= references(source)
    return sorted(qual for source in library for qual, name in definitions(source)
                  if name not in used)


def test_every_definition_is_referenced():
    library = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    corpus = [p.read_text(encoding="utf-8") for root in REFERENCE_ROOTS
              for p in sorted(root.rglob("*.py"))]
    assert dead_definitions(library, corpus) == []


def test_dead_definition_guard_sees_each_form():
    library = ["class A:\n    def m(self): pass\n    def __eq__(self, o): pass\n"
               "def f():\n    def inner(): pass\n"
               "def g(): pass\ndef h(): pass\ndef k(): pass\ndef unused(): pass\n"]
    corpus = library + ["A().m\nf()\nfrom mod import g\nx = {'h': 1}\n"
                        "'k is documented here, not referenced'\n"]
    assert dead_definitions(library, corpus) == ["f.inner", "k", "unused"]


# A cache keyed by a parameter pack lives in the pack's memo (pack_cached),
# so it is freed with the pack; module-level caches take pack-free keys only.
MODULE_CACHES = {"lru_cache", "cache"}


def pack_keyed_module_caches(source):
    """Names of the functions decorated with ``lru_cache`` or
    ``functools.cache``, bare or called, whose first parameter is
    ``params``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args.posonlyargs + node.args.args
        if not args or args[0].arg != "params":
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else \
                getattr(target, "id", None)
            if name in MODULE_CACHES:
                out.append(node.name)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_cache_keyed_by_a_pack(path):
    assert pack_keyed_module_caches(path.read_text(encoding="utf-8")) == []


def test_pack_cache_guard_sees_each_form():
    source = "\n".join([
        "@lru_cache(maxsize=None)\ndef a(params, d): pass",
        "@functools.lru_cache\ndef b(params): pass",
        "@cache\ndef c(params, *, k=1): pass",
        "@functools.cache\ndef e(params, /, d): pass",
        "@lru_cache(maxsize=None)\ndef f(d, lam): pass",
        "@pack_cached\ndef g(params, d): pass",
        "def h(params): pass",
        "class K:\n    @lru_cache\n    def m(self, params): pass",
    ])
    assert pack_keyed_module_caches(source) == ["a", "b", "c", "e"]


# Every parameter pack comes from preset-file data through _pack_from_spec,
# the one place that constructs PqwpParams; rebase_field reloads that data.
PACK_CONSTRUCTORS = {"_pack_from_spec"}


def pack_constructions(source):
    """The function around each call of ``PqwpParams(...)``, by name or as
    an attribute: the innermost enclosing def, or ``<module>``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                target = child.func
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name == "PqwpParams":
                    out.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_packs_are_built_from_preset_data(path):
    calls = pack_constructions(path.read_text(encoding="utf-8"))
    assert [owner for owner in calls if owner not in PACK_CONSTRUCTORS] == []


def test_pack_construction_guard_sees_each_form():
    source = "\n".join([
        "def a(): return PqwpParams(alg, v, {}, al)",
        "def b():\n    def inner(): return base_algebra.PqwpParams(alg)\n    return inner",
        "p = PqwpParams(alg)",
        "class K:\n    def m(self): return [PqwpParams(alg) for _ in ()]",
        "def c(): return PqwpParams.LAURENT",
        "def e(): return make(PqwpParams)",
    ])
    assert pack_constructions(source) == ["<module>", "a", "inner", "m"]


# The linear-combination operations are written once, in SparseSum; a class
# deriving from it supplies terms, _same_space, _like and its own __eq__.
SPARSE_SUM_OPERATIONS = {"__add__", "__neg__", "__sub__", "is_zero"}


def sparse_sum_overrides(sources):
    """(class, method) for each method of SPARSE_SUM_OPERATIONS that a class
    deriving from SparseSum defines, directly or through other classes of
    the sources, in any module."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]

    def base_names(cls):
        return {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                for b in cls.bases}

    derived = {"SparseSum"}
    grew = True
    while grew:
        grew = False
        for cls in classes:
            if cls.name not in derived and base_names(cls) & derived:
                derived.add(cls.name)
                grew = True
    return sorted((cls.name, f.name) for cls in classes
                  if cls.name != "SparseSum" and cls.name in derived
                  for f in cls.body
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and f.name in SPARSE_SUM_OPERATIONS)


def test_sparse_sums_inherit_their_linear_operations():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert sparse_sum_overrides(sources) == []


def test_sparse_sum_guard_sees_each_form():
    source = "\n".join([
        "class A(SparseSum):\n    def __add__(self, o): pass\n    def scale(self, c): pass",
        "class B(base_algebra.SparseSum, _Frozen):\n    def is_zero(self): pass",
        "class C(A):\n    def __neg__(self): pass\n    def __eq__(self, o): pass",
        "class D:\n    def __sub__(self, o): pass",
        "class SparseSum:\n    def __add__(self, o): pass",
    ])
    later = "class E(C):\n    def __sub__(self, o): pass\n    def _like(self, t): pass"
    assert sparse_sum_overrides([later, source]) == [
        ("A", "__add__"), ("B", "is_zero"), ("C", "__neg__"), ("E", "__sub__")]
