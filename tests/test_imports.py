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
# operands, and LocalizedElement results their nfac and dfac Counters, so no
# library code may change a ``terms``, ``nfac`` or ``dfac`` in place.
SHARED_ATTRIBUTES = {"terms", "nfac", "dfac"}
MUTATING_METHODS = {"pop", "popitem", "update", "clear", "setdefault", "subtract"}


def terms_mutations(source):
    """Line numbers where source changes an attribute named ``terms``,
    ``nfac`` or ``dfac`` in place: an item assignment, augmented assignment
    or deletion, an augmented assignment to the attribute itself (in place
    for a dict or Counter), or a call of a mutating dict or Counter method
    on it."""

    def is_shared(node):
        return isinstance(node, ast.Attribute) and node.attr in SHARED_ATTRIBUTES

    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_shared(node.value)):
            lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and is_shared(node.target):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING_METHODS and is_shared(node.func.value)):
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
        "x.nfac[t] -= 1",
        "x.dfac -= common",
        "x.nfac.subtract(c)",
        "del x.dfac[t]",
        "x.terms |= q",
        "terms[k] = c",
        "x = p.terms[k]",
        "out[p.terms[k]] = c",
        "p.terms = {}",
        "q = p.terms.get(k)",
        "nfac -= common",
        "dfac[t] = k",
        "y = x.nfac - x.dfac",
    ])
    assert terms_mutations(source) == list(range(1, 14))


# Every function, class and method of the library is used somewhere: in the
# library, its tests or the benchmark harness.
REPO = SRC.parent.parent
REFERENCE_ROOTS = [REPO / "src", REPO / "tests", REPO / "perfbench"]
THIS_FILE = Path(__file__).resolve()


def corpus_sources(*roots):
    """The Python sources under the roots, this file left out: its tables
    name library definitions in strings, which are no uses."""
    return [p.read_text(encoding="utf-8") for root in roots for p in sorted(root.rglob("*.py"))
            if p.resolve() != THIS_FILE]


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
    assert dead_definitions(library, corpus_sources(*REFERENCE_ROOTS)) == []


def test_dead_definition_guard_sees_each_form():
    library = ["class A:\n    def m(self): pass\n    def __eq__(self, o): pass\n"
               "def f():\n    def inner(): pass\n"
               "def g(): pass\ndef h(): pass\ndef k(): pass\ndef unused(): pass\n"]
    corpus = library + ["A().m\nf()\nfrom mod import g\nx = {'h': 1}\n"
                        "'k is documented here, not referenced'\n"]
    assert dead_definitions(library, corpus) == ["f.inner", "k", "unused"]


# A library definition that only tests reference is a second spelling of a
# route that stays, or an output nothing reads, unless it is listed here
# with the reason it stays.  The benchmark harness counts as a library
# caller.  Names are matched as in dead_definitions, so a definition whose
# name the library also uses elsewhere (a ``zero``, a ``to_json``) is not seen.
TEST_ONLY_DEFINITIONS = {
    "ValidationReport.failures": "the failing rows of a report, for callers that act on them",
    "rebase_field": "a pack carried to Q or GF(p), to compare a report across fields",
    "Field.param": "the formal parameter q of a rational-function field",
    "specialize": "a rational function at rational values of its parameters",
    "ConvBlock.leading": "the top-length term of a block, for unitriangularity checks",
    "SchurElement.idempotent": "the idempotent 1_lam of the convolution algebra",
    "k_block": "the paper's K_lam as a full-flag block of merge-then-split",
    "poly_value": "the lam component of a polynomial-representation vector",
    "coil_basis_element": "the paper's coil spanning elements",
    "PqwpElement.of_word": "the product of a word of generators, reduced or not",
    "right_coefficient_form": "the normal form with coefficients on the right of H_w",
    "multinomial": "the paper's generalized multinomial over coset representatives",
    "decompose_k": "the paper's two coset factorizations of K, certified",
    "mackey_expansion": "the paper's Mackey-type double-coset expansion of K",
    "from_word": "a permutation from a word of simple transpositions",
    "from_one_line": "a permutation from the one-line form that reports print",
    "theta_matrices": "the integer matrices that index the blocks of the tensor space",
    "bijection_kappa": "the paper's length-additive bijection onto a double coset",
    "is_module_map": "the exact certificate that a block map is a module map",
    "LocalizedElement.as_tensor_poly": "a localized value whose denominators cancelled",
}


def only_tested_definitions(library, library_corpus, test_corpus):
    """Qualified names defined in the library sources that some test source
    references and no library or benchmark source does."""
    in_library = set().union(*map(references, library_corpus))
    in_tests = set().union(*map(references, test_corpus))
    return sorted(qual for source in library for qual, name in definitions(source)
                  if name in in_tests and name not in in_library)


def test_test_only_definitions_are_listed():
    library = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    found = only_tested_definitions(library, corpus_sources(REPO / "src", REPO / "perfbench"),
                                    corpus_sources(REPO / "tests"))
    assert found == sorted(TEST_ONLY_DEFINITIONS)
    assert all(TEST_ONLY_DEFINITIONS.values())


def test_test_only_guard_sees_each_form():
    library = ["class A:\n    def m(self): pass\n    def n(self): pass\n"
               "def f(): pass\ndef g(): pass\ndef h(): pass\ndef unused(): pass\n"]
    harness = ["from mod import g\n"]
    tests = ["A().m\nA().n\nf()\ng()\nh()\n"]
    assert only_tested_definitions(library, library + harness, tests) == [
        "A", "A.m", "A.n", "f", "h"]


# A cache keyed by a parameter pack lives in the pack's memo (pack_cached),
# so it is freed with the pack; module-level caches take pack-free keys only.
# A module cache over scalars must also be bounded: a long run keeps
# producing new scalars, so an unbounded one grows for as long as it runs.
MODULE_CACHES = {"lru_cache", "cache"}


def decorator_name(dec):
    """The name of a decorator, bare or called, plain or an attribute."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


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
            if decorator_name(dec) in MODULE_CACHES:
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


def unbounded_module_caches(source):
    """Names of the functions decorated with ``cache`` or
    ``functools.cache``, or with ``lru_cache`` called with ``maxsize=None``
    or a first argument ``None``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            name = decorator_name(dec)
            sizes = []
            if isinstance(dec, ast.Call):
                sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
            if name == "cache" or (name == "lru_cache" and any(
                    isinstance(v, ast.Constant) and v.value is None for v in sizes)):
                out.append(node.name)
    return sorted(out)


def test_scalar_caches_are_bounded():
    assert unbounded_module_caches((SRC / "coeff_ring.py").read_text(encoding="utf-8")) == []


def test_unbounded_cache_guard_sees_each_form():
    source = "\n".join([
        "@cache\ndef a(x, y): pass",
        "@functools.cache\ndef b(x, y): pass",
        "@lru_cache(maxsize=None)\ndef c(x, y): pass",
        "@functools.lru_cache(None)\ndef e(x, y): pass",
        "@lru_cache(None, typed=True)\ndef f(x, y): pass",
        "@lru_cache(maxsize=4096)\ndef g(x, y): pass",
        "@lru_cache\ndef h(x, y): pass",
        "@functools.lru_cache(128)\ndef k(x, y): pass",
        "def m(x, y): pass",
    ])
    assert unbounded_module_caches(source) == ["a", "b", "c", "e", "f"]


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


# The linear-combination operations, equality, repr and the dropping of zero
# coefficients are written once, in SparseSum; a class deriving from it
# supplies terms, _same_space and _kept.
SPARSE_SUM_OPERATIONS = {"__add__", "__neg__", "__sub__", "is_zero", "__eq__", "__repr__",
                         "_like"}


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
        "class B(base_algebra.SparseSum, _Frozen):\n    def is_zero(self): pass\n"
        "    def __repr__(self): pass",
        "class C(A):\n    def __neg__(self): pass\n    def __eq__(self, o): pass",
        "class D:\n    def __sub__(self, o): pass\n    def __eq__(self, o): pass\n"
        "    def __repr__(self): pass",
        "class SparseSum:\n    def __add__(self, o): pass",
    ])
    later = "class E(C):\n    def __sub__(self, o): pass\n    def _like(self, t): pass"
    assert sparse_sum_overrides([later, source]) == [
        ("A", "__add__"), ("B", "__repr__"), ("B", "is_zero"), ("C", "__eq__"),
        ("C", "__neg__"), ("E", "__sub__"), ("E", "_like")]


# Cosets and shuffles are enumerated in symcomb alone (coset_reps and
# double_coset_reps); other modules ask it for the representatives.
COSET_HELPERS = {"increasing_on_blocks"}
ITERTOOLS_ENUMERATIONS = {"permutations", "combinations"}


def coset_enumerations(source):
    """Line numbers where source references increasing_on_blocks, or
    itertools.permutations or itertools.combinations, by name, as an
    attribute or in an import."""
    tree = ast.parse(source)
    modules = {"itertools"} | {alias.asname for node in ast.walk(tree)
                               if isinstance(node, ast.Import)
                               for alias in node.names
                               if alias.name == "itertools" and alias.asname}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in COSET_HELPERS:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and (
                node.attr in COSET_HELPERS
                or (node.attr in ITERTOOLS_ENUMERATIONS
                    and isinstance(node.value, ast.Name) and node.value.id in modules)):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            names = COSET_HELPERS | (ITERTOOLS_ENUMERATIONS
                                     if node.module == "itertools" else set())
            if any(alias.name in names for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "symcomb.py"], ids=lambda p: p.name)
def test_cosets_are_enumerated_in_symcomb_alone(path):
    assert coset_enumerations(path.read_text(encoding="utf-8")) == []


def test_coset_enumeration_guard_sees_each_form():
    source = "\n".join([
        "from .symcomb import coset_reps, increasing_on_blocks",
        "ok = symcomb.increasing_on_blocks(w, lam)",
        "from itertools import combinations, product",
        "import itertools as it",
        "it.permutations(x)",
        "itertools.combinations(x, 2)",
        "from itertools import product as iproduct",
        "itertools.product(a, b)",
        "coset_reps(nu, 'right', lam)",
        "permutations = sympy.permutations(3)",
    ])
    assert coset_enumerations(source) == [1, 2, 3, 5, 6]


# A rational scalar is an int when integral, and int / int is a float, so
# scalars are divided in coeff_ring alone, which builds a Fraction from two
# ints (echelon_pivots).
TRUE_DIVISIONS = {"truediv", "itruediv", "__truediv__", "__rtruediv__", "__itruediv__"}


def true_divisions(source):
    """Line numbers where source divides with ``/`` or ``/=``, or refers to
    operator.truediv or a __truediv__ method by name, as an attribute or in
    an import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id in TRUE_DIVISIONS
              or isinstance(node, ast.Attribute) and node.attr in TRUE_DIVISIONS):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in TRUE_DIVISIONS for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "coeff_ring.py"], ids=lambda p: p.name)
def test_scalars_are_divided_in_coeff_ring_alone(path):
    assert true_divisions(path.read_text(encoding="utf-8")) == []


def test_true_division_guard_sees_each_form():
    source = "\n".join([
        "f = a / b",
        "x /= 2",
        "from operator import add, truediv",
        "g = operator.truediv(a, b)",
        "h = a.__truediv__(b)",
        "k = a // b",
        "x //= 2",
        "def __truediv__(self, other): pass",
        "s = '/'",
        "op = ast.Div",
    ])
    assert true_divisions(source) == [1, 2, 3, 4, 5]


# A sum of terms renders through coeff_ring.signed_join alone, which writes
# " - " before a negative term.
PLUS_SEPARATOR = " + "


def plus_joins(source):
    """Line numbers where source joins strings with " + ": a call of
    ``" + ".join`` or of ``str.join`` with " + " as its separator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Name) and owner.id == "str" and node.args:
            owner = node.args[0]
        if isinstance(owner, ast.Constant) and owner.value == PLUS_SEPARATOR:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sums_render_through_signed_join(path):
    assert plus_joins(path.read_text(encoding="utf-8")) == []


def test_plus_join_guard_sees_each_form():
    source = "\n".join([
        "s = ' + '.join(parts)",
        "s = \" + \".join(str(t) for t in terms)",
        "s = str.join(' + ', parts)",
        "s = signed_join(parts)",
        "s = ', '.join(parts)",
        "s = '+'.join(parts)",
        "s = sep.join(parts)",
        "s = f'{a} + {b}'",
    ])
    assert plus_joins(source) == [1, 2, 3]


# A scalar enters a field through Field.coerce, and rationals are built and
# read in coeff_ring alone: no other module names Fraction, the fractions
# module or coeff_ring's _rational.
SCALAR_CONVERSIONS = {"Fraction", "fractions", "_rational"}


def scalar_conversions(source):
    """Line numbers where source references Fraction, the fractions module
    or _rational: by name, as an attribute or in an import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id in SCALAR_CONVERSIONS
                or isinstance(node, ast.Attribute) and node.attr in SCALAR_CONVERSIONS):
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) in SCALAR_CONVERSIONS
                or any(alias.name in SCALAR_CONVERSIONS for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "coeff_ring.py"], ids=lambda p: p.name)
def test_scalars_are_converted_in_coeff_ring_alone(path):
    assert scalar_conversions(path.read_text(encoding="utf-8")) == []


def test_scalar_conversion_guard_sees_each_form():
    source = "\n".join([
        "from fractions import Fraction",
        "import fractions",
        "from .coeff_ring import Field, _rational",
        "c = Fraction(1, 2)",
        "c = fractions.Fraction(1, 2)",
        "ok = isinstance(c, coeff_ring.Fraction)",
        "c = coeff_ring._rational(x)",
        "from fractions import Fraction as F",
        "c = field.coerce(x)",
        "'''Fraction-free'''",
        "rational = Fractional(x)",
        "s = 'Fraction'",
    ])
    assert scalar_conversions(source) == list(range(1, 9))
