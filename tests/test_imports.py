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
