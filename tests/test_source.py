"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shopmission"


def package_trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths
    ]


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant the package
    # relies on must raise a real exception instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def is_text_mode_open(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    mode = node.args[1] if len(node.args) > 1 else (modes or [None])[0]
    return not (isinstance(mode, ast.Constant) and "b" in mode.value)


def test_every_text_mode_open_names_its_encoding():
    # Without encoding=, a text file is read and written in the locale's
    # encoding, so the output bytes would depend on the machine.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees()
        for node in ast.walk(tree)
        if is_text_mode_open(node)
        and not any(kw.arg == "encoding" for kw in node.keywords)
    ]
    assert not found, f"open() without encoding= in the package: {found}"


CSV_WRITERS = {"writer", "DictWriter"}


def csv_writer_uses(tree):
    """Nodes that reach a ``csv`` writer: ``csv.writer`` or
    ``csv.DictWriter`` attributes, and ``from csv import`` of either."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CSV_WRITERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "csv" and any(
            alias.name in CSV_WRITERS for alias in node.names
        ):
            yield node


def test_csv_files_are_written_only_by_write_csv():
    # One writer keeps every output CSV in one format: header row, "\r\n"
    # line ends, floats as shortest round-trip decimals.
    allowed = set()
    found = []
    for path, tree in package_trees():
        if path.name == "txmodel.py":
            allowed = {
                id(node)
                for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "write_csv"
                for node in csv_writer_uses(fn)
            }
        found += [
            f"{path.name}:{node.lineno}"
            for node in csv_writer_uses(tree) if id(node) not in allowed
        ]
    assert allowed, "txmodel.write_csv no longer calls csv.writer"
    assert not found, f"csv writers outside txmodel.write_csv: {found}"
