"""Checks on the package source itself."""

import ast
import importlib
import inspect
from pathlib import Path

from shopmission import NUMBERS, ShopmissionError, kmeans, pipeline
from shopmission.cli import CONFIG_KEYS

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


def open_mode(node):
    """The mode of an ``open(...)`` call ("r" when not given), else None;
    a mode that is not a constant reads as "?"."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return None
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    mode = node.args[1] if len(node.args) > 1 else (modes or [None])[0]
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else "?"


def is_text_mode_open(node):
    mode = open_mode(node)
    return mode is not None and "b" not in mode


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


def test_no_module_calls_einsum():
    # kmeans._sum_squares owns the order in which every squared distance
    # adds up; einsum adds in whatever order the SIMD kernel that a numpy
    # build picks uses.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "einsum"
        or isinstance(node, ast.Name) and node.id == "einsum"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "einsum" for alias in node.names)
    ]
    assert not found, f"einsum in the package: {found}"


def test_no_module_calls_id():
    # An object's identity is no key for a value: equal values read from
    # two places are two objects. The Dataset indexes distinct values
    # instead, as it does customers and timestamps.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]
    assert not found, f"id() calls in the package: {found}"


def uses_outside(functions, uses):
    """``path:line`` of each node that ``uses(tree)`` yields outside the
    top-level functions of txmodel.py named in ``functions``, and whether
    every one of those functions has such a node."""
    allowed, found = set(), []
    for path, tree in package_trees():
        if path.name == "txmodel.py":
            inside = {
                fn.name: {id(node) for node in uses(fn)}
                for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name in functions
            }
            allowed = set().union(*inside.values())
            every = set(functions) == {f for f, ids in inside.items() if ids}
        found += [
            f"{path.name}:{node.lineno}"
            for node in uses(tree) if id(node) not in allowed
        ]
    return found, every


def test_files_are_written_only_by_write_csv_and_write_text():
    # One place decides the encoding and line ends of every output file.
    def write_opens(tree):
        for node in ast.walk(tree):
            mode = open_mode(node)
            if mode is not None and set(mode) & set("wax+?"):
                yield node

    found, every = uses_outside({"write_csv", "write_text"}, write_opens)
    assert every, "write_csv or write_text no longer opens a file to write"
    assert not found, f"write-mode open() outside txmodel's writers: {found}"


def csv_uses(names):
    """A function yielding the nodes of a tree that reach one of the ``csv``
    module's ``names``: ``csv.<name>`` attributes, and ``from csv import``
    of one."""
    def uses(tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "csv"):
                yield node
            elif (isinstance(node, ast.ImportFrom) and node.module == "csv"
                  and any(alias.name in names for alias in node.names)):
                yield node

    return uses


def test_csv_files_are_written_only_by_write_csv():
    # One writer keeps every output CSV in one format: header row, "\r\n"
    # line ends, floats as shortest round-trip decimals.
    found, every = uses_outside(
        {"write_csv"}, csv_uses({"writer", "DictWriter"})
    )
    assert every, "txmodel.write_csv no longer calls csv.writer"
    assert not found, f"csv writers outside txmodel.write_csv: {found}"


def test_csv_files_are_read_only_by_open_csv():
    # One reader checks every input CSV alike: a strict parser, the header,
    # and errors that name the file and its line.
    found, every = uses_outside(
        {"open_csv"}, csv_uses({"reader", "DictReader"})
    )
    assert every, "txmodel.open_csv no longer calls csv.reader"
    assert not found, f"csv readers outside txmodel.open_csv: {found}"


def test_only_txmodel_imports_csv():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees() if path.name != "txmodel.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    ]
    assert not found, f"csv imported outside txmodel: {found}"


def module_level_nodes(tree):
    """The nodes that run when the module is imported: all but those inside
    function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_hashlib_when_imported():
    # hashlib maps a few MB of OpenSSL; a run loads it only once its big
    # arrays are freed, in the function that hashes.
    names = {"hashlib", "_hashlib"}
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_trees()
        for node in module_level_nodes(tree)
        if isinstance(node, ast.Import)
        and any(alias.name in names for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module in names
    ]
    assert not found, f"hashlib imported at module level: {found}"


# The library functions that each config key feeds, as a keyword argument.
CONFIG_FEEDS = {
    "tol": [kmeans.kmeans_fit],
    "n_init": [kmeans.kmeans_fit],
    "max_iter": [kmeans.kmeans_fit],
    "dominance_threshold": [pipeline.run_pps, pipeline.run_sm],
    "value_weight": [pipeline.run_sm, pipeline.stage1_matrix],
    "standardize_rfm": [pipeline.run_rfm, pipeline.rfm_matrix],
}


def number_call_names():
    """``(path:line, name)`` for each row name that a ``number(...)`` or
    ``number_list(...)`` call in the package gives as its first argument: a
    string literal, or for ``number_list`` a tuple of them. The name is None
    where the argument is neither."""
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("number", "number_list")):
                continue
            first = node.args[0] if node.args else None
            names = [first]
            if node.func.id == "number_list" and isinstance(first, ast.Tuple):
                names = first.elts
            found += [
                (f"{path.name}:{node.lineno}",
                 name.value if isinstance(name, ast.Constant)
                 and isinstance(name.value, str) else None)
                for name in names
            ]
    return found


def test_every_numbers_row_is_checked_and_every_check_has_a_row():
    # A row no call names is dead; a call naming no row raises a KeyError,
    # a traceback, the first time it runs.
    names = number_call_names()
    assert names, "no number() calls in the package"
    unknown = [(at, name) for at, name in names
               if name is not None and name not in NUMBERS]
    assert not unknown, f"number() names without a NUMBERS row: {unknown}"
    dead = set(NUMBERS) - {name for _, name in names}
    assert not dead, f"NUMBERS rows that no number() call names: {dead}"


def test_every_config_key_has_one_default_in_the_library():
    # A key the config file leaves out takes the default of the function it
    # feeds; the functions that one key feeds agree on it.
    assert sorted(CONFIG_FEEDS) == sorted(CONFIG_KEYS)
    # Every key parses as the kind that NUMBERS gives it, and its range is
    # the one in NUMBERS, so the CLI states no kind or range of its own.
    assert set(CONFIG_KEYS) <= set(NUMBERS)
    for key, functions in CONFIG_FEEDS.items():
        defaults = set()
        for fn in functions:
            param = inspect.signature(fn).parameters.get(key)
            assert param is not None and param.kind in (
                param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY
            ), f"{fn.__name__} takes no keyword {key}"
            assert param.default is not param.empty, (
                f"{fn.__name__}'s {key} has no default"
            )
            defaults.add(param.default)
        assert len(defaults) == 1, f"{key} has defaults {defaults}"


def test_cli_reads_no_config_default():
    # cli.py passes on only the keys a config file sets, so it never names
    # a default of its own.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "config"
    ]
    assert not found, f"config.get( calls in the CLI: {found}"


def package_exception_classes():
    """Every exception class defined at the top level of a package module."""
    for path, _ in package_trees():
        name = f"shopmission.{path.stem}".removesuffix(".__init__")
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_package_exception_is_a_shopmission_error():
    # The CLI catches ShopmissionError, so a new module error reaches the
    # user as one error: line, not a traceback.
    classes = set(package_exception_classes())
    assert ShopmissionError in classes
    found = {cls.__name__ for cls in classes
             if not issubclass(cls, ShopmissionError)}
    assert not found, found


def handler_names(node):
    """The class names that an ``except`` clause lists (none for a bare
    ``except``)."""
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return [
        t.attr if isinstance(t, ast.Attribute) else t.id
        for t in types if t is not None
    ]


def test_cli_catches_the_base_class_only():
    # A handler naming a subclass would be a second list of error classes to
    # keep up to date; main catches the base class and OSError, and nothing
    # else in the CLI names a package error.
    subclasses = {
        cls.__name__ for cls in package_exception_classes()
        if issubclass(cls, ShopmissionError) and cls is not ShopmissionError
    }
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and set(handler_names(node)) & subclasses
    ]
    assert not found, f"except clauses in cli.py name a subclass: {found}"
    main = next(
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == "main"
    )
    [handler] = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert handler_names(handler) == ["ShopmissionError", "OSError"]
