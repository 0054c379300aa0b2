"""Rule 1 of the design, checked over the import graph: a route never
borrows another route's kernel, except as its oracle.

Each module may import only from the modules its ``MODULE_EDGES`` row
names.  Each top-level function, class and constant of those modules sits
in exactly one ``ROUTES`` row, which says what it may read from outside
its row.  A read is a use of a name bound by a module-level ``from
hookpart... import``, of an attribute of a module bound that way, or of a
top-level name of the same module placed in another row: a row reads what
it would have to import if it were a module of its own.  Only the
cross-route verifiers, which set one route against another, read freely.
The package is imported at module level only, never inside a function
or a block.  Source is read with ``ast``; nothing of the package is
imported here.
"""

import ast
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hookpart"
SOURCES = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}

# the modules each module may import from; the command line and the package
# namespace assemble every route, so they are checked for local imports only
MODULE_EDGES = {
    "reports": set(),
    "qseries": {"reports"},
    "partitions": {"qseries"},  # for box_gf_brute, fact 3's oracle, alone
    "explorer": {"partitions", "reports"},
    "statistics": {"partitions", "qseries", "reports"},
    "anatomy": {"partitions", "qseries", "reports", "statistics"},
}
EXEMPT = {"__init__", "__main__", "cli"}


def _names(module, names):
    return {f"{module}.{name}" for name in names.split()}


# row -> (its members, what they may read outside the row, or None for
# anything); an entry is a module, for all of it, or "module.name"
ROUTES = {
    "reports": ({"reports"}, set()),
    "partition walk": (
        _names("partitions", "CellStats partitions_of runs_of count_partitions conjugate")
        | _names("partitions", "cell_stats cells"),
        set(),
    ),
    "brute box": (_names("partitions", "box_partitions box_gf_brute"), {"qseries.QSeries"}),
    "part-floor recursion": (
        _names("statistics", "PAIR_STATS CELL_STATS _Tallies PairMultiset _check_pair_stat")
        | _names("statistics", "_add_bottom_row _floors _sweep build_pair_multiset count_pair")
        | _names("statistics", "stat_polynomial _poly_from_pairs verify_theorem1 verify_identity1"),
        {"reports"},
    ),
    "series route": (
        {"qseries"}
        | _names("anatomy", "AnatomyFactors _check_corner_args anatomy_factors anatomy_gf")
        | _names("anatomy", "min_degree corner_placements _euler_box_head _corner_rows")
        | _names("anatomy", "_chain_stage0 _chain_stage1 _chain_stage2 _chain_stage3")
        | _names("anatomy", "_CHAIN_STAGES proof_chain"),
        {"qseries", "reports"},
    ),
    # the argument check is shared with the series route's corner functions
    "brute corners": (
        _names("anatomy", "_corner_counts corner_count_brute"),
        {"partitions.runs_of", "anatomy._check_corner_args"},
    ),
    # never the verifier's oracle, partitions.cells or partitions_of
    "matching build": (
        _names("explorer", "CellRef IdentityViolation Matching MatchingTable _column_heights")
        | _names("explorer", "matching_table canonical_matching"),
        {"partitions.runs_of", "reports"},
    ),
    "cross-route verifiers": (
        _names("statistics", "verify_lemma verify_fact3 verify_fact4")
        | _names("anatomy", "verify_anatomy")
        | _names("explorer", "verify_matching _cell_columns _position"),
        None,
    ),
}


def _rows_of(module, name):
    entries = (module, f"{module}.{name}")
    return [row for row, (members, _) in ROUTES.items() if not members.isdisjoint(entries)]


def _touches_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "hookpart"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "hookpart" for alias in node.names)
    return False


def _bound(node):
    """What a module-level ``from hookpart... import`` binds: bound name ->
    (module, name), name None where a module itself is bound.  None for any
    other form of package import, which this check cannot follow."""
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "hookpart":
            return {alias.asname or alias.name: (alias.name, None) for alias in node.names}
        if node.module.startswith("hookpart."):
            module = node.module.removeprefix("hookpart.")
            return {alias.asname or alias.name: (module, alias.name) for alias in node.names}
    return None


def _defines(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        nodes = [node for target in targets for node in ast.walk(target)]
        return [node.id for node in nodes if isinstance(node, ast.Name)]
    return []


def _reads(stmt, module, bound, own):
    """The package names a top-level statement reads, as (module, name),
    name None where a module object is used whole."""
    if isinstance(stmt, ast.Assign):
        parts = [stmt.value]
    elif isinstance(stmt, ast.AnnAssign):
        parts = [stmt.annotation, stmt.value]
    else:
        parts = [stmt]
    nodes = [node for part in parts if part is not None for node in ast.walk(part)]
    local = set()
    for n in nodes:
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            local.add(n.id)
        elif isinstance(n, ast.arg):
            local.add(n.arg)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n is not stmt:
            local.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            local.update(alias.asname or alias.name.split(".")[0] for alias in n.names)
    reads, attribute_of = set(), set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = bound.get(node.value.id)
            if node.value.id not in local and target is not None and target[1] is None:
                reads.add((target[0], node.attr))
                attribute_of.add(node.value)
    for node in nodes:
        if isinstance(node, ast.Name) and node.id not in local and node not in attribute_of:
            if node.id in bound:
                reads.add(bound[node.id])
            elif node.id in own:
                reads.add((module, node.id))
    return reads


def _permitted(read, row, allowed):
    module, name = read
    if module in allowed:
        return True
    return name is not None and (f"{module}.{name}" in allowed or row in _rows_of(module, name))


def findings(module, source):
    """Every breach of rule 1 in one module's source, one line each."""
    tree = ast.parse(source)
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names = _defines(stmt)
            owner = f"{module}.{', '.join(names)}" if names else f"{module}, line {stmt.lineno}"
            found += [
                f"{owner}: `{ast.unparse(node)}` below module level"
                for node in ast.walk(stmt)
                if _touches_package(node)
            ]
    if module not in MODULE_EDGES:
        return found
    bound = {}
    for stmt in tree.body:
        if _touches_package(stmt):
            names = _bound(stmt)
            if names is None:
                found.append(f"{module}: `{ast.unparse(stmt)}`; use `from hookpart... import`")
            else:
                bound.update(names)
    for other in sorted({source for source, _ in bound.values()} - MODULE_EDGES[module]):
        found.append(f"{module}: imports from {other}, which MODULE_EDGES does not allow")
    own = {name for stmt in tree.body for name in _defines(stmt)}
    for stmt in tree.body:
        names = _defines(stmt)
        docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        if not names and not docstring and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            found.append(f"{module}: line {stmt.lineno} is a top-level statement no row can hold")
        for name in names:
            rows = _rows_of(module, name)
            if len(rows) != 1:
                found.append(f"{module}.{name}: in {len(rows)} route rows, not one: {rows}")
                continue
            allowed = ROUTES[rows[0]][1]
            if allowed is None:
                continue
            for read in sorted(_reads(stmt, module, bound, own), key=str):
                if not _permitted(read, rows[0], allowed):
                    borrowed = read[0] if read[1] is None else ".".join(read)
                    found.append(f"{module}.{name} ({rows[0]}) borrows {borrowed}")
    return found


def test_every_module_has_an_edge_row():
    assert set(SOURCES) == set(MODULE_EDGES) | EXEMPT


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_keeps_rule_one(module):
    assert findings(module, SOURCES[module]) == []


def test_every_row_entry_names_a_package_name():
    defined = {
        module: {name for stmt in ast.parse(SOURCES[module]).body for name in _defines(stmt)}
        for module in MODULE_EDGES
    }
    for row, (members, allowed) in ROUTES.items():
        for entry in members | (allowed or set()):
            module, _, name = entry.partition(".")
            assert module in defined and (not name or name in defined[module]), (row, entry)


# synthetic modules, each with one breach the checker must name
BREACHES = {
    "kernel": (
        "statistics",
        """
        from hookpart.qseries import lemma_rhs

        def _sweep(n):
            return lemma_rhs(0, 0, n)
        """,
        ["statistics._sweep (part-floor recursion) borrows qseries.lemma_rhs"],
    ),
    "local-import": (
        "statistics",
        """
        def _sweep(n):
            from hookpart.qseries import one
            return one(n)
        """,
        ["statistics._sweep: `from hookpart.qseries import one` below module level"],
    ),
    "module-attribute": (
        "anatomy",
        """
        from hookpart import statistics

        def _chain_stage2(c, d, order):
            return statistics.count_pair(order, c, d, "arm-leg")
        """,
        ["anatomy._chain_stage2 (series route) borrows statistics.count_pair"],
    ),
    "same-module": (
        "statistics",
        """
        def _sweep(n):
            return verify_fact3(n, n)

        def verify_fact3(m, n):
            return m
        """,
        ["statistics._sweep (part-floor recursion) borrows statistics.verify_fact3"],
    ),
    "shadowed": (
        "statistics",
        """
        from hookpart.qseries import one

        def _sweep(n):
            one = n
            return one
        """,
        [],
    ),
    "edge": (
        "explorer",
        "from hookpart.qseries import one",
        ["explorer: imports from qseries, which MODULE_EDGES does not allow"],
    ),
    "unplaced": (
        "statistics",
        "def _sweep_again(n):\n    return n",
        ["statistics._sweep_again: in 0 route rows, not one: []"],
    ),
    "plain-import": (
        "statistics",
        "import hookpart.qseries",
        ["statistics: `import hookpart.qseries`; use `from hookpart... import`"],
    ),
}


@pytest.mark.parametrize("case", sorted(BREACHES))
def test_checker_names_each_breach(case):
    module, source, expected = BREACHES[case]
    assert findings(module, textwrap.dedent(source)) == expected
