"""Registry hygiene: the driver grades only the FIRST 50 queries() entries,
so the window must stay fully oracle-backed (rows-only queries belong
past 50), and every oracle key must have a query."""


def _entry():
    import __ray_entry__ as E

    return E


def test_graded_window_all_oracle_backed():
    E = _entry()
    names = list(E.queries())[:50]
    osql = E.oracle_sql()
    missing = [n for n in names if n not in osql]
    assert missing == [], missing


def test_bm25_contract_leads_the_window():
    E = _entry()
    head = list(E.queries())[:10]
    assert sum(1 for n in head if n.startswith("bm25_")) == 9
    assert "numeric_range_filter" in head


def test_every_oracle_has_a_query():
    E = _entry()
    qs = E.queries()
    dangling = [k for k in E.oracle_sql() if k not in qs]
    assert dangling == []


def test_every_op_module_has_a_non_test_caller():
    """Every ops/ and sources/ module is imported by package code or by
    __ray_entry__.py (not counting itself), so no module is left that only
    tests call. Parsed with ast; imports nothing, needs no Ray."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    pkg = root / "lucenenet_ray"
    imported: set[str] = set()
    for path in [*pkg.rglob("*.py"), root / "__ray_entry__.py"]:
        me = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            imported.update(n for n in names if n != me)
    modules = [f"lucenenet_ray.{sub}.{path.stem}"
               for sub in ("ops", "sources")
               for path in sorted((pkg / sub).glob("*.py"))
               if path.stem != "__init__"]
    orphans = [m for m in modules if m not in imported]
    assert orphans == [], orphans
