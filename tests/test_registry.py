"""Registry hygiene: the driver grades only the FIRST 50 queries() entries,
so the window must stay fully oracle-backed (rows-only queries belong
past 50), and every oracle key must have a query. No module or codec
function is left that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _non_test_sources() -> list[Path]:
    return [*(ROOT / "lucenenet_ray").rglob("*.py"), ROOT / "__ray_entry__.py"]


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
    pkg = ROOT / "lucenenet_ray"
    imported: set[str] = set()
    for path in _non_test_sources():
        me = ".".join(path.relative_to(ROOT).with_suffix("").parts)
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


def test_every_codec_function_has_a_non_test_caller():
    """Every public top-level function of ``index/codec.py`` is imported and
    used by another package module or by __ray_entry__.py, so the one
    postings format keeps no entry point that only tests call."""
    codec = ROOT / "lucenenet_ray" / "index" / "codec.py"
    public = [n.name for n in ast.parse(codec.read_text()).body
              if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
    used: set[str] = set()
    for path in _non_test_sources():
        if path == codec:
            continue
        tree = ast.parse(path.read_text())
        imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom)
                    and n.module == "lucenenet_ray.index.codec"
                    for a in n.names}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(f for local, f in imported.items() if local in names)
    orphans = [f for f in public if f not in used]
    assert public and orphans == [], orphans
