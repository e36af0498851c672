import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency; scipy is a test extra
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jointmix; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def imported_modules(path: Path) -> set[str]:
    """Every module a source file of the package imports, as a dotted name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["jointmix" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def unused_imports(source: str) -> set[str]:
    """Names a module's source imports but never reads; ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py is exempt: its imports are the package's re-exports
    modules = sorted(p for p in (SRC / "jointmix").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from .data import PackedData, SurvivalRecord\nPackedData\n"
                          ) == {"os", "SurvivalRecord"}
    for path in modules:
        unused = unused_imports(path.read_text())
        assert not unused, f"{path.name} never reads {sorted(unused)}"


ORACLES = {"cum_hazard", "risk_set_tables", "risk_aggregates", "profile_hazard", "survival_loglik",
           "survival_profile_score", "efficient_score_survival", "_record_sums", "time_slot",
           "matches", "ordinal_loglik", "ordinal_score", "profile_score_obs", "m_step_pi",
           "observed_loglik"}


def test_per_record_oracles_live_only_in_the_tests():
    import jointmix
    import oracles

    assert ORACLES <= set(vars(oracles))
    assert not ORACLES & set(jointmix.__all__)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jointmix"):
                found = ORACLES & {alias.name for alias in node.names}
                assert not found, f"{path.name} imports {sorted(found)} from {node.module}"


def test_em_is_imported_by_neither_inference_nor_likelihood():
    # em imports both; an import back would make a cycle
    package = SRC / "jointmix"
    assert "jointmix.inference" in imported_modules(package / "em.py")
    for name in ("inference.py", "likelihood.py"):
        found = {m for m in imported_modules(package / name)
                 if m == "jointmix.em" or m.startswith("jointmix.em.")}
        assert not found, f"{name} imports {sorted(found)}"


def test_no_module_imports_scipy():
    # a scipy import inside a function would pass test_import_loads_no_scipy
    modules = sorted((SRC / "jointmix").glob("*.py"))
    assert modules
    assert "scipy.special" in imported_modules(Path(__file__).parent / "test_likelihood.py")
    for path in modules:
        found = {m for m in imported_modules(path) if m == "scipy" or m.startswith("scipy.")}
        assert not found, f"{path.name} imports {sorted(found)}"
