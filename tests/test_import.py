import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # scipy.optimize at module top adds about 0.4 s and 50 MB to every import;
    # the L-BFGS-B fallback imports it only when it runs
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


def test_em_is_imported_by_neither_inference_nor_likelihood():
    # em imports both; an import back would make a cycle
    package = SRC / "jointmix"
    assert "jointmix.inference" in imported_modules(package / "em.py")
    for name in ("inference.py", "likelihood.py"):
        found = {m for m in imported_modules(package / name)
                 if m == "jointmix.em" or m.startswith("jointmix.em.")}
        assert not found, f"{name} imports {sorted(found)}"
