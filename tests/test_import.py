import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by_import(*packages: str) -> list[str]:
    """The modules of ``packages`` that ``import jointmix`` loads in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jointmix; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[2:])))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *packages], capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency; scipy is a test extra
    assert loaded_by_import("scipy") == []


def test_import_loads_no_process_pool():
    # mc_normality imports the pool only when it starts one
    assert loaded_by_import("multiprocessing", "concurrent") == []


def test_star_import_binds_no_submodule():
    import types

    import jointmix

    namespace = {}
    exec("from jointmix import *", namespace)
    assert "em_fit" in namespace and "ModelParams" in namespace
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert not {"data", "em", "params", "simulation"} & set(jointmix.__all__)


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
           "matches", "response_counts", "category_probs", "ordinal_loglik", "ordinal_score",
           "profile_score_obs", "m_step_pi", "observed_loglik"}


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


def scoped_nodes(path: Path):
    """``(scope, node)`` for every node of a source file: the qualified name of the
    innermost function or class whose body holds the node, or ``<module>``."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield f"{path.stem}.{scope}", child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), "<module>")


def enclosing_scopes(path: Path, name: str) -> set[str]:
    """Qualified names of the functions (or ``<module>``) whose own bodies call ``name``,
    directly or as a module attribute."""
    return {scope for scope, node in scoped_nodes(path)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_the_profile_score_is_evaluated_in_one_place():
    # Q is built for the M-step and for the profile point only; the chain rule
    # from phi to its free scores stays behind ParamLayout.grad_to_opt
    modules = sorted((SRC / "jointmix").glob("*.py"))
    built = set().union(*(enclosing_scopes(path, "_CollapsedQ") for path in modules))
    assert built == {"inference._profile_point", "em.m_step_theta"}
    for path in modules:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert ("_phi_chain" in names) == (path.name == "params.py"), path.name


def test_the_breslow_quotient_is_taken_in_one_place():
    # the event counts on the whole distinct-time grid stay inside PackedData; the
    # kernels read its event-time constants, and only breslow_steps divides an
    # event count by a risk-set total
    counts = {"event_counts", "slot_counts"}
    readers, quotients = set(), set()
    for path in sorted((SRC / "jointmix").glob("*.py")):
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Attribute) and node.attr == "event_counts":
                readers.add(path.name)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and counts & {
                    sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}:
                quotients.add(scope)
    assert readers == {"data.py"}
    assert quotients == {"survival.breslow_steps"}


def ordinal_loglik_callers(path: Path) -> set[str]:
    """Scopes of a source file that call ``ordinal.loglik_matrix``: through a name the
    file binds to the ``ordinal`` module or to the function, or by name in ordinal.py."""
    modules, functions = set(), {"loglik_matrix"} if path.name == "ordinal.py" else set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name == "ordinal":
                    modules.add(alias.asname or alias.name)
                elif node.module == "ordinal" and alias.name == "loglik_matrix":
                    functions.add(alias.asname or alias.name)
    return {scope for scope, node in scoped_nodes(path) if isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in functions
        or getattr(node.func, "attr", None) == "loglik_matrix"
        and getattr(node.func.value, "id", None) in modules)}


def test_every_posterior_is_one_fixed_point_step():
    # the terms that stay fixed at fixed parameters are formed in one place, and the
    # responsibilities only in the E-step and in the fixed-point solve that iterates it
    modules = sorted((SRC / "jointmix").glob("*.py"))
    parts = set().union(*(enclosing_scopes(path, "_posterior_parts") for path in modules))
    assert parts == {"likelihood._posterior_matrix", "inference._solve_fixed_point"}
    assert set().union(*map(ordinal_loglik_callers, modules)) == {"likelihood._fixed_terms"}
    defined = {node.name for path in modules for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_fixed_terms" in defined
    assert not {"true_posterior", "_loglik_components"} & defined


def test_every_hazard_is_read_by_cum():
    # a hazard is an object with cum(t): no kernel branches on its form, and only
    # survival.loglik_matrix, which takes the profiled event jumps, asks for the tables
    modules = sorted((SRC / "jointmix").glob("*.py"))
    defined = {node.name for path in modules for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "RiskSetTables" in defined
    assert not {"_grid_cum", "_grid_steps", "InvalidHazardError"} & defined
    checks = {scope for path in modules for scope, node in scoped_nodes(path)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and "RiskSetTables" in {getattr(sub, "id", getattr(sub, "attr", None))
                                      for sub in ast.walk(node.args[1])}}
    assert checks == {"survival.loglik_matrix"}
