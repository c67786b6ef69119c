"""Static checks over the package source."""

import ast
from pathlib import Path

from benchcode import load_bench
from rollhorizon.engine import run
from rollhorizon.instance_io import report_to_dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rollhorizon"
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(func):
    """Every node of func's body outside the functions, lambdas and classes
    it defines (their def and class statements included)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTION, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def top_level_names(tree):
    """(node, name) for each function, class or variable a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node, target.id


def test_every_imported_name_is_used():
    # __init__.py imports names only to export them
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_every_private_top_level_name_is_used():
    # a module-level _name that no code in the package reads is dead
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, node.lineno, name) for node, name in top_level_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [f"{file}:{line} {name}" for file, line, name in defined if name not in used] == []


def test_every_public_name_is_read_outside_the_tests():
    # a public top-level function, class or constant that only its own unit
    # test reads is dead weight; a read inside its own definition (a
    # recursive call) does not count, nor does __init__.py's re-export
    defined = []
    reads: dict[str, list[tuple[Path, int]]] = {}
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in sources + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.parent == SRC:
            defined += [(path, node.lineno, node.end_lineno, name)
                        for node, name in top_level_names(tree) if not name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = [f"{path.name}:{first} {name}" for path, first, last, name in defined
              if all(at == path and first <= line <= last
                     for at, line in reads.get(name, ()))]
    assert unread == []


def test_init_exports_exactly_what_it_imports():
    # a name imported but left out of __all__, or listed but no longer
    # imported, is a half-removed export
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(imported)


def test_recursive_closures_are_dropped():
    # a nested function that loads its own name holds itself through its
    # closure cell: unless the enclosing function deletes that name in a
    # finally, every call leaves the cycle, and the search state the
    # closure reaches, to the cyclic collector
    kept = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, FUNCTION):
                continue
            dropped = {target.id for node in own_nodes(func) if isinstance(node, ast.Try)
                       for stmt in node.finalbody for d in ast.walk(stmt)
                       if isinstance(d, ast.Delete)
                       for target in d.targets if isinstance(target, ast.Name)}
            for inner in own_nodes(func):
                if isinstance(inner, FUNCTION) and inner.name not in dropped and any(
                        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id == inner.name for node in ast.walk(inner)):
                    kept.append(f"{path.name}:{inner.lineno} {func.name}.{inner.name}")
    assert kept == []


def test_every_nested_function_is_referenced():
    # a helper defined inside a function that nothing else in that function
    # reads, its own body aside, is dead code a rewrite left behind
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, FUNCTION):
                continue
            for inner in own_nodes(func):
                if not isinstance(inner, FUNCTION):
                    continue
                inside = {id(node) for node in ast.walk(inner)}
                if not any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                           and node.id == inner.name and id(node) not in inside
                           for node in ast.walk(func)):
                    dead.append(f"{path.name}:{inner.lineno} {func.name}.{inner.name}")
    assert dead == []


def test_bench_tracer_names_exist():
    # the layer tracer patches solver names from outside, so a refactor
    # that drops one must fail here rather than in a traced benchmark run
    tracer = load_bench("layer_trace")
    missing = [f"{module.__name__}.{attr}" for module, attr, _span in tracer.WRAPPED
               if not hasattr(module, attr)]
    assert missing == []


def test_bench_tracer_runs_a_corpus_case():
    # the tracer also reads fields of the results it wraps (graph trips and
    # edges, assignment nodes, batch requests), so one traced run must count
    # every layer and leave the report as an untraced run writes it
    case = load_bench("workloads").corpus_cases(2)[0]
    tracer = load_bench("layer_trace").Tracer()
    traced = tracer.run(case)
    metrics = tracer.layer_metrics()
    for key in ("rtv.trips", "rtv.edges", "assignment.nodes", "engine.iterations"):
        assert metrics[key] > 0, key
    assert report_to_dict(traced) == report_to_dict(run(case.instance, case.config))


def test_records_are_never_assigned_to():
    # the records a re-solve builds are plain dataclasses, for speed, so
    # nothing but a method of the object itself may store or delete one of
    # its attributes, by name, through setattr or through its __dict__.
    # functools.cached_property stays out too: on Python 3.11 its first
    # read takes a lock, several times the cost of a plain cache
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                bad = not (isinstance(node.value, ast.Name) and node.value.id == "self")
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                bad = isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"
            elif isinstance(node, ast.Call):
                func = node.func
                bad = (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
                       or isinstance(func, ast.Attribute)
                       and (func.attr in ("__setattr__", "__delattr__")
                            or isinstance(func.value, ast.Attribute)
                            and func.value.attr == "__dict__"))
            else:
                bad = (isinstance(node, ast.Name) and node.id == "cached_property"
                       or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                       or isinstance(node, ast.alias) and node.name == "cached_property")
            if bad:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
