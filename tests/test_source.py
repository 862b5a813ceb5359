"""Checks on the package source itself."""

import ast
import builtins
import importlib
import sys
from pathlib import Path

import diraclab
from diraclab import errors, pipeline
from diraclab.hypercore import Hypergraph


def test_no_assert_statements():
    # python -O strips assert statements, so every re-verification in the
    # package has to be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(diraclab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def test_all_names_are_defined():
    # a deleted function must leave __all__ too, or `import *` breaks
    missing = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if _is_all(node):
                defined = _top_level_names(tree)
                missing += [
                    f"{path.name}:{name}"
                    for name in ast.literal_eval(node.value)
                    if name not in defined
                ]
    assert missing == []


def test_public_names_are_in_all():
    # a module that declares __all__ lists every public class and function
    # in it, so `import *` and the callers test see the whole surface
    missing = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in filter(_is_all, tree.body):
            listed = set(ast.literal_eval(node.value))
            missing += [
                f"{path.stem}.{top.name}"
                for top in tree.body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not top.name.startswith("_")
                and top.name not in listed
            ]
    assert missing == []


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names, attributes, imported names and string constants (the bench's
    span targets name functions by string), outside ``__all__``."""
    found: set[str] = set()
    for top in tree.body:
        if _is_all(top):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


BENCH = Path(__file__).resolve().parents[1] / "diracbench"


def _package_trees_and_used_names() -> tuple[dict[Path, ast.Module], set[str]]:
    """The package's parsed modules, and every name that the package or the
    bench references."""
    package = sorted(Path(diraclab.__file__).parent.glob("*.py"))
    bench = sorted(BENCH.glob("*.py"))
    assert bench
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + bench}
    used = set().union(*map(_referenced_names, trees.values()))
    return {path: trees[path] for path in package}, used


def test_public_functions_have_callers():
    # a public function, or a public method of a class in __all__, that only
    # its own tests call is dead surface. The exceptions have only test
    # callers today: criterion 8 checks the subset condition directly, the
    # rest are the sandwich and barrier certificates, the load check, and
    # the report reader and config writer, the halves of the two file
    # formats that the CLI does not use
    trees, used = _package_trees_and_used_names()
    found = set()
    for path, tree in trees.items():
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in filter(_is_all, tree.body):
            for name in ast.literal_eval(node.value):
                if name in functions and name not in used:
                    found.add(f"{path.stem}.{name}")
                found.update(
                    f"{path.stem}.{name}.{item.name}"
                    for item in getattr(classes.get(name), "body", ())
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in used
                )
    assert found == {
        "matchpower.aharoni_haxell_holds",
        "thresholds.verify_threshold_sandwich",
        "thresholds.parity_barrier_set",
        "lab.neighborhood_load_check",
        "lab.dumps_config",
        "lab.parse_table",
    }


def test_private_definitions_have_callers():
    # a private function or class that only the tests call is test code:
    # it belongs under tests/, not in the package
    trees, used = _package_trees_and_used_names()
    found = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert found == []


def test_bench_span_targets_exist():
    # the bench tracer wraps each (module, function) pair by getattr, so a
    # renamed or moved target would crash every traced run
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"diraclab.{module}"), name, None))
    ]
    assert missing == []


def test_host_stages_do_not_import_induced():
    # the block, pipeline and template stages read the host in place; a
    # relabelled copy and its map back must not return
    pkg = Path(diraclab.__file__).parent
    found = []
    for name in ("pipeline", "matchpower", "templates"):
        tree = ast.parse((pkg / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "induced" for a in node.names):
                found.append(f"{name}.py:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "induced":
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_budgeted_loops_are_the_known_two():
    # a loop bounded by a budget compares a running count with the name
    # `budget`; these are the exact-cover kernel and the rooted-absorber
    # walk, whose budgets callers set, and a new hand-rolled one must not
    # appear beside them
    pkg = Path(diraclab.__file__).parent
    found = set()
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left, *node.comparators]
                for op, a, b in zip(node.ops, sides, sides[1:]):
                    if isinstance(op, (ast.Gt, ast.Lt)) and any(
                        isinstance(x, ast.Name) and x.id == "budget" and not isinstance(y, ast.Constant)
                        for x, y in ((a, b), (b, a))
                    ):
                        found.add(f"{path.stem}.{top.name}")
    assert found == {"absorbing.find_rooted_absorber", "matchpower._pm_searcher"}


def test_kernel_loop_maps_no_methods():
    # on 160- to 500-bit masks, map(avail.__and__, map(inc.__getitem__,
    # live)) and the like ran 1.6-1.8x slower than a list comprehension
    # over the same columns; the kernel's search loop counts in bytecode
    tree = ast.parse((Path(diraclab.__file__).parent / "matchpower.py").read_text(encoding="utf-8"))
    kernel = next(n for n in tree.body if getattr(n, "name", None) == "_pm_searcher")
    loops = [n for n in ast.walk(kernel) if isinstance(n, ast.While)]
    assert loops
    found = [
        f"matchpower.py:{node.lineno}"
        for loop in loops
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "map"
        and isinstance(node.args[0], ast.Attribute)
    ]
    assert found == []


def test_no_nested_function_calls_itself():
    # a nested function that names itself holds a cell pointing back at
    # itself, so every call leaves a reference cycle for the collector;
    # searches are loops over explicit stacks, or module-level functions
    found = set()
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        todo = [(path.stem, ast.parse(path.read_text(encoding="utf-8")), False)]
        while todo:
            prefix, node, in_function = todo.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    todo.append((prefix, child, in_function))
                    continue
                name = f"{prefix}.{child.name}"
                if in_function and any(
                    isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)
                ):
                    found.add(name)
                todo.append((name, child, isinstance(child, ast.FunctionDef)))
    assert found == set()


def test_one_report_type_names_a_violating_candidate():
    # the subset condition and both template removal checks report through
    # one sweep; a second report type for the same facts must not return
    found = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name) and f.target.id == "violating"
                for f in node.body
            ):
                found.append(f"{path.stem}.{node.name}")
    assert found == ["matchpower.SweepReport"]


def _names_a_seed(node: ast.AST) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "seed" in name


def test_seeds_are_derived_not_computed():
    # every trial or stage stream is Random(derived_seed(seed, i)); integer
    # arithmetic on a seed (seed * c + t, 2 * seed + 1) lets two streams
    # collide. The pipeline's seed + attempt is the one deferred exception
    found = set()
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            name = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and any(map(_names_a_seed, (node.left, node.right))):
                    found.add(name)
                elif isinstance(node, ast.AugAssign) and _names_a_seed(node.target):
                    found.add(name)
                elif "_trial_seed" in (getattr(node, "name", None), getattr(node, "id", None)):
                    found.add(f"{name}:_trial_seed")
    assert found == {"pipeline.dirac_perfect_matching"}


def test_one_absorber_type_and_no_cached_edge_set():
    # an r-absorber is an Absorber on r*k roots, checked by the one
    # verify_absorber; host edges are looked up by has_edge's binary search,
    # so no host-wide edge set is cached beside the sorted edge tuple
    found = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "Absorber" for b in node.bases
            ):
                found.append(f"{path.stem}.{node.name}")
    assert found == []
    assert not hasattr(Hypergraph, "edge_set")


def test_hypergraphs_are_built_through_the_validator():
    # every Hypergraph goes through __post_init__'s check; a "trusted" fast
    # path that sets fields behind it (object.__setattr__, object.__new__,
    # dataclasses.replace) must not appear
    bypasses = {
        ("object", "__setattr__"),
        ("object", "__new__"),
        ("Hypergraph", "__new__"),
        ("cls", "__new__"),
        ("dataclasses", "replace"),
    }
    found = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) in bypasses:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses" and any(
                a.name == "replace" for a in node.names
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports():
    # an import that nothing in the file reads is dead; a name re-exported
    # through the module's __all__ counts as read
    found = []
    pkg, tests = Path(diraclab.__file__).parent, Path(__file__).parent
    for path in sorted(pkg.glob("*.py")) + sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in filter(_is_all, tree.body):
            read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{name}"
                    for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in read
                ]
    assert found == []


def test_imports_are_the_package_or_the_standard_library():
    # the package runs on the standard library alone: every import is
    # relative or names a standard module, so numpy stays a test dependency
    found = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_one_failure_vocabulary():
    # a search that comes back empty raises NotFound, a broken precondition
    # SizeError, and a pipeline stage StageFailure, which the pipeline's one
    # handler records; no per-site failure type returns beside them, and
    # every stage named is a report key, given as a constant
    assert errors.__all__ == [
        "DiracLabError",
        "SizeError",
        "ShapeError",
        "FormatError",
        "NotFound",
        "StageFailure",
    ]
    stages, found = set(), []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "StageFailure":
                stage = node.args[0] if node.args else None
                if isinstance(stage, ast.Constant) and stage.value in pipeline.STAGES:
                    stages.add(stage.value)
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert stages == set(pipeline.STAGES)



def _nodes_with_function(tree: ast.Module):
    """Every node with the name of the innermost function around it ("" at
    module level)."""
    stack = [("", tree)]
    while stack:
        owner, node = stack.pop()
        yield owner, node
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def _resolve(module, node: ast.AST):
    """What a name or dotted name in ``module`` stands for, or None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(module, node.value), node.attr, None)
    return None


def _is_exception_class(value) -> bool:
    return isinstance(value, type) and issubclass(value, BaseException)


def test_errors_owns_every_exception_class():
    # no module but errors defines an exception class or binds one under
    # another name, and every exception the package builds, raised at once
    # or kept and raised later, is one of errors.__all__. Two builtins stay:
    # argparse wants its own error from a flag's type function, and
    # NotFound's guard on its reason is a programming error, not a failure
    allowed = {("cli", "_count", "ArgumentTypeError"), ("errors", "__init__", "ValueError")}
    vocabulary = set(errors.__all__)
    seen, found = set(), []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"diraclab.{path.stem}")
        found += [
            f"{path.name}:{name}"
            for name, value in vars(module).items()
            if _is_exception_class(value) and not (name in vocabulary and value.__name__ == name)
        ]
        for owner, node in _nodes_with_function(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                if path.stem != "errors" and any(
                    _is_exception_class(_resolve(module, base)) for base in node.bases
                ):
                    found.append(f"{path.name}:{node.lineno}:class {node.name}")
                continue
            if isinstance(node, ast.Call):
                cls = _resolve(module, node.func)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                cls = _resolve(module, node.exc)
            else:
                continue
            if not _is_exception_class(cls) or (
                cls.__name__ in vocabulary and getattr(errors, cls.__name__) is cls
            ):
                continue
            key = (path.stem, owner, cls.__name__)
            if key in allowed:
                seen.add(key)
            else:
                found.append(f"{path.name}:{node.lineno}:{cls.__name__}")
    assert found == []
    assert seen == allowed


def test_only_hypercore_opens_files():
    # every file goes through hypercore.read_text or write_text, which fix
    # the encoding at UTF-8 and turn undecodable bytes into a FormatError;
    # the builtin open and a Path's (or io's, or os's) file methods appear
    # nowhere else, called or passed on
    file_methods = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    found = set()
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for owner, node in _nodes_with_function(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "open") or (
                isinstance(node, ast.Attribute) and node.attr in file_methods
            ):
                found.add(f"{path.stem}.{owner}")
    assert found == {"hypercore.read_text", "hypercore.write_text"}


def _is_combinations_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "combinations" or getattr(node.func, "attr", None) == "combinations"
    )


def test_edge_tuples_are_not_grown_from_combinations():
    # tuple() on an iterator with no length hint grows by resizing, which
    # puts the half-built tuple back among the collector's youngest objects,
    # so each collection the new edges trigger walks it again; bulk edges
    # go through a list first. A combinations(...) call, or a generator
    # expression that iterates one, must not be passed straight to tuple()
    found = []
    for path in sorted(Path(diraclab.__file__).parent.glob("*.py")):
        for owner, node in _nodes_with_function(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple" and node.args):
                continue
            (arg,) = node.args
            if _is_combinations_call(arg) or (
                isinstance(arg, ast.GeneratorExp)
                and any(_is_combinations_call(gen.iter) for gen in arg.generators)
            ):
                found.append(f"{path.stem}.{owner}:{node.lineno}")
    assert found == []
