import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import dltf
from dltf import baselines, bench, core, encoder, guarantees, prox, trainer
from dltf.errors import DimensionMismatch

SRC = Path(dltf.__file__).resolve().parent


def _dictionary():
    return core.normalize_columns(np.random.default_rng(0).standard_normal((6, 8)))


def _data():
    return core.DataMatrix(np.random.default_rng(1).standard_normal((6, 5)))


NON_INTEGRAL_K = {
    "encode_batch": lambda: encoder.encode_batch(_dictionary(), _data(), 2.7),
    "max_k_columns": lambda: encoder.max_k_columns(np.ones((8, 3)), 2.7),
    "top_k_mask": lambda: encoder.top_k_mask(np.ones((8, 3)), 2.7),
    "prox_k2": lambda: prox.prox_k2(np.ones(8), 1.5, 1.0),
    "k2_norm_sq": lambda: prox.k2_norm_sq([3.0, 2.0, 1.0], 1.5),
    "SparseCodeBatch": lambda: core.SparseCodeBatch(np.eye(8), 2.7),
    "rip_constant_exhaustive": lambda: guarantees.rip_constant_exhaustive(_dictionary(), 2.7),
    "strong_norm_lower_bound": lambda: guarantees.strong_norm_lower_bound(
        0.01, 2.7, _dictionary(), np.zeros(6)),
    "Hyperparams": lambda: trainer.Hyperparams(m=8, k=2.7),
    "Hyperparams-whole-float": lambda: trainer.Hyperparams(m=8, k=4.0),
    "omp": lambda: baselines.omp(_dictionary(), np.ones(6), 2.7),
    "omp_batch": lambda: baselines.omp_batch(_dictionary(), _data(), 2.7),
    "ksvd_train": lambda: baselines.ksvd_train(_data(), 8, 2.7, iters=1),
    "generate_synthetic": lambda: bench.generate_synthetic(6, 8, 5, 2.7, 0.1, 0),
    "BenchConfig": lambda: bench.BenchConfig(k_list=(4, 2.7)),
}


@pytest.mark.parametrize("call", NON_INTEGRAL_K.values(), ids=NON_INTEGRAL_K.keys())
def test_non_integral_k_is_rejected(call):
    with pytest.raises(TypeError):
        call()


def _poison(arr, bad):
    """A float copy of arr with its second entry set to bad."""
    arr = np.array(arr, dtype=float)
    arr.flat[1] = bad
    return arr


def _w_args(poisoned, bad):
    """w_objective's arguments on the 6 x 8 fixture, with the array named
    poisoned (W, Z, Q or Y) holding one bad entry."""
    rng = np.random.default_rng(3)
    arrays = {"W": _dictionary().data, **{name: rng.standard_normal((8, 5)) for name in "ZQY"}}
    arrays[poisoned] = _poison(arrays[poisoned], bad)
    W, Z, Q, Y = (arrays[name] for name in "WZQY")
    return W, _data(), Z, Q, Y, trainer.Hyperparams(m=8, k=2)


# {entry point: (the argument it must name, call with one bad entry)}
NON_FINITE = {
    "max_k": ("v", lambda bad: encoder.max_k(_poison([3.0, 0.0, 1.0, -2.0], bad), 2)),
    "ave_dif-Z_hat": ("Z_hat", lambda bad: encoder.ave_dif(_poison(np.eye(8), bad), np.eye(8))),
    "ave_dif-Z_ref": ("Z_ref", lambda bad: encoder.ave_dif(np.eye(8), _poison(np.eye(8), bad))),
    "weak_condition": ("z", lambda bad: guarantees.weak_condition(
        _dictionary(), _poison(np.zeros(8), bad))),
    "weak_condition_noisy-z": ("z", lambda bad: guarantees.weak_condition_noisy(
        _dictionary(), _poison(np.zeros(8), bad), np.zeros(6))),
    "weak_condition_noisy-e": ("e", lambda bad: guarantees.weak_condition_noisy(
        _dictionary(), np.eye(8)[1], _poison(np.zeros(6), bad))),
    "cross_coherence": ("e", lambda bad: guarantees.cross_coherence(
        _dictionary(), _poison(np.zeros(6), bad))),
    # unscanned, a code whose one nonzero is infinite reads lhs = rhs = inf: holds
    "strong_condition-z": ("z", lambda bad: guarantees.strong_condition(
        _dictionary(), _poison(np.zeros(8), bad), np.zeros(6), 0.01)),
    "strong_condition-e": ("e", lambda bad: guarantees.strong_condition(
        _dictionary(), np.eye(8)[1], _poison(np.zeros(6), bad), 0.01)),
    "strong_norm_lower_bound": ("e", lambda bad: guarantees.strong_norm_lower_bound(
        0.01, 2, _dictionary(), _poison(np.zeros(6), bad))),
    "omp": ("x", lambda bad: baselines.omp(_dictionary(), _poison(np.ones(6), bad), 2)),
    **{f"{fn}-{name}": (name, lambda bad, fn=fn, name=name: getattr(trainer, fn)(
        *_w_args(name, bad))) for fn in ("w_objective", "w_gradient") for name in "WZQY"},
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", NON_FINITE)
def test_non_finite_arrays_are_rejected(entry, bad):
    # every array a caller hands the library goes through core.as_finite_array
    name, call = NON_FINITE[entry]
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        call(bad)


def test_ave_dif_on_an_empty_batch_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        encoder.ave_dif(np.zeros((4, 0)), np.zeros((4, 0)))


def test_hyperparams_fields_are_pinned():
    # inner-loop stops are inline constants; a new knob needs a reason
    assert [f.name for f in dataclasses.fields(trainer.Hyperparams)] == [
        "m", "k", "lam", "theta", "beta", "outer_iters", "iht_iters", "w_iters"]


def test_package_surface():
    for name in dltf.__all__:
        assert hasattr(dltf, name), name


def test_perfbench_traced_names_exist():
    # a traced perfbench run wraps each name in workloads.TRACED; one a
    # rename left behind fails there only with an AttributeError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "TRACED")
    # TRACED = ((module, (name, ...)), ...)
    names = [(pair.elts[0].id, fn.value) for pair in traced.elts for fn in pair.elts[1].elts]
    assert names
    for module, fn in names:
        assert callable(getattr(importlib.import_module(f"dltf.{module}"), fn, None)), \
            f"{module}.{fn}"


def _trees():
    """{file name: parsed module} for every module of the package."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _imported_names(tree):
    """{bound name: line} for every import in a module but __future__'s."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read_names(tree):
    """Names a module loads, plus the strings of its __all__ (re-exports)."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return read


def test_no_unused_imports():
    unused = []
    for name, tree in _trees().items():
        read = _read_names(tree)
        unused += [f"{name}:{line}: {bound}"
                   for bound, line in _imported_names(tree).items() if bound not in read]
    assert not unused, unused


def test_no_assert_statements():
    # runtime invariants must hold under `python -O`, which strips asserts
    asserts = [f"{name}:{node.lineno}" for name, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, asserts


def _private_definitions(tree):
    """{name: line} for each _-prefixed module-level name and method
    (dunders aside) that a module defines."""
    private = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            private.update((item.name, item.lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            private.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in private.items()
            if name.startswith("_") and not name.endswith("__")}


def test_private_names_are_read():
    # a private helper no module reads is code no caller needs
    trees = _trees()
    read = set()
    for tree in trees.values():
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{name}:{line}: {private}" for name, tree in trees.items()
              for private, line in _private_definitions(tree).items() if private not in read]
    assert not unread, unread


RANGE_RULES = ("check_int", "check_real")
RANGE_WORDS = ("must be at least", "nonnegative", "must be positive")


def _is_range_rule(node):
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (getattr(func, "id", None) in RANGE_RULES
                                           or getattr(func, "attr", None) in RANGE_RULES)


def test_range_rules_live_in_errors():
    # check_int's floor and check_real are the one place a number's range is
    # decided: no caller compares their result, and no other module words
    # its own range message
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    _is_range_rule(operand) for operand in [node.left, *node.comparators]):
                found.append(f"{name}:{node.lineno}: comparison on a range rule's result")
            if isinstance(node, ast.Raise) and name != "errors.py" and any(
                    isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                    and any(word in sub.value for word in RANGE_WORDS)
                    for sub in ast.walk(node)):
                found.append(f"{name}:{node.lineno}: hand-written range check")
    assert not found, found


def test_ridge_is_read_only_in_baselines():
    # baselines.solve_on_supports is the one stacked support solve: no
    # other module picks its own ridge for the normal equations
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items() if name != "baselines.py"
             for node in ast.walk(tree)
             if getattr(node, "id", None) == "RIDGE" or getattr(node, "attr", None) == "RIDGE"
             or isinstance(node, ast.alias) and node.name == "RIDGE"]
    assert not found, found


def _subtracts_from_x(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return ast.unparse(node.left) == "X.data"
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.subtract"
            and bool(node.args) and ast.unparse(node.args[0]) == "X.data")


def test_split_residual_is_formed_once_in_trainer():
    # trainer._split_residual is the one place X - WZ is formed: the
    # updates, the diagnostics and train read it from there
    sites = sorted((fn.name, node.lineno) for fn in ast.walk(_trees()["trainer.py"])
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if _subtracts_from_x(node))
    assert [name for name, _ in sites] == ["_split_residual"], sites


def test_loop_targets_are_read():
    # a for target that nothing reads is a name no caller needs: bind _
    unread = set()
    for name, tree in _trees().items():
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef)):
                continue
            read = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loops = [node for node in ast.walk(scope)
                     if isinstance(node, (ast.For, ast.comprehension))]
            unread |= {f"{name}:{target.lineno}: {target.id}" for loop in loops
                       for target in ast.walk(loop.target)
                       if isinstance(target, ast.Name) and target.id != "_"
                       and target.id not in read}
    assert not unread, sorted(unread)
