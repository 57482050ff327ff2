"""The functions perfbench traces still exist, with the arguments its hooks read.

perfbench skips a target the package no longer defines, and that layer's
metrics then read 0; a renamed function or argument would pass unnoticed
there. perfbench/layers.py is parsed here, not imported.
"""

import ast
import importlib
import inspect
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def targets_and_hook_reads() -> tuple[list[tuple], dict[str, set[str]]]:
    """TARGETS as (module, function, hook name), and each hook's args[...] keys."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    reads = {}
    targets = []
    for node in tree.body:
        hook_args = [a.arg for a in node.args.args] if isinstance(node, ast.FunctionDef) else []
        if hook_args[:1] == ["args"]:
            reads[node.name] = {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "args"
                and isinstance(sub.slice, ast.Constant)
            }
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            targets = [
                (module.value, func.value, getattr(hook, "id", None))
                for module, func, hook in (elt.elts for elt in node.value.elts)
            ]
    return targets, reads


def test_perfbench_targets_resolve_with_the_arguments_their_hooks_read():
    targets, reads = targets_and_hook_reads()
    assert targets
    read_anywhere = set()
    for module_name, func_name, hook in targets:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"perfbench traces {module_name}.{func_name}, which is gone"
        wanted = reads.get(hook, set())
        missing = wanted - set(inspect.signature(func).parameters)
        assert not missing, f"{hook} reads {sorted(missing)}, gone from {module_name}.{func_name}"
        read_anywhere |= wanted
    assert read_anywhere == {"size", "n_codewords", "samples", "attempts", "candidates", "argv"}
