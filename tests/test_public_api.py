"""The package's public surface: the names README documents, and no test-only helper."""

import ast
import pathlib
import re

import epscap

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_DIR = pathlib.Path(epscap.__file__).parent
MOVED_HELPERS = {
    "capacity_crossover_dimension",
    "decode_error_indicator",
    "log_ellipsoid_volume",
    "phase_transition_residual",
    "transition_limit",
    "verify_pairwise_distance_inequality",
}


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    return text[start : text.index("\n## ", start + 1)]


def readme_public_names() -> set[str]:
    """The backticked names ahead of the colon in each bullet of the Library list."""
    section = library_section()
    items = section[: section.index("```")].split("\n- ")[1:]
    return {name for item in items for name in re.findall(r"`(\w+)`", item.split(":", 1)[0])}


def test_all_is_the_names_readme_lists():
    assert set(epscap.__all__) == readme_public_names()
    assert all(hasattr(epscap, name) for name in epscap.__all__)


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("56.308")


def test_test_only_helpers_are_not_defined_in_the_package():
    reference = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    helpers = {node.name for node in reference.body if isinstance(node, ast.FunctionDef)}
    assert MOVED_HELPERS <= helpers
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & helpers, f"{path.name} defines {sorted(defined & helpers)}"
