import ast
import sys
from pathlib import Path

import chipfire

PACKAGE = Path(chipfire.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(PACKAGE.glob("*.py")), PACKAGE
    assert found == []


def test_every_lru_cache_is_bounded():
    import chipfire.cli  # noqa: F401  (every module but __main__ is loaded)

    caches = {
        f"{name}.{attr}": fn.cache_parameters()["maxsize"]
        for name, module in list(sys.modules.items())
        if name.startswith("chipfire.")
        for attr, fn in vars(module).items()
        if hasattr(fn, "cache_parameters")
    }
    assert {
        "chipfire.linsys._members",
        "chipfire.linsys._member",
        "chipfire.linsys._class_data",
        "chipfire.linsys._compositions_array",
    } <= caches.keys()
    assert all(size is not None for size in caches.values()), caches


def test_no_module_keeps_a_mutable_container():
    # a module-level dict, list or set is a cache or registry that nothing
    # bounds; caches are bounded lru_caches instead (the interpreter's own
    # dunder names, such as __builtins__, and __all__ aside)
    import chipfire.cli  # noqa: F401  (every module but __main__ is loaded)

    found = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.startswith("chipfire.")
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set))
        and not (attr.startswith("__") and attr.endswith("__"))
    ]
    assert "chipfire.linsys" in sys.modules
    assert found == []


def test_public_names_are_declared_once_in_their_modules():
    from chipfire import experiments, graphs, linsys, toric

    rank_module = sys.modules["chipfire.rank"]
    modules = (graphs, linsys, rank_module, toric, experiments)
    assert len(chipfire.__all__) == len(set(chipfire.__all__))
    assert chipfire.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for name in chipfire.__all__:
        getattr(chipfire, name)
    assert chipfire.rank is rank_module.rank


def test_readme_quickstart_prints_what_it_says():
    # each commented line of the quickstart block is the repr of the
    # expression above it (a whole-line comment) or beside it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for line, after in zip(lines, lines[1:] + [""]):
        code, _, beside = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        expected = beside or (after[2:] if after.startswith("# ") else "")
        if expected:
            assert repr(eval(code, namespace)) == expected, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5
