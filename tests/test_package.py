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
        "chipfire.linsys._class_data",
        "chipfire.linsys._compositions_array",
    } <= caches.keys()
    assert all(size is not None for size in caches.values()), caches


def test_public_names_are_declared_once_in_their_modules():
    from chipfire import experiments, graphs, linsys, toric

    rank_module = sys.modules["chipfire.rank"]
    modules = (graphs, linsys, rank_module, toric, experiments)
    assert len(chipfire.__all__) == len(set(chipfire.__all__))
    assert chipfire.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for name in chipfire.__all__:
        getattr(chipfire, name)
    assert chipfire.rank is rank_module.rank
