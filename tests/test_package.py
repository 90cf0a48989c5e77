"""The package's export list: every name in __all__ exists, and it is the import list."""
import ast
import inspect

import iiot_netsim


def imported_public_names() -> list[str]:
    """Names __init__ imports from the package's own modules, in source order."""
    tree = ast.parse(inspect.getsource(iiot_netsim))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    missing = [name for name in iiot_netsim.__all__ if not hasattr(iiot_netsim, name)]
    assert missing == []
    namespace = {}
    exec("from iiot_netsim import *", namespace)
    assert set(iiot_netsim.__all__) <= set(namespace)


def test_exports_are_exactly_the_imported_public_names():
    assert len(set(iiot_netsim.__all__)) == len(iiot_netsim.__all__)
    assert iiot_netsim.__all__ == imported_public_names()
