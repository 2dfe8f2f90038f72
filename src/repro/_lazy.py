"""Lazy package exports (PEP 562), shared by every ``repro`` subpackage.

A subpackage's ``__init__`` lists which of its submodules defines each
public name and imports none of them.  A name is imported on first
read, so ``from repro.oms import PSM`` loads ``repro.oms.psm`` alone,
and importing one submodule never runs its siblings: a one-shot CLI
call pays only for the code it runs.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object], table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package that re-exports *table*.

    Args:
        namespace: The package's ``globals()``.
        table: Submodule name (relative to the package; a leading
            ``.`` climbs to the parent, as in a relative import) -> the
            public names it defines, in ``__all__`` order.

    A name that is also the name of its own submodule (``repro.ms``'s
    ``vectorize``) is bound at once: importing the submodule later would
    otherwise rebind the package attribute to the module.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def resolve(name: str) -> object:
        value = getattr(importlib.import_module(f".{home[name]}", package), name)
        namespace[name] = value  # later reads skip __getattr__
        return value

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return resolve(name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    for name, module in home.items():
        if name == module:
            resolve(name)
    return list(home), __getattr__, __dir__
