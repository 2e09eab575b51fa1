"""PEP 562 export tables for the package ``__init__`` modules.

A package ``__init__`` lists, per submodule, the public names it
re-exports; each name is imported the first time it is read and then
cached in the package namespace.  ``import repro.runtime.live.node``
therefore loads only what that module imports itself, not every sibling
its parent packages re-export (numpy, the sim streams, the experiment
harness), while ``from repro import run_cell`` behaves as before.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``table`` maps a submodule, relative to ``package`` (``".kernel"``),
    to the names the package exports from it.  Unknown names raise
    :class:`AttributeError`, which is also what lets ``from package
    import submodule`` fall through to a plain submodule import.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
