"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule — and everything those import — as
soon as any one submodule is wanted.  With::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repository": ["BrokerRepository"],
    })

``from repro.core import BrokerRepository`` imports
``repro.core.repository`` and nothing the package's other submodules
need.  A resolved name is stored in the package namespace, so the hook
runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for *package*, re-exporting
    each name in ``exports[submodule]`` from ``package.submodule``."""
    namespace = sys.modules[package].__dict__
    home = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str):
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
