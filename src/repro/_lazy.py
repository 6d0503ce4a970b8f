"""Lazy package surfaces (PEP 562).

Every process pays for what it imports on every spawn, so a package
``__init__`` imports nothing: it says where each public name lives and gets
its ``__getattr__``, ``__dir__`` and ``__all__`` back.  A name, or one of the
package's own submodules, is imported on first access and cached in the
package globals.  ``if TYPE_CHECKING:`` keeps the real imports for mypy.
"""

import sys
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

__all__ = ["TYPE_CHECKING", "lazy"]


def lazy(package: str, exports: dict[str, str],
         ) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``exports`` maps a module (relative to ``package``) to the names it
    provides, space-separated; ``public=attr`` re-exports under an alias."""
    where = {}
    for module, names in exports.items():
        for entry in names.split():
            public, _, attr = entry.partition("=")
            where[public] = (module, attr or public)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in where:
            module, attr = where[name]
            value = getattr(import_module(module, package), attr)
        else:
            try:
                if name.startswith("_"):   # never a submodule: skip the search
                    raise ModuleNotFoundError(name=f"{package}.{name}")
                value = import_module("." + name, package)
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise   # the submodule exists; something it needs does not
                raise AttributeError(f"module {package!r} has no attribute "
                                     f"{name!r}") from None
        namespace[name] = value
        return value

    return __getattr__, lambda: sorted(set(namespace) | set(where)), list(where)
