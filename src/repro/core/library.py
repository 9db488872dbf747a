"""Join libraries and the registry behind ``CREATE JOIN`` (paper §VI-A).

A join library is a Python module/package containing
:class:`~repro.core.flexible_join.FlexibleJoin` subclasses.  ``CREATE
JOIN`` registers a *signature* — the SQL-visible function name, its
parameter types, and the class path — and the engine instantiates the
class lazily the first time a query uses the join.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.core.flexible_join import FlexibleJoin
from repro.errors import JoinLibraryError


@dataclass(frozen=True)
class JoinSignature:
    """The SQL-visible shape of a registered FUDJ.

    Attributes:
        name: the function name used in join predicates
            (e.g. ``text_similarity_join``).
        param_types: declared argument types; the first two are the join
            keys, the rest are join parameters (e.g. a threshold).
        class_path: dotted path of the FlexibleJoin subclass
            (``package.module.ClassName``).
        library: the library name from the ``AT`` clause; purely
            informational here (the paper uploads JARs, we import modules).
    """

    name: str
    param_types: tuple
    class_path: str
    library: str = ""

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def num_parameters(self) -> int:
        """Join parameters beyond the two keys."""
        return max(0, self.arity - 2)

    def __str__(self) -> str:
        types = ", ".join(self.param_types)
        return f"{self.name}({types})"


def load_join_class(class_path: str) -> type:
    """Import and validate a FlexibleJoin subclass from its dotted path."""
    module_name, _, class_name = class_path.rpartition(".")
    if not module_name:
        raise JoinLibraryError(
            f"class path must be 'module.Class', got {class_path!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise JoinLibraryError(f"cannot import join library {module_name!r}: {exc}")
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise JoinLibraryError(
            f"library {module_name!r} has no class {class_name!r}"
        ) from None
    if not (isinstance(cls, type) and issubclass(cls, FlexibleJoin)):
        raise JoinLibraryError(
            f"{class_path} is not a FlexibleJoin subclass"
        )
    return cls


@dataclass
class JoinEntry:
    """One installed join: what ``CREATE JOIN`` declared, its class once
    resolved, and the constructor defaults."""

    signature: JoinSignature
    join_class: type = None
    defaults: tuple = ()


class JoinRegistry:
    """All joins installed in one database (CREATE/DROP JOIN)."""

    def __init__(self) -> None:
        self._entries = {}

    def create(self, signature: JoinSignature, join_class: type = None,
               defaults: tuple = ()) -> None:
        """Register a join.

        ``join_class`` may be passed directly to skip the import (the API
        path), otherwise it resolves lazily from the signature's class
        path.  ``defaults`` are constructor parameters used when a query
        call site passes none (e.g. the grid size of a spatial join, which
        is a tuning knob rather than a query argument).
        """
        if signature.name in self._entries:
            raise JoinLibraryError(f"join already exists: {signature.name}")
        if join_class is not None and not issubclass(join_class, FlexibleJoin):
            raise JoinLibraryError(
                f"{join_class!r} is not a FlexibleJoin subclass"
            )
        self._entries[signature.name] = JoinEntry(signature, join_class,
                                                  tuple(defaults))

    def drop(self, name: str) -> None:
        """DROP JOIN: remove a registered join and its proxy UDFs."""
        if name not in self._entries:
            raise JoinLibraryError(f"no such join: {name}")
        del self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entry(self, name: str) -> JoinEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise JoinLibraryError(f"no such join: {name}") from None

    def signature(self, name: str) -> JoinSignature:
        return self.entry(name).signature

    def instantiate(self, name: str, parameters) -> FlexibleJoin:
        """Build the FlexibleJoin object for one query call site.

        Call-site parameters win; when the call site passes none, the
        registration-time defaults apply.
        """
        entry = self.entry(name)
        if entry.join_class is None:
            entry.join_class = load_join_class(entry.signature.class_path)
        effective = tuple(parameters) if parameters else entry.defaults
        try:
            return entry.join_class(*effective)
        except TypeError as exc:
            raise JoinLibraryError(
                f"cannot instantiate join {name} with parameters "
                f"{effective!r}: {exc}"
            ) from None

    def names(self) -> list:
        return sorted(self._entries)
