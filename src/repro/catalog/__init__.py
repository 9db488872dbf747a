"""Catalog: metadata for types, datasets, and installed joins."""

from repro.catalog.catalog import Catalog, TypeInfo

__all__ = ["Catalog", "TypeInfo"]
