"""Records and schemas.

A :class:`Record` is an immutable row: a tuple of boxed engine values plus
a shared :class:`Schema` mapping field names to positions.  After a join,
field names are qualified with the dataset alias (``p.id``, ``w.location``)
so expressions can reference either side unambiguously.
"""

from __future__ import annotations

from repro.errors import ExecutionError, SerdeError
from repro.serde.serializer import serialize_value
from repro.serde.values import AValue, box, unbox


class Schema:
    """An ordered, immutable list of field names with O(1) lookup."""

    __slots__ = ("fields", "_index")

    def __init__(self, fields) -> None:
        self.fields = tuple(fields)
        if len(set(self.fields)) != len(self.fields):
            raise ExecutionError(f"duplicate field names in schema: {self.fields}")
        self._index = {name: i for i, name in enumerate(self.fields)}

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.fields)})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of ``name``; raises ExecutionError when absent."""
        try:
            return self._index[name]
        except KeyError:
            raise ExecutionError(
                f"no field {name!r} in schema {self.fields}"
            ) from None

    def qualify(self, alias: str) -> "Schema":
        """Return a schema with every field prefixed by ``alias.``."""
        return Schema(f"{alias}.{name}" for name in self.fields)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation of two records (join output)."""
        return Schema(self.fields + other.fields)


class Record:
    """An immutable row of boxed values conforming to a schema."""

    __slots__ = ("schema", "values", "rid", "_size")

    def __init__(self, schema: Schema, values) -> None:
        self.schema = schema
        self._size = None
        # Stable identity carried across spill round-trips: operators that
        # need object identity (pair dedup) use ``rid`` when set, so a
        # record replayed from a spill file still counts as "the same row".
        self.rid = None
        self.values = tuple(values)
        if len(self.values) != len(schema):
            raise ExecutionError(
                f"record arity {len(self.values)} != schema arity {len(schema)}"
            )

    @staticmethod
    def from_dict(schema: Schema, mapping) -> "Record":
        """Build a record from a plain mapping, boxing each value."""
        return Record(schema, (box(mapping[name]) for name in schema.fields))

    def __getitem__(self, name: str) -> AValue:
        return self.values[self.schema.index_of(name)]

    def get(self, name: str, default=None):
        """Value of ``name`` or ``default`` when the field is absent."""
        if name in self.schema:
            return self.values[self.schema.index_of(name)]
        return default

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self.schema == other.schema
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.fields, self.values)
        )
        return f"Record({pairs})"

    def to_dict(self) -> dict:
        """Plain-Python dict view (unboxes every field)."""
        return {
            name: unbox(value)
            for name, value in zip(self.schema.fields, self.values)
        }

    def concat(self, other: "Record", schema: Schema = None) -> "Record":
        """Concatenate two records (join output).  ``schema`` may be passed
        to avoid rebuilding it per pair in tight join loops."""
        if schema is None:
            schema = self.schema.concat(other.schema)
        return Record(schema, self.values + other.values)

    def serialized_size(self) -> int:
        """Wire size of this record in bytes (see
        :func:`serialized_values_size`), computed on the first call: a
        record is immutable, and every exchange, checkpoint and spill
        decision it passes asks again."""
        size = self._size
        if size is None:
            size = self._size = serialized_values_size(self.values)
        return size


def row_function(fn, schema: Schema):
    """``fn`` as a function of a raw value tuple laid out as ``schema``.

    Operators below a pipeline breaker hand on value tuples, not
    records.  A bound expression (anything with a ``compile`` method,
    :class:`repro.query.ast.Expr`) resolves its field positions here,
    once per operator per query.  A plain ``callable(record)`` — a
    test's lambda, a hand-built plan — is given a :class:`Record` around
    every tuple: this is the one adapter between the two shapes.
    """
    compile_for = getattr(fn, "compile", None)
    if compile_for is not None:
        return compile_for(schema)
    return lambda values: fn(Record(schema, values))


def serialized_values_size(values) -> int:
    """Wire size of one row's values in bytes.

    Shared by :meth:`Record.serialized_size` and the batched execution
    path (which sizes raw value tuples), so row and batch byte
    accounting agree by construction.  Opaque intra-engine values
    (partial aggregate states, PPlan handles) are not wire-serializable;
    they are counted as a fixed 16-byte blob, which only affects the
    simulated network charge of the (small) partial-state shuffles.
    """
    buf = bytearray()
    opaque = 0
    for value in values:
        try:
            serialize_value(value, buf)
        except SerdeError:
            opaque += 1
    return len(buf) + 16 * opaque
