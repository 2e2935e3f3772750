"""Shared exception types."""


class ShapeError(ValueError):
    """Operands have incompatible shapes or dimensions."""


class ConfigError(ValueError):
    """A configuration violates one or more of its invariants."""


class FormatError(ValueError):
    """An on-disk artifact (checkpoint, tokenizer, corpus, matrix), or a code
    that must match one (a --lang value), is malformed."""


class GraphConsumedError(RuntimeError):
    """A backward pass reached a graph node that an earlier backward pass used up."""
