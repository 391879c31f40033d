"""Exception types shared across the package."""


class MetaqlError(Exception):
    """Base class for all errors raised by metaql."""


class UnknownPrefix(MetaqlError):
    def __init__(self, prefix: str):
        super().__init__(f"undeclared prefix {prefix!r}")
        self.prefix = prefix


class InvalidIri(MetaqlError, ValueError):
    """An entity IRI that is empty or contains whitespace."""


class OwlSyntaxError(MetaqlError):
    """Malformed input text; carries a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnsupportedAxiom(MetaqlError):
    def __init__(self, keyword: str, detail: str = ""):
        msg = f"unsupported axiom {keyword!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.keyword = keyword


class UnsupportedFeature(MetaqlError):
    """Query construct outside the conjunctive BGP fragment."""


class ArityMismatch(MetaqlError):
    pass


class UnsafeRule(MetaqlError):
    """A head variable does not occur in the body, or a fact contains variables."""


class UnsafeQuery(MetaqlError):
    """An answer variable does not occur in the query body."""


class UnknownPredicate(MetaqlError):
    pass


class CyclicTBox(MetaqlError):
    """Existential dependencies form a cycle; the chase would not terminate."""
