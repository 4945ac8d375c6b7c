"""Exception hierarchy shared by all dnetknn modules."""


class DnetKnnError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(DnetKnnError):
    """A binary or text file does not follow its declared layout."""


class ConsistencyError(DnetKnnError):
    """Two inputs that must agree (counts, indices, caches) do not."""


class CapacityError(DnetKnnError):
    """The data cannot satisfy a neighbor or split request."""


class ConfigError(DnetKnnError):
    """A configuration value is out of its allowed range."""


class DimensionError(DnetKnnError):
    """Array shapes do not line up."""


class DivergenceError(DnetKnnError):
    """A numerical quantity became non-finite: a training loss or gradient, or
    a distance between finite points."""
