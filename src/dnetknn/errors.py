"""Exception hierarchy shared by all dnetknn modules.  Each class's `exit_code`
is the status `dnetknn.cli.main` returns for it: 2 configuration (`ConfigError`,
`DimensionError`), 3 io/data (`FormatError`, `ConsistencyError`, `CapacityError`,
as for an `OSError`), 4 numerical divergence (`DivergenceError`)."""


class DnetKnnError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


class FormatError(DnetKnnError):
    """A binary or text file does not follow its declared layout."""


class ConsistencyError(DnetKnnError):
    """Two inputs that must agree (counts, indices, caches) do not."""


class CapacityError(DnetKnnError):
    """The data cannot satisfy a neighbor or split request."""


class ConfigError(DnetKnnError):
    """A configuration value is out of its allowed range."""
    exit_code = 2


class DimensionError(DnetKnnError):
    """Array shapes do not line up."""
    exit_code = 2


class DivergenceError(DnetKnnError):
    """A numerical quantity became non-finite: a training loss or gradient, or
    a distance between finite points."""
    exit_code = 4
