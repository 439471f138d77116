"""Exception hierarchy shared across the package."""


class CqedwError(Exception):
    """Base class for all package errors."""


class ConfigError(CqedwError):
    """Invalid configuration, schema violation or inconsistent inputs."""


class IncompleteReadoutError(ConfigError):
    """Readout operator cannot yield a tomographically complete set."""


class NumericalError(CqedwError):
    """A numerical procedure failed to meet its accuracy contract."""


class FitError(NumericalError):
    """Curve fit could not be seeded or did not converge."""
