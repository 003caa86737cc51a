"""Exception types shared across the package.

Every error raised on a contract violation derives from PufLedgerError so
callers can catch the package's failures without masking unrelated bugs.
"""


class PufLedgerError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PufLedgerError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ChallengeError(PufLedgerError, ValueError):
    """A challenge violates its structural rules (length, range, duplicates)."""


class PayloadSizeError(PufLedgerError, ValueError):
    """A block payload exceeds the maximum encodable length."""


class RegistryConflictError(PufLedgerError):
    """Attempted to enroll a device that already has a registry record."""


class EnrollmentFailedError(PufLedgerError):
    """Screening rejected every candidate challenge during enrollment."""


class UnknownDeviceError(PufLedgerError, KeyError):
    """Lookup referenced a device with no registry record."""


class AccessDeniedError(PufLedgerError, PermissionError):
    """A node without read rights asked the registry for stored responses."""


class ScenarioError(PufLedgerError, ValueError):
    """A simulation scenario or adversary description is invalid."""
