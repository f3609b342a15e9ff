"""Exception types shared across the simulator.

Plain ValueError is used for local precondition violations (bad shapes,
out-of-range arguments); the classes here exist where callers need to
distinguish failures for control flow or exit codes.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Experiment configuration is invalid. Message names the offending key path."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Message names the epoch and batch."""


class SelectionStarvationError(RuntimeError):
    """No client satisfied the selection criteria for a round."""


class ConflictError(ValueError):
    """Registry state forbids the requested membership change."""


class IntegrityError(RuntimeError):
    """Version ledger or payload archive consistency violation (unknown parent,
    duplicate id, two payloads with one content hash)."""


class PartitionError(ValueError):
    """Edge groups fail to partition the round's contributors."""


class SecureAbortError(RuntimeError):
    """A masked-sum participant dropped mid-protocol; the round must be rerun."""


class CorruptMessageError(ValueError):
    """A wire message failed structural decoding."""


class UnresolvableClassError(ValueError):
    """An augmentation target demands a class the shard does not contain."""


class ArchiveError(RuntimeError):
    """Payload archive is incomplete. Message lists the missing content hashes."""
