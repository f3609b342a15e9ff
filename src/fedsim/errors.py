"""Exception types shared across the simulator.

Plain ValueError is used for local precondition violations (bad shapes,
out-of-range arguments); the classes here exist where callers need to
distinguish failures for control flow or exit codes.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Experiment configuration is invalid. Message names the offending key path."""


class DivergenceError(RuntimeError):
    """A run left float64 range. From training, the message names the epoch
    and batch; from aggregation, it names the round."""


class NonFiniteError(ValueError):
    """A parameter vector would hold an inf or nan entry.

    Raised by the ParameterVector constructor. An aggregate can overflow
    although every update it combines is finite; the runner turns this error
    into a DivergenceError naming the round.
    """


class SelectionStarvationError(RuntimeError):
    """No client satisfied the selection criteria for a round."""


class ConflictError(ValueError):
    """Registry state forbids the requested membership change."""


class IntegrityError(RuntimeError):
    """Version ledger or payload archive consistency violation (unknown parent,
    duplicate id, two payloads with one content hash, a ledger hashed with
    another algorithm)."""


class PartitionError(ValueError):
    """Edge groups fail to partition the round's contributors."""


class SecureAbortError(RuntimeError):
    """A masked-sum participant dropped mid-protocol; the round must be rerun."""


class CorruptMessageError(ValueError):
    """A wire message failed structural decoding."""


class UnresolvableClassError(ConfigError):
    """data.augment_target weights a class a client's shard does not contain."""


class ArchiveError(RuntimeError):
    """Payload archive is incomplete or unreadable: missing content hashes,
    the per-blob layout from before segments, or a segment record that is
    short, malformed or repeated. The message names what and where."""
