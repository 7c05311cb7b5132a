"""Exception hierarchy for the ``repro`` multi-use-case NoC mapping library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class at the API boundary while still being able to
distinguish the individual failure modes programmatically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SpecificationError(ReproError):
    """An input specification (core, flow, use-case, constraint) is invalid.

    Raised during construction or validation of the use-case model, e.g. a
    flow with negative bandwidth, a duplicate core name or a flow referencing
    a core that does not exist in the design.
    """


class TopologyError(ReproError):
    """A NoC topology is malformed or an operation referenced a missing element.

    Examples: asking for a link that does not exist, constructing a mesh with
    zero rows, or attaching a core to an unknown switch.
    """


class RoutingError(ReproError):
    """No admissible path could be found for a traffic flow.

    This is an *expected* error during mapping (it triggers growing the
    topology or trying another placement); it becomes a hard failure only
    when the topology cannot be grown further.
    """


class ResourceError(ReproError):
    """A bandwidth or TDMA-slot reservation could not be satisfied."""


class MappingError(ReproError):
    """The unified mapping algorithm could not produce a valid mapping.

    Carries the largest topology attempted so that callers (and the
    benchmark harness) can report *why* a method failed — the paper reports
    exactly this situation for the worst-case baseline at 40 use-cases.
    """

    def __init__(self, message: str, largest_topology: str | None = None):
        super().__init__(message)
        self.largest_topology = largest_topology


class ConfigurationError(ReproError):
    """A mapper / NoC parameter object is inconsistent.

    Examples: zero TDMA slots, non-positive frequency, a maximum mesh size
    smaller than the minimum mesh size.
    """


class VerificationError(ReproError):
    """A produced mapping violates the constraints it claims to satisfy.

    Raised by :mod:`repro.perf.verification` when analytical re-checking or
    simulation of a :class:`~repro.core.result.MappingResult` finds a flow
    whose bandwidth or latency constraint is not actually met.
    """


class SerializationError(ReproError):
    """A document could not be parsed into (or produced from) the data model."""
