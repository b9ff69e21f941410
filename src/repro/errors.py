"""Exception hierarchy for the Pegasus reproduction.

All library-specific errors derive from :class:`PegasusError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class PegasusError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(PegasusError, ValueError):
    """A configuration field holds a value the library cannot serve.

    Raised by every configuration surface — :class:`repro.serving.EngineConfig`,
    the batch scheduler, the dispatchers, the lookup-backend check — so callers
    can catch one typed error at the API boundary. Also a :class:`ValueError`
    subclass, because these were historically bare ``ValueError`` s.

    ``field`` names the offending knob, ``value`` is what was passed, and
    ``allowed`` (a sequence of choices or a descriptive string like ``">= 1"``)
    says what would have been accepted.
    """

    def __init__(self, field: str, value, allowed=None, reason: str | None = None):
        self.field = field
        self.value = value
        self.allowed = allowed
        self.reason = reason
        msg = f"invalid {field}={value!r}"
        if reason:
            msg += f": {reason}"
        if allowed is not None:
            shown = allowed if isinstance(allowed, str) else tuple(allowed)
            msg += f" (allowed: {shown})"
        super().__init__(msg)

    def __reduce__(self):
        # Exception.__reduce__ would replay __init__ with args=(msg,), which
        # does not match this signature — rebuild from the real fields so the
        # error survives pickling across worker process boundaries.
        return (type(self), (self.field, self.value, self.allowed,
                             self.reason))


class ShapeError(PegasusError):
    """An array or vector had an incompatible shape."""


class QuantizationError(PegasusError):
    """A value could not be represented in the requested fixed-point format."""


class CompilationError(PegasusError):
    """The compiler could not lower a model to dataplane primitives."""


class ResourceExceededError(PegasusError):
    """A compiled program does not fit the target's hardware budget."""

    def __init__(self, resource: str, used: float, budget: float):
        self.resource = resource
        self.used = used
        self.budget = budget
        super().__init__(
            f"{resource} budget exceeded: used {used:g}, budget {budget:g}"
        )


class PipelineError(PegasusError):
    """The dataplane pipeline was configured or driven incorrectly."""


class TraceFormatError(PegasusError):
    """A serialized trace file is malformed."""


class SchemaError(PegasusError, TypeError):
    """A columnar payload violated the declared wire-format schema.

    Raised (debug-gated) by :meth:`repro.dataplane.schema.ColumnSchema.
    validate_columns` wherever arrays cross the IPC hot path: a missing or
    undeclared column, a non-ndarray value, or a dtype/rank that drifted
    from the declaration. ``schema``/``column``/``reason`` pinpoint the
    violation; ``context`` names the seam (e.g. ``"worker 2 reply"``).
    """

    def __init__(self, schema: str, column: str, reason: str,
                 context: str = ""):
        self.schema = schema
        self.column = column
        self.reason = reason
        self.context = context
        msg = f"wire schema '{schema}': column '{column}' {reason}"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)

    def __reduce__(self):
        # Same pickling hazard as ConfigError: rebuild from the real fields
        # so the error survives worker process boundaries.
        return (type(self), (self.schema, self.column, self.reason,
                             self.context))


class WorkerError(PegasusError, RuntimeError):
    """Worker processes of a parallel dispatcher failed.

    Raised by :class:`repro.serving.parallel.ParallelDispatcher` when a
    replica cannot be built behind the warm-up ping, a chunk replay raises,
    or a worker dies mid-serve. ``failures`` maps each failing worker's
    index to its report (the worker-side traceback where there is one) and
    ``workers`` lists the indices. Also a :class:`RuntimeError`, which is
    what these failures were raised as before they were typed.
    """

    def __init__(self, failures: dict[int, str]):
        self.failures = dict(failures)
        self.workers = tuple(sorted(self.failures))
        super().__init__("\n".join(self.failures.values()))

    def __reduce__(self):
        return (type(self), (self.failures,))


class TrainingError(PegasusError):
    """Model training failed or was mis-configured."""
