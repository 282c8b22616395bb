"""Exception hierarchy shared by all pipeline stages."""

from __future__ import annotations


class CastgraphError(Exception):
    """Base class for all errors raised by this package."""


class MissingFile(CastgraphError):
    def __init__(self, path):
        super().__init__(f"required file missing: {path}")
        self.path = str(path)


class MalformedRecord(CastgraphError):
    def __init__(self, source, line, reason):
        super().__init__(f"{source}:{line}: {reason}")
        self.source = str(source)
        self.line = line
        self.reason = reason


class DimensionMismatch(CastgraphError):
    pass


class DanglingReference(CastgraphError):
    pass


class ZeroVector(CastgraphError):
    pass


class NoSegments(CastgraphError):
    pass


class LengthMismatch(CastgraphError):
    def __init__(self, len_a, len_b):
        super().__init__(f"label vectors differ in length: {len_a} vs {len_b}")


class KeyMismatch(CastgraphError, KeyError):
    __str__ = Exception.__str__  # the message as given, not KeyError's repr of it


class EmptyReference(CastgraphError):
    pass


class InsufficientHistory(CastgraphError):
    pass


class InfeasibleConfig(CastgraphError):
    pass


class PipelineStageError(CastgraphError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
