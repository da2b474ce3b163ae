"""Exception hierarchy.

Input-shape problems (bad JSON, malformed tables) and semantic failures
(an axiom that does not hold) are kept distinct so the CLI can map them
to different exit codes.
"""


class GfrobError(Exception):
    """Base class for all library errors."""


class NotAGroup(GfrobError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class SizeLimit(GfrobError):
    pass


class BadIndex(GfrobError):
    pass


class UnknownVariable(GfrobError):
    pass


class IndexOutOfRange(GfrobError):
    pass


class SourceTargetMismatch(GfrobError):
    pass


class InvalidAction(GfrobError):
    pass


class DegreeMismatch(GfrobError):
    pass


class NotZ2(GfrobError):
    pass


class ModuleMismatch(GfrobError):
    pass


class InvalidMorphism(GfrobError):
    pass


class DegenerateMetric(GfrobError):
    pass


class IntegrabilityFailure(GfrobError):
    pass


class RestrictionMismatch(GfrobError):
    pass


class BlockDegreeViolation(GfrobError):
    pass
