"""Exception hierarchy shared by all qsdsim modules."""


class QsdError(Exception):
    """Base class for qsdsim errors."""


class EventCapExceeded(QsdError):
    """A simulation exceeded its event budget (possible non-absorption or explosion)."""


class NegativeRate(QsdError):
    """A rate below zero or not finite was supplied, or a state's total rate overflows."""


class SelfLoop(QsdError):
    """An explicit diagonal entry q(x, x) was supplied; diagonals are always derived."""


class SupercriticalSpec(QsdError):
    """Branching spec with birth rate >= death rate; the absorbed chain would not die out."""


class RateTooSmall(QsdError):
    """Uniformization rate below the maximum total jump rate."""


class TruncationLeak(QsdError):
    """Probability mass is piling up against the truncation boundary."""


class NotIrreducible(QsdError):
    """The restricted chain is not strongly connected."""


class NoConvergence(QsdError):
    """An iteration exhausted its budget without meeting the tolerance.

    Attributes
    ----------
    last_gap : float or None
        The final convergence gap, when the solver recorded one.
    """

    def __init__(self, message, last_gap=None):
        super().__init__(message)
        self.last_gap = last_gap


class NoMinimalQsd(QsdError):
    """An infinite model declares no minimal QSD, or its declared law is too wide to list."""


class DeadConfig(QsdError):
    """Every particle sits at a state of total rate zero; no event can occur."""


class PathTooShort(QsdError):
    """A conditioned-evolution path does not cover the requested horizon."""


class NegativeMean(QsdError):
    """The shifted mean matrix has a negative entry; the shift is too small."""


class AllExtinct(QsdError):
    """Every branching attempt died before the horizon."""


class DegenerateInput(QsdError):
    """Input data cannot support the requested fit."""


class ConfigInvalid(QsdError):
    """An experiment config failed validation.

    Attributes
    ----------
    problems : list of str
        Field-level messages.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


class ModelFormatError(QsdError):
    """A model file does not conform to the qsdmodel v1 format."""
