"""Exception types and the counterexample channel shared by all modules.

Every failure that dumps state is a ReportedFailure holding one
CounterexampleReport; the other SncErrors carry a message only.
"""
from __future__ import annotations

from typing import NamedTuple


class SncError(Exception):
    """Base class for all errors raised by this package."""


class LoopRejected(SncError):
    pass


class DigonRejected(SncError):
    pass


class DuplicateArc(SncError):
    pass


class NotATournament(SncError):
    pass


class NegativeWeight(SncError):
    pass


class TooLarge(SncError):
    pass


class NotMissing(SncError):
    pass


class NotAllGood(SncError):
    """Some missing edge is not good; edges holds every such edge (a, b),
    a < b, in sorted order.  good_edges.complete_to_tournament is the one
    place that raises it."""

    def __init__(self, message: str, edges: tuple[tuple[int, int], ...]):
        super().__init__(message)
        self.edges = edges


class NotAViolation(SncError):
    pass


class BadProfile(SncError):
    pass


class ParseError(SncError):
    """Input text could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CounterexampleReport(NamedTuple):
    """State dump produced when a guaranteed step fails.

    These reports are the science-alarm channel: they are only created
    when something the underlying theory promises can never happen did
    happen.  formats.counterexample builds every one: state holds the
    instance, loadable as it stands, and the free choices (order,
    orientations, code, ...) that replay the failing check on it.
    """

    stage: str
    description: str
    state: dict

    def to_dict(self) -> dict:
        return self._asdict()


class ReportedFailure(SncError):
    """A failure that carries its CounterexampleReport, the one channel
    every failure dump leaves through.  The command line writes the report
    beside the error and exits with the class's exit_code."""

    exit_code = 2

    def __init__(self, report: CounterexampleReport):
        super().__init__(f"{report.stage}: {report.description}")
        self.report = report

    def __reduce__(self):
        # rebuilt from the report, not the message, so that a failure
        # raised in a sweep worker process reaches the parent whole
        return type(self), (self.report,)


class InternalTheoremViolation(ReportedFailure):
    """A step that is guaranteed by a proved statement failed.

    Never swallowed: callers surface the attached CounterexampleReport.
    """


class NoWitnessFound(ReportedFailure):
    """The exhaustive fallback found no vertex with the weighted SNP.

    An instance triggering this would refute the second neighborhood
    conjecture, so it is reported as a counterexample, not an error state.
    """


class MoveLimitExceeded(ReportedFailure):
    """Local search ran out of moves (stage move-limit).  Its report holds
    the tournament, the last order, the moves made, the violations that
    remain and the seed of the start order (null for the ascending one);
    the same command with the same move limit and seed replays it.  A move
    limit is a budget, not a guarantee, so this is an error, exit 1."""

    exit_code = 1
