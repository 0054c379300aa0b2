"""Verification reports: the record every check returns, and the two scans
that build one.  Imports nothing from the package, so every route reports
through it without importing another route."""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple, Optional


class Discrepancy(NamedTuple):
    """First point at which two quantities that should agree do not."""

    where: Any
    expected: Any
    actual: Any


class _ReportFields(NamedTuple):
    """VerifyReport's fields: a NamedTuple body cannot override ``__new__``,
    so the subclass below checks the invariant."""

    context: str
    passed: bool
    first_discrepancy: Optional[Discrepancy] = None


class VerifyReport(_ReportFields):
    """Outcome of one identity check.

    ``passed`` is True exactly when ``first_discrepancy`` is None;
    ``context`` labels the identity that was checked.  An immutable
    record: a tuple of its three fields, compared and hashed by them.
    """

    __slots__ = ()

    def __new__(
        cls, context: str, passed: bool, first_discrepancy: Optional[Discrepancy] = None
    ) -> "VerifyReport":
        if passed != (first_discrepancy is None):
            raise ValueError("passed must mirror the absence of a discrepancy")
        return super().__new__(cls, context, passed, first_discrepancy)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "VerifyReport":
        # `_replace` builds through `_make`, whose default skips `__new__`
        return cls(*iterable)

    @classmethod
    def success(cls, context: str) -> "VerifyReport":
        return cls(context=context, passed=True)

    @classmethod
    def failure(cls, context: str, where: Any, expected: Any, actual: Any) -> "VerifyReport":
        return cls(
            context=context,
            passed=False,
            first_discrepancy=Discrepancy(where=where, expected=expected, actual=actual),
        )


def compare_counts(
    context: str,
    expected: Mapping[Any, int],
    actual: Mapping[Any, int],
    label: Optional[str] = None,
) -> VerifyReport:
    """Compare two count maps key by key, a missing key counting as 0.

    Reports the smallest key, in sorted order, at which the counts differ:
    ``where`` is that key, or ``(label, key)`` when a label is given.
    """
    for key in sorted(expected.keys() | actual.keys()):
        lhs, rhs = expected.get(key, 0), actual.get(key, 0)
        if lhs != rhs:
            where = key if label is None else (label, key)
            return VerifyReport.failure(context, where=where, expected=lhs, actual=rhs)
    return VerifyReport.success(context)


def first_failure(context: str, reports: Iterable[VerifyReport]) -> VerifyReport:
    """The first failed report, read lazily, so that no report after it is
    built; or a success under ``context`` when none failed."""
    for report in reports:
        if not report.passed:
            return report
    return VerifyReport.success(context)
