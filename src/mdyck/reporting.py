"""Uniform pass/fail reports for the exhaustive verification sweeps, and the
plain record classes behind them and the library's other small values."""

from __future__ import annotations


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class Record:
    """A class whose fields are its ``__slots__``: records of one class are
    equal when their fields are, print as ``Name(field=value, ...)`` and are
    not hashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class CheckReport(Record):
    """Outcome of a verification sweep.

    ``checks`` counts individual identities tested; ``failures`` holds
    human-readable counterexample descriptions (a sweep normally stops at
    the first one).
    """

    __slots__ = ("name", "ok", "checks", "failures")

    def __init__(
        self, name: str, ok: bool = True, checks: int = 0, failures: list[str] | None = None
    ):
        self.name = name
        self.ok = ok
        self.checks = checks
        self.failures = [] if failures is None else failures

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def merge(self, other: "CheckReport") -> None:
        self.checks += other.checks
        if not other.ok:
            self.ok = False
            self.failures.extend(f"{other.name}: {msg}" for msg in other.failures)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        head = f"{self.name}: {status} ({self.checks} checks)"
        if self.failures:
            head += "\n  " + "\n  ".join(self.failures)
        return head
