from __future__ import annotations

import sys

import pytest

from gwstack import Reconstructor, build_p1b, build_p2


class EngineRegistry:
    """Per-session engine pool so tests share memoized work.

    The acceptance suite also uses it to find every insertion key
    touched by the earlier criteria.
    """

    def __init__(self) -> None:
        self._engines: dict[str, Reconstructor] = {}
        self.memo: dict[str, object] = {}  # shared workload results

    def p1b(self, b: int) -> Reconstructor:
        return self._get(f"P(1,{b})", lambda: Reconstructor(build_p1b(b)))

    def p2(self) -> Reconstructor:
        return self._get("P2", lambda: Reconstructor(build_p2()))

    def _get(self, key: str, make) -> Reconstructor:
        eng = self._engines.get(key)
        if eng is None:
            eng = make()
            self._engines[key] = eng
        return eng

    def all_engines(self) -> list[Reconstructor]:
        return list(self._engines.values())


@pytest.fixture(scope="session")
def engines() -> EngineRegistry:
    return EngineRegistry()


@pytest.fixture
def int_digit_limit() -> int:
    """The most digits ``int()`` converts from a string; skips the test
    on an interpreter without such a limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts decimal strings of any length here")
    return limit
