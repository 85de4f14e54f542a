"""Shared exception types.

Everything raised on purpose by this package derives from ClawMwssError, so
callers (and the CLI) can distinguish solver-reported conditions from plain
bugs.
"""

from __future__ import annotations


class ClawMwssError(Exception):
    pass


class InstanceFormatError(ClawMwssError):
    """Malformed instance file. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class ClawWitnessError(ClawMwssError):
    """The input is not claw-free; carries an explicit claw certificate.

    ``center`` is adjacent to all three ``leaves``, which are pairwise
    non-adjacent.
    """

    def __init__(self, center: int, leaves: tuple[int, int, int]):
        super().__init__(f"claw found: center {center}, leaves {sorted(leaves)}")
        self.center = center
        self.leaves = tuple(sorted(leaves))
