"""The game log: its records, the names of its actions, groups, modes and
policies, and the synthetic draws.

A log is a list of two-player game records.  This module filters and draws
logs, and names the experiment's modes and principal policies, without the
model code or the CSV file form: the command line parses its arguments with
this module alone, and the paper's experiment on a synthetic log counts its
cells from the draws here.  The file form, read and written, is in
``logfile``; the experiment harness (``experiment``) folds what either gives.

A synthetic log is drawn once, as one int cell code per game (its matrix and
its two actions), and its records, its text (``logfile``) and its cell counts
are each built from those codes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, permutations
from math import ceil
from typing import Mapping, Sequence

from .errors import InvalidParamsError
from .values import Record, as_value, quoted, shown_repr

BETRAY = 1
SILENT = 0

GROUP_TEST = "test"
GROUP_CONTROL = "control"
ALLOWED_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(3, 4))
# The delta of a game equivalent to one round.  Logs read and generated here
# hold this object itself, so a check for it is an identity test.
_NO_CONTINUATION = ALLOWED_DELTAS[0]

PLAYER1_ONLY = "player1_only"
BOTH_PLAYERS = "both_players"

MODE_SINGLE_AGENT = "single_agent"
MODE_SOCIAL_WELFARE = "social_welfare"
MODE_PARETO = "pareto"
MODE_PARETO_AND_WELFARE = "pareto_and_welfare"
MODE_CUSTOM = "custom"
# The paper's recourse modes, in the order the CLI lists them.
PAPER_MODES = (MODE_SINGLE_AGENT, MODE_SOCIAL_WELFARE, MODE_PARETO, MODE_PARETO_AND_WELFARE)


class GameRecord(Record):
    """One logged game: matrix, experimental group, and per-round actions."""

    __slots__ = _fields = ("game_id", "matrix_id", "group", "delta", "rounds")

    def __init__(
        self, game_id: str, matrix_id: str, group: str, delta: Fraction | None,
        rounds: list[tuple[int, int]],
    ) -> None:
        if delta is not None and not isinstance(delta, Fraction):
            raise InvalidParamsError(
                f"GameRecord field 'delta' must be None or a Fraction, got {shown_repr(delta)}"
            )
        self.game_id = game_id
        self.matrix_id = matrix_id
        self.group = group
        self.delta = delta
        self.rounds = rounds


def filter_single_round(games: Sequence[GameRecord]) -> list[GameRecord]:
    """Keep games equivalent to one round: zero continuation probability, or
    one-round control games.  Order is preserved."""
    return [
        g
        for g in games
        if (g.group == GROUP_TEST and (g.delta is _NO_CONTINUATION or g.delta == 0))
        or (g.group == GROUP_CONTROL and len(g.rounds) == 1)
    ]


def _synthetic_draws(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> tuple[list, list[int]]:
    """Check a synthetic log's arguments, then draw its games: the mix's
    matrix ids in sorted order, and each game's cell code, in game order.
    A game's code is ``4 * matrix index + 2 * p1 action + p2 action``."""
    if n_total < 0:
        raise InvalidParamsError("n_total must be nonnegative")
    if not 0 <= n_principal_silent <= n_total:
        raise InvalidParamsError("n_principal_silent must lie between 0 and n_total")
    if not matrix_mix:
        raise InvalidParamsError("matrix_mix must name at least one matrix")
    try:
        entries = sorted(matrix_mix.items())
    except TypeError:
        for a, b in permutations(matrix_mix, 2):
            try:
                a < b  # the comparison that sorted() makes
            except TypeError:
                raise InvalidParamsError(
                    f"matrix_mix ids {quoted(a)} and {quoted(b)} cannot be sorted together"
                ) from None
        raise
    proportions = []
    for mid, p in entries:
        try:
            proportions.append((mid, as_value(p)))
        except ValueError as exc:
            raise InvalidParamsError(f"matrix_mix entry {quoted(mid)}: {exc}") from None
    if any(p < 0 for _, p in proportions):
        raise InvalidParamsError("matrix proportions must be nonnegative")
    if sum(p for _, p in proportions) != 1:
        raise InvalidParamsError("matrix proportions must sum to 1")

    try:
        p1_codes = [2 * BETRAY] * n_total
    except (OverflowError, MemoryError):  # refused before any memory is taken
        raise InvalidParamsError("n_total is too large to draw in memory") from None
    # A roll of random() is k / 2**53 for an integer k, so it lies below the
    # cumulative proportion c exactly when k < ceil(c * 2**53).  That bound
    # is an int of at most 2**53, so over 2**53 it is an exact float, which
    # the roll lies below exactly when k lies below the bound.
    bounds = [ceil(c * 2**53) / 2**53 for c in accumulate(p for _, p in proportions)]
    rng = random.Random(seed)
    for i in rng.sample(range(n_total), n_principal_silent):
        p1_codes[i] = 2 * SILENT
    # Each game rolls its matrix, the first whose bound lies above the roll,
    # then draws p2 as ``rng.randrange(2)`` does: two bits, again while they
    # read 2 or more.
    roll, bits = rng.random, rng.getrandbits
    codes: list[int] = []
    append = codes.append
    for code in p1_codes:
        code += 4 * bisect_right(bounds, roll())
        p2 = bits(2)
        while p2 > 1:
            p2 = bits(2)
        append(code + p2)
    return [mid for mid, _ in proportions], codes


# The (p1, p2) action pair of each value of a cell code's two low bits.
_CODE_ACTIONS = [(p1, p2) for p1 in (SILENT, BETRAY) for p2 in (SILENT, BETRAY)]
# The two digits that end the id of each game in a block of a hundred.
_ID_ENDS = ["%02d" % end for end in range(100)]


def _game_ids(n_total: int) -> list[str]:
    """``"g%05d" % i`` for each i below ``n_total``, rounded up to a whole
    hundred: game 100 h + e is ``"g%03d" % h`` followed by ``"%02d" % e``."""
    return [head + end for head in map("g%03d".__mod__, range(-(-n_total // 100))) for end in _ID_ENDS]


def generate_synthetic_log(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[GameRecord]:
    """Deterministic synthetic log of single-round games.

    Exactly n_principal_silent games have player 1 silent; player 2's actions
    and the matrix assignment are drawn from the seeded generator, matrices in
    proportion to matrix_mix.  Each game's record is built from its cell code.
    """
    ids, codes = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    return [
        GameRecord(game_id, ids[code >> 2], GROUP_TEST, _NO_CONTINUATION, [_CODE_ACTIONS[code & 3]])
        for game_id, code in zip(_game_ids(n_total), codes)
    ]


def synthetic_cells(
    n_total: int,
    n_principal_silent: int,
    matrix_mix: Mapping[str, Fraction | int | float | str],
    seed: int,
) -> list[tuple[GameRecord, int]]:
    """The cells of ``generate_synthetic_log(...)`` of the same arguments,
    counted from the cell codes without building a record per game: each
    cell's first game, as built there, with the cell's game count, in
    first-drawn order.  Arguments are checked and refused as there."""
    ids, codes = _synthetic_draws(n_total, n_principal_silent, matrix_mix, seed)
    return [
        (GameRecord("g%05d" % codes.index(code), ids[code >> 2], GROUP_TEST, _NO_CONTINUATION,
                    [_CODE_ACTIONS[code & 3]]), n)
        for code, n in Counter(codes).items()
    ]
