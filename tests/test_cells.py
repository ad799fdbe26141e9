"""The synthetic experiment's cell fold, and the paper's claims over every PD matrix.

``run_cells(synthetic_cells(...))`` counts a synthetic log's games per cell
from its draws.  It must give what the records path gives,
``run_experiment(filter_single_round(generate_synthetic_log(...)))``: an
equal report with its matrices in the same order, or the same error type and
message.  Each case is drawn from a seed: game counts from 0 to 400 (0
often), silent counts in and out of range, mixes of `Fraction` and string
proportions with zero proportions, custom matrices registered through
``matrices``, an unknown id, ``overall`` among the matrices, every mode,
custom clauses (one names an agent no query has), both principal policies
and both ``exclude_identity`` settings.

The tier-1 run draws a few hundred cases; to draw more:

    PYTHONPATH=src:tests python3 -c "import test_cells as t; t.fuzz(20000)"
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiagent_recourse as mr
from multiagent_recourse.experiment import MODE_CLAUSES

SEEDS = st.integers(min_value=0, max_value=10**9)
MODES = list(MODE_CLAUSES)
POLICIES = [mr.PLAYER1_ONLY, mr.BOTH_PLAYERS]


def _matrix(mid, bb, bs, sb, ss):
    return mr.PayoffMatrix(mid, {(1, 1): bb, (1, 0): bs, (0, 1): sb, (0, 0): ss})


# One PD-ordered rational matrix and one asymmetric matrix; "nosuch" is
# neither builtin nor registered.
CUSTOM = {
    "mine": _matrix("mine", ("2", "2"), ("9/2", "1/4"), ("1/4", "9/2"), ("3", "3")),
    "yours": _matrix("yours", ("1", "0"), ("4", "-1/3"), ("0", "7"), ("5/2", "5/2")),
}
MATRIX_IDS = ["table1", "table2", "table3", "mine", "yours", "nosuch"]
CLAUSES = [
    mr.Threshold(1, F(50)), mr.Threshold(2, F(9, 2), strict=True), mr.Threshold(3, F(1)),
    mr.PrincipalImprovement(strict=False), mr.SocialWelfare(strict=False), mr.Pareto(), mr.Plausible(),
]


def draw_mix(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.02:
        return {}
    if roll < 0.04:
        return {"table2": "half", "table3": F(1, 2)}
    if roll < 0.06:
        return {"table2": F(3, 2), "table3": F(-1, 2)}
    if roll < 0.08:
        return {"table2": 1, 1: 0}
    ids = rng.sample(MATRIX_IDS, rng.randint(1, 3))
    weights = [rng.randint(0, 3) for _ in ids]
    weights[0] += sum(weights) == 0
    mix = {}
    for mid, weight in zip(ids, weights):
        p = F(weight, sum(weights))
        mix[mid] = rng.choice([p, f"{p.numerator}/{p.denominator}", str(p)])
    if rng.random() < 0.03:  # proportions that do not sum to 1
        mix[ids[0]] = F(7, 5)
    return mix


def draw_case(rng: random.Random) -> tuple:
    """(the synthetic log's arguments, config, matrices)."""
    n = rng.choice([0, 0, rng.randint(0, 12), rng.randint(0, 400)])
    silent = rng.choice([rng.randint(0, n), rng.randint(0, n), rng.randint(0, n), -1, n + 1])
    if rng.random() < 0.02:
        n = -1
    mode = rng.choice([*MODES, *MODES, "custom", "custom", "bogus"])
    config = mr.ExperimentConfig(
        mode=mode,
        principal_policy=rng.choice([*POLICIES, *POLICIES, *POLICIES, "nobody"]),
        exclude_identity=rng.random() < 0.5,
        custom_clauses=tuple(rng.sample(CLAUSES, rng.choice([0, 1, 1, 2, 3]))),
    )
    matrices = rng.choice([None, {}, CUSTOM, CUSTOM, CUSTOM, {**CUSTOM, "overall": CUSTOM["mine"]}])
    return (n, silent, draw_mix(rng), rng.randrange(2**32)), config, matrices


def result(fold):
    """A fold's report with the order of its matrices, or its error."""
    try:
        report = fold()
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike
        return type(exc), str(exc)
    return report, list(report.per_matrix)


def both_folds(args, config, matrices):
    by_records = result(lambda: mr.run_experiment(
        mr.filter_single_round(mr.generate_synthetic_log(*args)), config, matrices=matrices))
    by_cells = result(lambda: mr.run_cells(mr.synthetic_cells(*args), config, matrices=matrices))
    return by_records, by_cells


def check(seed: int) -> None:
    args, config, matrices = draw_case(random.Random(seed))
    by_records, by_cells = both_folds(args, config, matrices)
    assert by_cells == by_records
    report = by_cells[0]
    if isinstance(report, mr.ExperimentReport):  # every game is queried once per principal
        for counts in (report.overall, *report.per_matrix.values()):
            assert counts.queries == counts.games * len(config.principals())


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_cell_fold_agrees_with_the_records_path(seed):
    check(seed)


def fuzz(n: int) -> None:
    """``n`` more cases of the property above, drawn by Hypothesis."""
    settings(max_examples=n, deadline=None, database=None)(given(SEEDS)(check))()


# A phrase of each error the two folds raise on these cases.
ERRORS = [
    "n_total must be nonnegative", "n_principal_silent must lie between", "must name at least one",
    "cannot interpret 'half'", "must be nonnegative", "must sum to 1", "cannot be sorted together",
    "unknown payoff matrix 'nosuch'", "cannot name a matrix 'overall'", "unknown mode 'bogus'",
    "custom mode needs custom_clauses", "unknown principal policy", "game 'g",
]


def test_the_cases_reach_every_error():
    """The cases drawn above raise each error, and give reports with and without games."""
    seen = set()
    for seed in range(400):
        by_records, by_cells = both_folds(*draw_case(random.Random(seed)))
        assert by_cells == by_records
        outcome = by_records[0]
        if isinstance(outcome, mr.ExperimentReport):
            seen.add("games" if outcome.total_games else "no games")
        else:
            seen.update(phrase for phrase in ERRORS if phrase in by_records[1])
    assert seen == {"games", "no games", *ERRORS}


def test_a_cell_error_names_the_cells_first_game():
    config = mr.ExperimentConfig(mode="custom", custom_clauses=(mr.Threshold(3, F(1)),))
    args = (40, 10, {"table1": F(1, 2), "table3": "1/2"}, 5)
    (kind, message), by_cells = both_folds(args, config, None)
    first = mr.generate_synthetic_log(*args)[0]
    assert (kind, message) == by_cells
    assert kind is mr.InvalidQueryError and message.startswith(f"game {first.game_id!r}: ")


# ------------------------------------------------- the claims, closed form
#
# On any 2x2 matrix the principal's only action other than the identity is to
# switch, and every mode asks for a strict principal improvement or a strict
# welfare gain, so the identity never passes (with exclude_identity off too).
# So a cell's outcome follows from the switch's differences, each the
# switched payoff minus the factual one: the principal's own dp, the
# opponent's do, and dw = dp + do.  single_agent recommends iff dp > 0,
# social_welfare iff dw > 0, pareto iff dp > 0 and do >= 0, and
# pareto_and_welfare iff all three hold; each flag of a recommendation is a
# sign of dp, do or dw.
#
# For a symmetric matrix with temptation T > reward R > punishment P > sucker
# S, that reads: single_agent recommends iff the principal is silent, pareto
# and pareto_and_welfare never recommend, and social_welfare recommends iff
# the switch raises W, the sum of both payoffs: from (silent, silent) iff
# T + S > 2R, from (silent, betray) iff 2P > T + S, from (betray, silent) iff
# 2R > T + S, and from (betray, betray) iff T + S > 2P, reading each profile
# as (principal, opponent).

PROFILES = [(0, 0), (0, 1), (1, 0), (1, 1)]
RULES = {
    "single_agent": lambda dp, do: dp > 0,
    "social_welfare": lambda dp, do: dp + do > 0,
    "pareto": lambda dp, do: dp > 0 and do >= 0,
    "pareto_and_welfare": lambda dp, do: dp > 0 and do >= 0 and dp + do > 0,
}


def switch_deltas(matrix: mr.PayoffMatrix, profile: tuple, principal: int) -> tuple:
    """(dp, do) of the principal switching its action in ``profile``."""
    a1, a2 = profile
    switched = (1 - a1, a2) if principal == 1 else (a1, 1 - a2)
    own, other = (0, 1) if principal == 1 else (1, 0)
    before, after = matrix.payoffs(*profile), matrix.payoffs(*switched)
    return after[own] - before[own], after[other] - before[other]


def closed_form(games, matrices: dict, mode: str, principals) -> mr.ExperimentReport:
    """The report of ``games`` by the rule and payoff arithmetic: no model, no solve."""
    report = mr.ExperimentReport()
    for game in games:
        counts = report.per_matrix.setdefault(game.matrix_id, mr.OutcomeCounts())
        for scope in (report.overall, counts):
            scope.games += 1
        for principal in principals:
            dp, do = switch_deltas(matrices[game.matrix_id], game.rounds[0], principal)
            made = RULES[mode](dp, do)
            for scope in (report.overall, counts):
                scope.queries += 1
                if made:
                    scope.recommendations += 1
                    scope.principal_improved += dp > 0
                    scope.principal_worsened += dp < 0
                    scope.opponent_improved += do > 0
                    scope.pareto_violated += dp < 0 or do < 0
                    scope.welfare_increased += dp + do > 0
                    scope.welfare_decreased += dp + do < 0
    return report


def _positive():
    return st.builds(F, st.integers(1, 60), st.integers(1, 12))


@st.composite
def pd_payoffs(draw) -> dict:
    """(T, R, P, S) with T > R > P > S, sometimes with T + S = 2R or T + S = 2P."""
    sucker = draw(st.builds(F, st.integers(-60, 60), st.integers(1, 12)))
    punishment = sucker + draw(_positive())
    reward = punishment + draw(_positive())
    tie = draw(st.sampled_from(["none", "2R", "2P"]))
    if tie == "2R":
        temptation = 2 * reward - sucker
    elif tie == "2P" and punishment - sucker > reward - punishment:
        temptation = 2 * punishment - sucker
    else:
        temptation = reward + draw(_positive())
    return {"T": temptation, "R": reward, "P": punishment, "S": sucker}


def pd_matrix(mid: str, pay: dict) -> mr.PayoffMatrix:
    return _matrix(mid, (pay["P"], pay["P"]), (pay["T"], pay["S"]), (pay["S"], pay["T"]), (pay["R"], pay["R"]))


def recommends(mode: str, own: int, other: int, pay: dict) -> bool:
    """The PD rule above, for a principal playing ``own`` against ``other``."""
    T, R, P, S = pay["T"], pay["R"], pay["P"], pay["S"]
    if mode == "single_agent":
        return own == mr.SILENT
    if mode == "social_welfare":
        return {(0, 0): T + S > 2 * R, (0, 1): 2 * P > T + S, (1, 0): 2 * R > T + S,
                (1, 1): T + S > 2 * P}[own, other]
    return False


@settings(max_examples=40, deadline=None)
@given(
    st.lists(pd_payoffs(), min_size=1, max_size=3),
    st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    SEEDS,
    st.booleans(),
)
def test_claims_hold_on_every_pd_matrix(payoffs, sizes, seed, exclude_identity):
    ids = [f"pd{i}" for i in range(len(payoffs))]
    payoffs = dict(zip(ids, payoffs))
    matrices = {mid: pd_matrix(mid, p) for mid, p in payoffs.items()}
    assert all(mr.is_pd_ordered(m) for m in matrices.values())
    for mid, pay in payoffs.items():
        for mode, (profile, principal) in product(MODES, product(PROFILES, (1, 2))):
            own, other = profile if principal == 1 else profile[::-1]
            dp, do = switch_deltas(matrices[mid], profile, principal)
            assert RULES[mode](dp, do) == recommends(mode, own, other, pay)
    args = (*sizes, {mid: F(1, len(ids)) for mid in ids}, seed)
    games = mr.generate_synthetic_log(*args)
    for mode in MODES:
        for policy in POLICIES:
            config = mr.ExperimentConfig(mode=mode, principal_policy=policy, exclude_identity=exclude_identity)
            expected = closed_form(games, matrices, mode, config.principals())
            assert mr.run_experiment(games, config, matrices=matrices) == expected
            assert mr.run_cells(mr.synthetic_cells(*args), config, matrices=matrices) == expected


def draw_2x2(rng: random.Random, mid: str) -> mr.PayoffMatrix:
    """A rational 2x2 matrix whose payoffs come from a pool of one to four
    values: often asymmetric and not PD-ordered, with repeated payoffs and
    switches that change a payoff by 0."""
    pool = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    return mr.PayoffMatrix(mid, {p: (rng.choice(pool), rng.choice(pool)) for p in PROFILES})


def check_2x2(seed: int) -> None:
    rng = random.Random(seed)
    ids = [f"m{i}" for i in range(rng.randint(1, 3))]
    matrices = {mid: draw_2x2(rng, mid) for mid in ids}
    n = rng.randint(0, 60)
    args = (n, rng.randint(0, n), {mid: F(1, len(ids)) for mid in ids}, rng.randrange(2**32))
    games = mr.generate_synthetic_log(*args)
    exclude_identity = rng.random() < 0.5
    for mode in MODES:
        for policy in POLICIES:
            config = mr.ExperimentConfig(mode=mode, principal_policy=policy, exclude_identity=exclude_identity)
            expected = closed_form(games, matrices, mode, config.principals())
            assert mr.run_experiment(games, config, matrices=matrices) == expected
            assert mr.run_cells(mr.synthetic_cells(*args), config, matrices=matrices) == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_claims_hold_on_every_2x2_game(seed):
    check_2x2(seed)


def test_the_2x2_draws_reach_every_kind_of_matrix():
    """Asymmetric and symmetric non-PD matrices, repeated payoffs, and switches
    with dp or do = 0 and with dw = 0 (PD matrices are the property above)."""
    seen = set()
    for seed in range(200):
        matrix = draw_2x2(random.Random(seed), "m")
        payoffs = [value for cell in matrix.entries.values() for value in cell]
        if not matrix.is_symmetric():
            seen.add("asymmetric")
        elif not mr.is_pd_ordered(matrix):
            seen.add("symmetric, not PD")
        if len(set(payoffs)) < len(payoffs):
            seen.add("repeated")
        for profile, principal in product(PROFILES, (1, 2)):
            dp, do = switch_deltas(matrix, profile, principal)
            if 0 in (dp, do):
                seen.add("dp or do = 0")
            if dp + do == 0:
                seen.add("dw = 0")
    assert seen == {"asymmetric", "symmetric, not PD", "repeated", "dp or do = 0", "dw = 0"}


# (T, R, P, S) of the builtin matrices, as the README gives them.  table1's
# T + S = 11 lies above 2R = 10: from (silent, silent) the switch raises the
# welfare and improves the principal, and from (betray, silent) it has no
# welfare recourse, the counterexample to criterion 6.
BUILTIN_PAYOFFS = {
    "table1": (F(10), F(5), F(7, 2), F(1)),
    "table2": (F(100), F(65), F(35), F(10)),
    "table3": (F(100), F(75), F(45), F(10)),
}


@pytest.mark.parametrize("exclude_identity", [True, False])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("matrix_id", sorted(BUILTIN_PAYOFFS))
def test_builtin_matrices_follow_the_closed_form(matrix_id, mode, policy, exclude_identity):
    matrix = pd_matrix(matrix_id, dict(zip("TRPS", BUILTIN_PAYOFFS[matrix_id])))
    assert matrix == mr.builtin_matrix(matrix_id)
    config = mr.ExperimentConfig(mode=mode, principal_policy=policy, exclude_identity=exclude_identity)
    for profile in PROFILES:
        games = [mr.GameRecord("g", matrix_id, "test", F(0), [profile])]
        expected = closed_form(games, {matrix_id: matrix}, mode, config.principals())
        assert mr.run_experiment(games, config) == expected
