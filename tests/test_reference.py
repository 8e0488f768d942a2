"""Zone evaluator versus the dense-grid brute force."""

import random

import pytest

from crossings.logic import default_valuation, eval_formula, pretty
from gridgen import GRID_POINTS, random_instance
from reference import oracle_eval


def duel(seed: int, rounds: int, max_depth: int = 4) -> int:
    rng = random.Random(seed)
    disagreements = []
    for _ in range(rounds):
        ts, view, f = random_instance(rng, max_depth=max_depth)
        nu = default_valuation(ts, "E")
        fast = eval_formula(ts, view, nu, f)
        slow = oracle_eval(ts, view, nu, f, points=GRID_POINTS)
        if fast != slow:
            disagreements.append((pretty(f), fast, slow))
    assert not disagreements, disagreements[:3]
    return rounds


def test_atoms_and_shallow_formulas_agree():
    duel(seed=100, rounds=40, max_depth=2)


def test_medium_formulas_agree():
    duel(seed=200, rounds=40, max_depth=3)


def test_deep_formulas_agree():
    duel(seed=300, rounds=30, max_depth=4)


def test_very_deep_formulas_agree():
    duel(seed=400, rounds=100, max_depth=6)
