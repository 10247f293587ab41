"""Word-layer kernels against the independent oracles, and CLI regressions
on factor sets whose automata have thousands of states."""

import dataclasses
import hashlib
import json
import math
import random
from itertools import product

import pytest

from conftest import periods_oracle, transitive_oracle
from test_acceptance import all_small_factor_sets

from forbor import (
    FactorSet, enumerate_periods, is_transitive, period_structure, periodic_word,
)
from forbor import words
from forbor.cli import run


def _random_factor_sets():
    rng = random.Random(31337)
    pool = ["".join(p) for L in range(1, 7) for p in product("><", repeat=L)]
    return [FactorSet(frozenset(rng.sample(pool, rng.randint(1, 6))))
            for _ in range(300)]


def _long_factor_sets():
    # one to four factors of 2 to 8 letters: automata of up to 255 states
    rng = random.Random(808)
    return [FactorSet(frozenset("".join(rng.choice("><") for _ in range(rng.randint(2, 8)))
                                for _ in range(rng.randint(1, 4))))
            for _ in range(150)]


FAMILIES = {"exhaustive": all_small_factor_sets, "random": _random_factor_sets}
#: the periods oracle expands every k-word, too slow for the long family
TRANSITIVE_FAMILIES = {**FAMILIES, "long": _long_factor_sets}


@pytest.mark.parametrize("family", TRANSITIVE_FAMILIES)
def test_is_transitive_agrees_with_oracle(family):
    for A in TRANSITIVE_FAMILIES[family]():
        assert is_transitive(A) == transitive_oracle(A), sorted(A.members)


@pytest.mark.parametrize("nonconstant", (False, True))
@pytest.mark.parametrize("family", FAMILIES)
def test_enumerate_periods_agrees_with_oracle(family, nonconstant):
    for A in FAMILIES[family]():
        assert enumerate_periods(A, 12, nonconstant) == \
            periods_oracle(A, 12, nonconstant), sorted(A.members)


def _lang(tmp_path, query, L):
    f = tmp_path / "A.txt"
    f.write_text(f"{'>' * L}\n{'<' * L}\n")
    status, out = run(["lang", query, "-A", str(f)])
    assert status == 0, out
    return json.loads(out)["result"]


def test_cli_lang_structure_of_long_constant_factors(tmp_path):
    result = _lang(tmp_path, "structure", 13)
    # the report keeps its seven keys: PeriodStructure.periods is not one
    assert set(result) == {"gcd_r", "threshold_t0", "exceptions", "transitive",
                           "nonconstant_variant", "observed", "verified_to"}
    assert result["transitive"] is True
    assert result["gcd_r"] == 1
    assert result["exceptions"] == [1]
    assert result["threshold_t0"] == 2
    assert result["verified_to"] >= 300


def test_cli_lang_transitive_on_long_constant_factors(tmp_path):
    assert _lang(tmp_path, "transitive", 12)["transitive"] is True


#: sha256 of the word layer's outputs on criterion 3's exhaustive pool and
#: {>^L, <^L} for L = 2..10: the automaton's states in order, periodic_word
#: for k <= 8 and the seven reported period_structure fields, both
#: variants (`periods` is checked against the walk below).  Pins the
#: breadth-first state order, the witness order, the structure read off
#: the walk recurrence's first repeat and verified_to.
WORD_LAYER_SHA256 = "37914b898d51ab69784440e06d12e43ab129d7c43faf6b9f87188507586dcc25"


def test_word_layer_is_pinned():
    pool = all_small_factor_sets() + [FactorSet(frozenset({">" * L, "<" * L}))
                                      for L in range(2, 11)]
    rows = []
    for A in pool:
        rows.append(repr((sorted(A.members), words.automaton(A).states)))
        for nc in (False, True):
            rows.append(repr([periodic_word(A, k, nc) for k in range(1, 9)]))
            rows.append(repr(dataclasses.astuple(period_structure(A, nc))[:7]))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == WORD_LAYER_SHA256


def test_period_structure_makes_one_walk_pass(monkeypatch):
    calls = dict.fromkeys(("_closed_walks", "enumerate_periods"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(words, name, counted(name, getattr(words, name)))
    # one walk for a transitive and for a non-transitive language alike
    pair = [FactorSet(frozenset({">" * 6, "<" * 5, "<><<>"})), FactorSet(frozenset({"><"}))]
    assert [is_transitive(A) for A in pair] == [True, False]
    for A in pair:
        for nc in (False, True):
            period_structure(A, nc)
    assert calls == {"_closed_walks": 4, "enumerate_periods": 0}


def _criterion3_pool():
    # criterion 3's pool: exhaustive and random
    rng = random.Random(424242)
    pool4 = ["".join(p) for L in (1, 2, 3, 4) for p in product("><", repeat=L)]
    return all_small_factor_sets() + [
        FactorSet(frozenset(rng.sample(pool4, rng.randint(0, 5)))) for _ in range(100)]


def test_both_variants_walk_the_same_states():
    # the nonconstant flag is a second reading of the k-walk matrices, so
    # both variants yield one state sequence
    pool = _criterion3_pool() + [FactorSet(frozenset({">" * L, "<" * L}))
                                 for L in range(2, 11)]
    for A in pool:
        steps = zip(range(40), words._closed_walks(A, False), words._closed_walks(A, True))
        for k, (_, constant), (_, nonconstant) in steps:
            assert constant == nonconstant, (sorted(A.members), k + 1)


def _count_drawn_steps(monkeypatch):
    # patches the walk so that each call appends its count of drawn steps
    closed_walks = words._closed_walks
    drawn = []

    def counted(A, nonconstant):
        drawn.append(0)
        for step in closed_walks(A, nonconstant):
            drawn[-1] += 1
            yield step

    monkeypatch.setattr(words, "_closed_walks", counted)
    return drawn


def test_period_structure_stops_at_the_first_repeat(monkeypatch):
    # the structure is read off the recurrence's first repeated state, well
    # before the 300 lengths that the observed sample reports, for
    # transitive and non-transitive languages alike
    drawn = _count_drawn_steps(monkeypatch)
    pool = [FactorSet(frozenset({">" * L, "<" * L})) for L in range(2, 11)]
    assert all(is_transitive(A) for A in pool)
    crit3 = _criterion3_pool()
    assert any(is_transitive(A) for A in crit3) and not all(is_transitive(A) for A in crit3)
    for A in pool + crit3:
        for nc in (False, True):
            ps = period_structure(A, nc)
            assert 0 < drawn[-1] < 300, (sorted(A.members), nc, drawn[-1])
            assert ps.verified_to == 300


def test_periods_are_the_walks_period_set():
    # the walk to 600 is the oracle for the exact set, both variants,
    # transitive or not (every walk repeats before the 300 budget), and the
    # observed sample is the walk's to 300
    rng = random.Random(2718)
    pool = ["".join(p) for L in range(1, 7) for p in product("><", repeat=L)]
    seeded = [FactorSet(frozenset(rng.sample(pool, rng.randint(1, 6))))
              for _ in range(1000)]
    constant = [FactorSet(frozenset({">" * L, "<" * L})) for L in range(2, 11)]
    non_transitive = 0
    for A in _criterion3_pool() + seeded + constant:
        transitive = is_transitive(A)
        non_transitive += not transitive
        for nc in (False, True):
            ps = period_structure(A, nc)
            walk = enumerate_periods(A, 600, nc)
            assert {k for k in range(-5, 601) if ps.contains(k)} == walk, \
                (sorted(A.members), nc)
            assert ps.observed == tuple(sorted(k for k in walk if k <= 300))
            if not transitive:
                assert ps.gcd_r == math.gcd(*ps.observed)
                assert (ps.threshold_t0, ps.exceptions, ps.verified_to) == (0, (), 300)
    assert non_transitive > 500


def test_non_transitive_walk_stops_at_the_budget(monkeypatch):
    # a verify_to below the first repeat cuts the walk; the sample is still
    # the enumerated one
    drawn = _count_drawn_steps(monkeypatch)
    for A in _criterion3_pool():
        if is_transitive(A):
            continue
        for nc in (False, True):
            for verify_to in range(1, 13):
                ps = period_structure(A, nc, verify_to)
                assert drawn[-1] <= verify_to, (sorted(A.members), nc, verify_to)
                assert ps.observed == tuple(sorted(enumerate_periods(A, verify_to, nc)))
                assert ps.verified_to == verify_to


def test_automaton_answers_outside_its_states_and_alphabet():
    aut = words.automaton(FactorSet(frozenset({">>", "<<"})))
    for s in aut.states:
        for letter in ("x", "", "><", None):
            assert aut.step(s, letter) is None
        assert aut.run(">x<", start=s) is None
    assert not aut.accepts(">x")
    for other in ("x", ">>", "><>", "<<<"):
        assert aut.step(other, ">") is None and aut.step(other, "<") is None
        assert aut.run("><", start=other) is None
        assert aut.run("", start=other) == other
        assert aut.reachable_from(other) == {other}
    assert aut.reachable_from("") == {"", ">", "<"}


def test_automaton_stops_at_the_state_limit(monkeypatch):
    with pytest.raises(ValueError, match="exceeds 65536 states"):
        words.FactorAutomaton(FactorSet(frozenset({">" * 11 + "<" * 11})))
    # {>^3, <^3} has 7 states: it fits a limit of 7, not one of 6
    A = FactorSet(frozenset({">>>", "<<<"}))
    monkeypatch.setattr(words, "STATE_LIMIT", 7)
    assert len(words.FactorAutomaton(A).states) == 7
    monkeypatch.setattr(words, "STATE_LIMIT", 6)
    with pytest.raises(ValueError, match="exceeds 6 states"):
        words.FactorAutomaton(A)


def test_cli_lang_periods_over_the_state_limit_is_one_error_line(tmp_path):
    f = tmp_path / "A.txt"
    f.write_text(">" * 11 + "<" * 11 + "\n")
    status, out = run(["lang", "periods", "-A", str(f), "--kmax", "3"])
    assert status == 1
    assert out == ("error: the factor automaton exceeds 65536 states "
                   "(longest forbidden factor: 22 letters)")
