"""Word-layer kernels against the independent oracles, and CLI regressions
on factor sets whose automata have thousands of states."""

import json
import random
from itertools import product

import pytest

from conftest import periods_oracle, transitive_oracle
from test_acceptance import all_small_factor_sets

from forbor import FactorSet, enumerate_periods, is_transitive
from forbor.cli import run


def _random_factor_sets():
    rng = random.Random(31337)
    pool = ["".join(p) for L in range(1, 7) for p in product("><", repeat=L)]
    return [FactorSet(frozenset(rng.sample(pool, rng.randint(1, 6))))
            for _ in range(300)]


FAMILIES = {"exhaustive": all_small_factor_sets, "random": _random_factor_sets}


@pytest.mark.parametrize("family", FAMILIES)
def test_is_transitive_agrees_with_oracle(family):
    for A in FAMILIES[family]():
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
    assert result["transitive"] is True
    assert result["gcd_r"] == 1
    assert result["exceptions"] == [1]
    assert result["threshold_t0"] == 2
    assert result["verified_to"] >= 300


def test_cli_lang_transitive_on_long_constant_factors(tmp_path):
    assert _lang(tmp_path, "transitive", 12)["transitive"] is True
