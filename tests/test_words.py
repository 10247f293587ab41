from itertools import combinations, product

import pytest

from conftest import arc, c3, p3, powers_all_free, transitive_oracle, tt3

from forbor import (
    FactorAutomaton, FactorSet, contains_induced, directed_path,
    enumerate_periods, forbidden_factor_set, has_free_word, is_A_free,
    is_factor, is_isomorphic, is_periodic, is_transitive, path_to_word,
    period_structure, periodic_word, sync_bound, word_to_path,
)

AF_BIP = FactorSet(frozenset({">>", "<<"}))


def words_up_to(n):
    for k in range(1, n + 1):
        for letters in product("><", repeat=k):
            yield "".join(letters)


def test_word_to_path():
    p = word_to_path(">>")
    assert sorted(p.arcs) == [(0, 1), (1, 2)]
    assert word_to_path("").n == 1
    assert sorted(word_to_path(">≮"[:1] + "<").arcs) == [(0, 1), (2, 1)]
    with pytest.raises(ValueError):
        word_to_path(">x<")


def test_path_to_word():
    assert path_to_word(directed_path(2)) == {">>", "<<"}
    assert path_to_word(word_to_path("><")) == {"><"}
    assert path_to_word(word_to_path("")) == {""}
    with pytest.raises(ValueError):
        path_to_word(c3())
    with pytest.raises(ValueError):
        path_to_word(tt3())


def test_word_path_round_trip():
    for w in words_up_to(6):
        back = path_to_word(word_to_path(w))
        assert w in back
        for v in back:
            assert is_isomorphic(word_to_path(v), word_to_path(w))


def test_translation_is_monotone():
    # a factor of b implies the shorter path embeds induced in the longer
    pairs = [("><", ">><<"), (">", "><"), ("<<", "><<>"), (">><", ">><")]
    for a, b in pairs:
        assert is_factor(a, b)
        assert contains_induced(word_to_path(a), word_to_path(b)) is not None


def test_is_factor():
    assert is_factor("><", ">><<") is True
    assert is_factor("", "anything") is True
    assert is_factor(">>", "><><") is False


def test_forbidden_factor_set():
    A = forbidden_factor_set([tt3(), c3(), p3()])
    assert A.members == {">>", "<<"}
    assert forbidden_factor_set([]).members == frozenset()
    assert forbidden_factor_set([arc()]).members == {">", "<"}
    with pytest.raises(ValueError):
        forbidden_factor_set([word_to_path("")])


def test_factor_set_normalization():
    A = FactorSet(frozenset({">>", "<<", ">><"}))
    assert A.members == {">>", "<<"}
    assert FactorSet(frozenset({">", ">>", "<><"})).members == {">"}
    B = FactorSet(frozenset({"<<", "><", ">>", "><<"}))
    assert list(B) == ["<<", "><", ">>"] and len(B) == 3
    with pytest.raises(ValueError):
        FactorSet(frozenset({""}))
    with pytest.raises(ValueError):
        FactorSet(frozenset({">a"}))
    with pytest.raises(TypeError):  # the alphabet is fixed: '>' and '<'
        FactorSet(frozenset({"aa"}), alphabet="ab")


def test_is_A_free():
    assert is_A_free("><><", AF_BIP)
    assert not is_A_free(">><", AF_BIP)
    assert is_A_free("", AF_BIP)


def test_sync_bound():
    assert sync_bound(AF_BIP) == 2
    assert sync_bound(FactorSet()) == 1
    assert sync_bound(FactorSet(frozenset({">>>", "<<"}))) == 3


def test_automaton_states_and_runs():
    aut = FactorAutomaton(AF_BIP)
    assert set(aut.states) == {"", ">", "<"}
    assert aut.accepts("><><")
    assert not aut.accepts(">><")
    # the state after a word is its suffix window
    assert aut.run("><") == "<"
    aut3 = FactorAutomaton(FactorSet(frozenset({">>>", "<<"})))
    assert set(aut3.full_states()) == {">>", "><", "<>"}


def test_automaton_agrees_with_direct_scan():
    for A in (AF_BIP, FactorSet(frozenset({"><>"})), FactorSet(),
              FactorSet(frozenset({">", "<<<"}))):
        aut = FactorAutomaton(A)
        for w in words_up_to(7):
            assert aut.accepts(w) == is_A_free(w, A)


def test_is_transitive():
    assert is_transitive(AF_BIP)
    assert not is_transitive(FactorSet(frozenset({"><", "<>", ">>"})))
    assert is_transitive(FactorSet())
    # only the empty word survives: still transitive
    assert is_transitive(FactorSet(frozenset({">", "<"})))
    # one case per clause of the criterion, q0 the first full state:
    # (1) q0 reaches every full state, (2) every state reaches q0,
    # (3) the window is 0 or q0 has a successor
    for factors, clauses in ((("><",), (False, True, True)),
                             (("<>",), (True, False, True)),
                             ((">", "<<"), (True, True, False)),
                             ((">",), (True, True, True))):
        A = FactorSet(frozenset(factors))
        aut = FactorAutomaton(A)
        full = aut.full_states()
        q0 = full[0]
        assert clauses == (
            aut.reachable_from(q0) >= set(full),
            all(q0 in aut.reachable_from(s) for s in aut.states),
            aut.window == 0 or any(aut.step(q0, c) is not None for c in "><"))
        assert is_transitive(A) == all(clauses) == transitive_oracle(A), factors
    assert FactorAutomaton(FactorSet(frozenset({">"}))).window == 0


def test_transitivity_against_bounded_search():
    # joining word search up to length 6 agrees on small factor sets
    pool = [w for w in words_up_to(2)]
    for r in (1, 2, 3):
        for sub in combinations(pool, r):
            A = FactorSet(frozenset(sub))
            free = [w for w in words_up_to(4) if is_A_free(w, A)]
            joinable = all(
                any(is_A_free(a + d + b, A)
                    for d in [""] + list(words_up_to(6)))
                for a in free for b in free)
            assert is_transitive(A) == joinable, sub


def test_is_periodic():
    assert is_periodic("><", AF_BIP)
    assert not is_periodic(">", AF_BIP)
    assert is_periodic(">><", FactorSet(frozenset({"<<"})))
    with pytest.raises(ValueError):
        is_periodic("", AF_BIP)
    # a letter outside the alphabet is refused, as the automaton refuses it
    for w in ("xy", ">x<"):
        assert not FactorAutomaton(AF_BIP).accepts(w)
        with pytest.raises(ValueError, match="^letter 'x' is not in the alphabet '><'$"):
            is_periodic(w, AF_BIP)


def test_periodicity_oracle_equivalence():
    # power-test shortcut agrees with explicit powers up to 3K, for every
    # word up to length 8 over several windows
    for A in (AF_BIP, FactorSet(frozenset({">>>", "<<"})),
              FactorSet(frozenset({"><><"})), FactorSet(frozenset({">"}))):
        mhat = sync_bound(A)
        for w in words_up_to(8):
            K = -(-mhat // len(w)) + 1
            assert is_periodic(w, A) == powers_all_free(w, A, 3 * K)


def test_enumerate_periods_examples():
    assert enumerate_periods(AF_BIP, 10, nonconstant_only=True) == {2, 4, 6, 8, 10}
    assert enumerate_periods(FactorSet(frozenset({">"})), 5) == {1, 2, 3, 4, 5}
    assert enumerate_periods(FactorSet(frozenset({">"})), 5, nonconstant_only=True) == set()
    assert enumerate_periods(FactorSet(), 5) == {1, 2, 3, 4, 5}


def test_enumerate_periods_against_brute_force():
    pool = list(words_up_to(3))
    import random
    rnd = random.Random(7)
    for _ in range(60):
        A = FactorSet(frozenset(rnd.sample(pool, rnd.randint(0, 4))))
        for nc in (False, True):
            got = enumerate_periods(A, 12, nc)
            want = set()
            for k in range(1, 13):
                for letters in product("><", repeat=k):
                    w = "".join(letters)
                    if nc and len(set(w)) < 2:
                        continue
                    if powers_all_free(w, A, 8):
                        want.add(k)
                        break
            assert got == want, sorted(A.members)


def test_multiples_of_periods_are_periods():
    for A in (AF_BIP, FactorSet(frozenset({">>>", "<<"})), FactorSet(frozenset({"><>"}))):
        for nc in (False, True):
            periods = enumerate_periods(A, 60, nc)
            for k in periods:
                for mult in range(2 * k, 61, k):
                    assert mult in periods


def test_periodic_word_witnesses():
    w = periodic_word(AF_BIP, 6, nonconstant=True)
    assert w is not None and len(w) == 6 and len(set(w)) == 2
    assert is_periodic(w, AF_BIP)
    assert periodic_word(AF_BIP, 5) is None
    assert periodic_word(FactorSet(frozenset({">"})), 3) == "<<<"
    with pytest.raises(ValueError, match="period length must be >= 1"):
        periodic_word(AF_BIP, 0)


def test_has_free_word():
    assert has_free_word(AF_BIP, 12)
    A = FactorSet(frozenset({">", "<"}))
    assert not has_free_word(A, 1)
    almost = FactorSet(frozenset({"><", ">>"}))  # after '>' nothing survives
    assert has_free_word(almost, 10)  # all-'<' words
    assert has_free_word(A, 0)  # the empty word
    for k in (-1, -3):
        with pytest.raises(ValueError, match="word length must be >= 0"):
            has_free_word(AF_BIP, k)


def test_period_structure_examples():
    ps = period_structure(AF_BIP)
    assert (ps.gcd_r, ps.threshold_t0, ps.exceptions, ps.transitive) == (2, 2, (), True)
    ps0 = period_structure(FactorSet())
    assert (ps0.gcd_r, ps0.threshold_t0, ps0.exceptions) == (1, 1, ())
    ps3 = period_structure(FactorSet(frozenset({">>>", "<<"})))
    assert ps3.gcd_r == 1 and ps3.exceptions == (1,) and ps3.threshold_t0 == 2
    # empty period set: gcd 0 by convention
    only_eps = period_structure(FactorSet(frozenset({">", "<"})))
    assert only_eps.gcd_r == 0 and only_eps.transitive


def test_period_structure_prediction_matches_enumeration():
    for A in (AF_BIP, FactorSet(), FactorSet(frozenset({">>>", "<<"})),
              FactorSet(frozenset({"<<"}))):
        for nc in (False, True):
            ps = period_structure(A, nonconstant_only=nc)
            if not ps.transitive:
                continue
            enum = enumerate_periods(A, 300, nc)
            assert enum == {k for k in range(1, 301) if ps.contains(k)}


def test_period_structure_nontransitive_reports_data_only():
    A = FactorSet(frozenset({"><", "<>", ">>"}))  # only constant '<' tail words
    assert not is_transitive(A)
    ps = period_structure(A)
    assert not ps.transitive
    assert ps.observed == tuple(range(1, 301))  # powers of '<'
    with pytest.raises(ValueError):
        ps.contains(4)


def test_period_structure_refuses_a_verify_to_below_one():
    # one check before either branch, naming the caller's parameter
    transitive = FactorSet(frozenset({">>>", "<<<"}))
    not_transitive = FactorSet(frozenset({"><", "<>", ">>"}))
    assert is_transitive(transitive) and not is_transitive(not_transitive)
    for A in (transitive, not_transitive):
        with pytest.raises(ValueError, match="verify_to must be >= 1"):
            period_structure(A, verify_to=0)
