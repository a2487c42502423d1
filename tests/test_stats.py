"""Rank-sum testing, pairwise dominance, and tournament aggregation."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmpattern.stats as stats
from swarmpattern import (
    ResultSet,
    TournamentMatrix,
    digraph_edges_csv,
    digraph_to_dot,
    ranking_table,
    tournament,
    tournament_to_csv,
    wilcoxon_rank_sum,
)

SIX = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


def _brute_force_p(a, b):
    """Two-sided p by enumerating every rank assignment (tie-free input)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n = a.size, a.size + b.size
    pooled = np.concatenate([a, b])
    ranks = np.empty(n)
    ranks[np.argsort(pooled)] = np.arange(1, n + 1)
    u_obs = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    lower = upper = total = 0
    for combo in itertools.combinations(range(1, n + 1), n1):
        u = sum(combo) - n1 * (n1 + 1) / 2
        total += 1
        lower += u <= u_obs
        upper += u >= u_obs
    return min(1.0, 2.0 * min(lower, upper) / total)


def _results(values, algorithms=None, functions=None):
    values = np.asarray(values, dtype=float)
    return ResultSet(
        algorithms=algorithms or tuple(f"algo{i}" for i in range(values.shape[0])),
        functions=functions or tuple(f"f{k}" for k in range(values.shape[1])),
        values=values,
    )


class TestWilcoxonRankSum:
    def test_identical_constant_samples(self):
        assert wilcoxon_rank_sum([3.0, 3.0, 3.0], [3.0, 3.0]) == 1.0

    def test_identical_distinct_samples(self):
        assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_fully_separated_small_samples(self):
        p = wilcoxon_rank_sum([1.0, 2.0, 3.0, 4.0], [10.0, 11.0, 12.0, 13.0])
        assert p == 2.0 / 70.0

    def test_fully_separated_large_samples(self):
        rng = np.random.default_rng(0)
        p = wilcoxon_rank_sum(rng.normal(0.0, 1.0, 50), rng.normal(10.0, 1.0, 50))
        assert p < 1e-6

    def test_symmetry_in_the_arguments(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 9)
        b = rng.normal(0.5, 1.0, 7)
        assert wilcoxon_rank_sum(a, b) == wilcoxon_rank_sum(b, a)

    def test_exact_path_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        for n1 in (2, 3, 5, 8):
            for n2 in (2, 4, 8):
                a = rng.normal(0.0, 1.0, n1)
                b = rng.normal(1.0, 1.0, n2)
                assert wilcoxon_rank_sum(a, b) == _brute_force_p(a, b)

    def test_exact_path_matches_scipy(self):
        rng = np.random.default_rng(3)
        for n1, n2 in ((8, 6), (19, 200)):
            a = rng.normal(0.0, 1.0, n1)
            b = rng.normal(0.5, 1.0, n2)
            reference = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="exact").pvalue
            assert wilcoxon_rank_sum(a, b) == pytest.approx(reference, abs=1e-12)

    def test_tied_path_matches_scipy_corrected_normal(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 5, 25).astype(float)
        b = rng.integers(1, 6, 30).astype(float)
        reference = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic",
            use_continuity=True).pvalue
        assert wilcoxon_rank_sum(a, b) == pytest.approx(reference, abs=1e-9)

    def test_normal_approximation_tracks_the_exact_tail(self, monkeypatch):
        rng = np.random.default_rng(5)
        pairs = []
        for n1 in range(5, 13):
            for n2 in range(5, 13):
                for _ in range(3):
                    pairs.append((rng.normal(0.0, 1.0, n1),
                                  rng.normal(0.7, 1.0, n2)))
        exact = [wilcoxon_rank_sum(a, b) for a, b in pairs]
        monkeypatch.setattr(stats, "APPROX_MIN_PER_SIDE", 0)
        approx = [wilcoxon_rank_sum(a, b) for a, b in pairs]
        worst = max(abs(x - y) for x, y in zip(exact, approx))
        assert worst < 0.02

    def test_input_guards(self):
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            wilcoxon_rank_sum([], [1.0])
        with pytest.raises(ValueError, match="samples must be finite"):
            wilcoxon_rank_sum([1.0, np.nan], [2.0])


def _dominance(a, b, p_threshold=0.05):
    """The per-function outcome ``tournament`` records for samples a and b."""
    return stats._outcome(a, b, wilcoxon_rank_sum(a, b), p_threshold)


class TestDominance:
    def test_clear_winner_and_loser(self):
        assert _dominance(SIX, SIX + 10.0) == 1
        assert _dominance(SIX + 10.0, SIX) == -1

    def test_insignificant_difference_is_a_draw(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, 6)
        assert _dominance(a, a + 0.01) == 0

    def test_significant_but_equal_medians_is_a_draw(self):
        a = [0.0, 0.1, 0.2, 5.0, 5.0, 5.0, 5.0]
        b = [5.0, 5.0, 5.0, 5.0, 9.0, 9.5, 9.9]
        assert wilcoxon_rank_sum(a, b) < 0.05
        assert np.median(a) == np.median(b)
        assert _dominance(a, b) == 0

    def test_threshold_validation(self):
        results = _results([[SIX], [SIX + 10.0]])
        with pytest.raises(ValueError, match="p_threshold must lie in"):
            tournament(results, p_threshold=0.0)
        with pytest.raises(ValueError, match="p_threshold must lie in"):
            tournament(results, p_threshold=1.0)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=20),
           st.lists(st.integers(0, 5), min_size=2, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry_even_under_heavy_ties(self, a, b):
        a = [float(v) for v in a]
        b = [float(v) for v in b]
        assert _dominance(a, b) == -_dominance(b, a)

    @given(st.lists(st.integers(0, 8), min_size=3, max_size=15),
           st.lists(st.integers(2, 10), min_size=3, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_tightening_the_threshold_only_removes_wins(self, a, b):
        a = [float(v) for v in a]
        b = [float(v) for v in b]
        strict = _dominance(a, b, p_threshold=0.01)
        loose = _dominance(a, b, p_threshold=0.2)
        assert strict == loose or strict == 0


class TestTournament:
    def test_micro_tournament_totals(self):
        results = _results(
            [[SIX, SIX, np.ones(6)],
             [SIX + 10.0, SIX + 10.0, np.ones(6)]],
            algorithms=("fast", "slow"))
        tm = tournament(results)
        assert tm.t[0, 1] == 2
        assert tm.t[1, 0] == -2
        assert tm.t[0, 0] == tm.t[1, 1] == 0
        assert [e.outcome for e in tm.entries] == [1, 1, 0]
        assert tm.entries[0].p_value == pytest.approx(2.0 / 924.0)
        assert (tm.entries[0].first, tm.entries[0].second) == ("fast", "slow")

    def test_split_decision_cancels(self):
        results = _results(
            [[SIX, SIX + 10.0, np.ones(6)],
             [SIX + 10.0, SIX, np.ones(6)]])
        assert tournament(results).t[0, 1] == 0

    def test_function_order_does_not_matter(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 1.0, (3, 4, 8))
        values[1] += 0.5
        base = _results(values)
        shuffled = _results(values[:, [2, 0, 3, 1], :],
                            functions=("f2", "f0", "f3", "f1"))
        assert np.array_equal(tournament(base).t, tournament(shuffled).t)

    def test_algorithm_against_itself_draws(self):
        results = _results([[SIX, SIX], [SIX, SIX]])
        assert np.all(tournament(results).t == 0)

    def test_nan_runs_are_rejected(self):
        values = np.ones((2, 1, 6))
        values[1, 0, 3] = np.nan
        with pytest.raises(ValueError, match="finish or repair"):
            tournament(_results(values))

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError, match="shape must match algorithms"):
            TournamentMatrix(("a",), np.zeros((2, 2), dtype=int))


class TestBeatDigraph:
    def _transitive(self):
        results = _results(
            [[SIX], [SIX + 10.0], [SIX + 20.0]],
            algorithms=("a", "b", "c"), functions=("f0",))
        return tournament(results)

    def test_transitive_chain(self):
        tm = self._transitive()
        assert tm.beat_count == {"a": 2, "b": 1, "c": 0}
        assert tm.ranking == ("a", "b", "c")
        assert tm.edges == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_at_most_one_edge_per_pair(self):
        tm = self._transitive()
        n = len(tm.algorithms)
        assert len(tm.edges) <= n * (n - 1) // 2
        assert all((b, a) not in tm.edges for a, b in tm.edges)

    def test_all_draws_make_an_edgeless_graph(self):
        results = _results([[SIX, SIX], [SIX, SIX]])
        tm = tournament(results)
        assert tm.edges == ()
        assert tm.ranking == ("algo0", "algo1")
        assert set(tm.beat_count.values()) == {0}

    def test_a_positive_diagonal_draws_no_self_edge(self):
        # The diagonal is ignored: an algorithm never beats itself.
        zero = TournamentMatrix(("a", "b"), np.array([[0, 1], [-1, 0]]))
        positive = TournamentMatrix(("a", "b"), np.array([[3, 1], [-1, 2]]))
        for tm in (zero, positive):
            assert tm.edges == (("a", "b"),)
            assert tm.beat_count == {"a": 1, "b": 0}
            assert tm.ranking == ("a", "b")
        assert digraph_edges_csv(positive) == digraph_edges_csv(zero)
        assert digraph_to_dot(positive) == digraph_to_dot(zero)
        assert ranking_table(positive) == ranking_table(zero)


class TestExports:
    def _micro(self):
        results = _results(
            [[SIX, SIX, np.ones(6)], [SIX + 10.0, SIX + 10.0, np.ones(6)]],
            algorithms=("fast", "slow"))
        return tournament(results)

    def test_matrix_csv(self):
        tm = self._micro()
        lines = tournament_to_csv(tm).splitlines()
        assert lines == ["algorithm,fast,slow", "fast,0,2", "slow,-2,0"]

    def test_edge_csv(self):
        tm = self._micro()
        assert digraph_edges_csv(tm) == "from,to\nfast,slow\n"

    def test_dot_output(self):
        tm = self._micro()
        dot = digraph_to_dot(tm)
        assert dot.startswith("digraph tournament {")
        assert "beat count = out-degree" in dot
        assert '"fast" [label="fast\\nbeats 1"];' in dot
        assert '"fast" -> "slow";' in dot
        assert dot.endswith("}\n")

    def test_ranking_table(self):
        tm = self._micro()
        lines = ranking_table(tm).splitlines()
        assert lines[0] == "rank  algorithm        beats"
        assert lines[1].split() == ["1", "fast", "1"]
        assert lines[2].split() == ["2", "slow", "0"]

    def test_every_export_pinned_on_a_draw_and_a_tie(self):
        # Hand-built values, not runs: alpha and beta draw (identical samples,
        # p = 1), both beat gamma, and tie on one beat each.  The ranking
        # breaks the tie by name; edges keep the matrix's row-major order.
        results = _results([[SIX + 10.0], [SIX], [SIX]],
                           algorithms=("gamma", "beta", "alpha"))
        tm = tournament(results)
        assert tournament_to_csv(tm) == (
            "algorithm,gamma,beta,alpha\n"
            "gamma,0,-1,-1\n"
            "beta,1,0,0\n"
            "alpha,1,0,0\n")
        assert digraph_edges_csv(tm) == "from,to\nbeta,gamma\nalpha,gamma\n"
        assert digraph_to_dot(tm) == (
            "digraph tournament {\n"
            "  // beat count = out-degree: how many rivals the node beats overall\n"
            "  rankdir=LR;\n"
            '  "alpha" [label="alpha\\nbeats 1"];\n'
            '  "beta" [label="beta\\nbeats 1"];\n'
            '  "gamma" [label="gamma\\nbeats 0"];\n'
            '  "beta" -> "gamma";\n'
            '  "alpha" -> "gamma";\n'
            "}\n")
        assert ranking_table(tm) == (
            "rank  algorithm        beats\n"
            "   1  alpha                1\n"
            "   2  beta                 1\n"
            "   3  gamma                0\n")
