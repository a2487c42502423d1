"""Pairwise comparison pipeline: rank-sum test, dominance, tournament, digraph.

Two result samples are compared with the two-sided Mann-Whitney/Wilcoxon
rank-sum test.  Small samples (fewer than 20 on either side, no ties in the
pooled data) use the exact permutation distribution of the U statistic,
counted by the Gaussian-binomial recurrence; everything else uses the normal
approximation with midranks, tie correction and continuity correction.  A
pooled sample of identical values is maximally uninformative and returns
p = 1 directly.

Each pair of algorithms gets one :class:`DominanceEntry` per function whose
outcome is +1 or -1 for "first sample significantly better/worse" (lower
median at p below the threshold), or 0 for "no significant difference".
Summing the outcomes over functions gives the tournament entry
``T[i][j]``.  The beat digraph is a view of that matrix, read from
:class:`TournamentMatrix` itself: an edge i -> j whenever ``T[i][j] > 0``,
and an algorithm's beat count is its out-degree -- the number of rivals it
beats overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .benchmark import ResultSet
from .errors import array_dataclass, read_only_arrays

APPROX_MIN_PER_SIDE = 20


@dataclass(frozen=True)
class DominanceEntry:
    """Outcome of one pairwise, per-function comparison."""

    first: str
    second: str
    function: str
    p_value: float
    outcome: int


@array_dataclass
class TournamentMatrix:
    """Antisymmetric dominance totals ``t[i][j]`` over all functions."""

    algorithms: tuple[str, ...]
    t: np.ndarray
    entries: tuple[DominanceEntry, ...] = ()

    def __post_init__(self):
        read_only_arrays(self, "t", dtype=int)
        n = len(self.algorithms)
        if self.t.shape != (n, n):
            raise ValueError("tournament matrix shape must match algorithms")

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Sign digraph: i -> j for ``T[i][j] > 0`` and i != j, row-major."""
        wins = (self.t > 0) & ~np.eye(len(self.algorithms), dtype=bool)
        return tuple((self.algorithms[i], self.algorithms[j])
                     for i, j in np.argwhere(wins))

    @property
    def beat_count(self) -> dict[str, int]:
        """Out-degree of each algorithm: how many rivals it beats overall."""
        winners = [a for a, _ in self.edges]
        return {name: winners.count(name) for name in self.algorithms}

    @property
    def ranking(self) -> tuple[str, ...]:
        """Algorithms by descending beat count, ties by name."""
        beats = self.beat_count
        return tuple(sorted(self.algorithms, key=lambda a: (-beats[a], a)))


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, float]:
    """Fractional ranks of the pooled sample plus the tie-correction sum."""
    _, inverse, counts = np.unique(pooled, return_inverse=True,
                                   return_counts=True)
    # A tied block of c values ending at 1-based rank e shares e - (c - 1)/2.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return ranks, float(np.sum(counts ** 3 - counts))


@lru_cache(maxsize=256)
def _exact_u_counts(n1: int, n2: int) -> tuple[int, ...]:
    """Number of rank assignments giving each U value, exact integers: the
    Gaussian binomial ``prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i)``, m <= n the
    sample sizes, built a factor at a time and cut past its degree ``m n``."""
    max_u = n1 * n2
    counts = [1] + [0] * max_u
    for i in range(1, min(n1, n2) + 1):
        k = max(n1, n2) + i
        for u in range(max_u, k - 1, -1):  # times (1 - q^k)
            counts[u] -= counts[u - k]
        for u in range(i, max_u + 1):  # over (1 - q^i)
            counts[u] += counts[u - i]
    return tuple(counts)


def _exact_two_sided_p(u: float, n1: int, n2: int) -> float:
    counts = _exact_u_counts(n1, n2)
    total = sum(counts)
    u_int = int(round(u))  # exact path is tie-free, so U is integral
    lower = sum(counts[:u_int + 1])
    upper = sum(counts[u_int:])
    return min(1.0, 2.0 * min(lower, upper) / total)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b) -> float:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum p-value.

    Exact permutation distribution when both samples are small and the
    pooled data is tie-free; normal approximation with tie and continuity
    corrections otherwise.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks, tie_sum = _midranks(pooled)
    if np.all(pooled == pooled[0]):
        return 1.0
    r1 = float(np.sum(ranks[:n1]))
    u1 = r1 - n1 * (n1 + 1) / 2.0

    if tie_sum == 0.0 and min(n1, n2) < APPROX_MIN_PER_SIDE:
        return _exact_two_sided_p(u1, n1, n2)

    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    var_u = (n1 * n2 / 12.0) * ((n + 1.0) - tie_sum / (n * (n - 1.0)))
    # Continuity correction shrinks the larger tail's statistic by 1/2.
    z = max(0.0, (abs(u1 - mean_u) - 0.5) / math.sqrt(var_u))
    return min(1.0, 2.0 * _normal_sf(z))


def _outcome(a, b, p: float, p_threshold: float) -> int:
    """+1 if the first sample is significantly better (lower median), -1 if
    worse, 0 when ``p`` is insignificant or the medians coincide."""
    if p >= p_threshold:
        return 0
    med_a = float(np.median(np.asarray(a, dtype=float)))
    med_b = float(np.median(np.asarray(b, dtype=float)))
    return (med_a < med_b) - (med_b < med_a)


def tournament(results: ResultSet, p_threshold: float = 0.05) -> TournamentMatrix:
    """Dominance totals for every ordered algorithm pair.

    Requires a complete ResultSet: missing (NaN) runs must be resolved before
    statistics, not silently compared.
    """
    if not (0.0 < p_threshold < 1.0):
        raise ValueError("p_threshold must lie in (0, 1)")
    if np.any(np.isnan(results.values)):
        raise ValueError("ResultSet contains missing (NaN) runs; "
                         "finish or repair the experiment before comparing")
    n = len(results.algorithms)
    t = np.zeros((n, n), dtype=int)
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            total = 0
            for k, function in enumerate(results.functions):
                a, b = results.values[i, k], results.values[j, k]
                p = wilcoxon_rank_sum(a, b)
                outcome = _outcome(a, b, p, p_threshold)
                entries.append(DominanceEntry(
                    first=results.algorithms[i], second=results.algorithms[j],
                    function=function, p_value=p, outcome=outcome))
                total += outcome
            t[i, j] = total
            t[j, i] = -total
    return TournamentMatrix(algorithms=results.algorithms, t=t,
                            entries=tuple(entries))


# --- exports -----------------------------------------------------------------

def tournament_to_csv(tm: TournamentMatrix) -> str:
    lines = ["algorithm," + ",".join(tm.algorithms)]
    for i, name in enumerate(tm.algorithms):
        lines.append(name + "," + ",".join(str(int(v)) for v in tm.t[i]))
    return "\n".join(lines) + "\n"


def digraph_edges_csv(tm: TournamentMatrix) -> str:
    lines = ["from,to"]
    lines.extend(f"{a},{b}" for a, b in tm.edges)
    return "\n".join(lines) + "\n"


def digraph_to_dot(tm: TournamentMatrix) -> str:
    """GraphViz text of the beat digraph, beat counts in the node labels."""
    beats = tm.beat_count
    lines = [
        "digraph tournament {",
        "  // beat count = out-degree: how many rivals the node beats overall",
        "  rankdir=LR;",
    ]
    for name in tm.ranking:
        lines.append(f'  "{name}" [label="{name}\\nbeats {beats[name]}"];')
    for a, b in tm.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ranking_table(tm: TournamentMatrix) -> str:
    beats = tm.beat_count
    lines = ["rank  algorithm        beats"]
    for pos, name in enumerate(tm.ranking, start=1):
        lines.append(f"{pos:>4}  {name:<15}  {beats[name]:>5}")
    return "\n".join(lines) + "\n"
