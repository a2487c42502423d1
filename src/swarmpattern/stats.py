"""Pairwise comparison pipeline: rank-sum test, dominance, tournament, digraph.

Two result samples are compared with the two-sided Mann-Whitney/Wilcoxon
rank-sum test.  Small samples (fewer than 20 on either side, no ties in the
pooled data) use the exact permutation distribution of the U statistic,
counted by the classic lattice recursion; everything else uses the normal
approximation with midranks, tie correction and continuity correction.  A
pooled sample of identical values is maximally uninformative and returns
p = 1 directly.

Each pair of algorithms gets one :class:`DominanceEntry` per function whose
outcome is +1 or -1 for "first sample significantly better/worse" (lower
median at p below the threshold), or 0 for "no significant difference".
Summing the outcomes over functions gives the tournament entry
``T[i][j]``; its sign digraph draws an edge i -> j whenever ``T[i][j] > 0``,
and an algorithm's beat count is its out-degree -- the number of rivals it
beats overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .benchmark import ResultSet

APPROX_MIN_PER_SIDE = 20


@dataclass(frozen=True)
class DominanceEntry:
    """Outcome of one pairwise, per-function comparison."""

    first: str
    second: str
    function: str
    p_value: float
    outcome: int


@dataclass(frozen=True)
class TournamentMatrix:
    """Antisymmetric dominance totals ``t[i][j]`` over all functions."""

    algorithms: tuple[str, ...]
    t: np.ndarray
    entries: tuple[DominanceEntry, ...] = ()

    def __post_init__(self):
        t = np.asarray(self.t, dtype=int)
        n = len(self.algorithms)
        if t.shape != (n, n):
            raise ValueError("tournament matrix shape must match algorithms")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class BeatDigraph:
    """Sign digraph of a tournament with out-degree beat counts.

    ``nodes`` are ordered by descending beat count (ties by name), which is
    the ranking the tournament induces.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    beat_count: dict[str, int]


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, float]:
    """Fractional ranks of the pooled sample plus the tie-correction sum."""
    _, inverse, counts = np.unique(pooled, return_inverse=True,
                                   return_counts=True)
    # A tied block of c values ending at 1-based rank e shares e - (c - 1)/2.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return ranks, float(np.sum(counts ** 3 - counts))


@lru_cache(maxsize=256)
def _exact_u_counts(n1: int, n2: int) -> tuple[int, ...]:
    """Number of rank assignments giving each U value, exact integers.

    Lattice recursion: counts(n1, n2, u) = counts(n1-1, n2, u-n2)
    + counts(n1, n2-1, u).  Python integers keep it exact for any size.
    """
    max_u = n1 * n2
    prev = [[0] * (max_u + 1) for _ in range(n2 + 1)]
    prev[0][0] = 1  # zero elements from the first sample
    for n in range(1, n2 + 1):
        prev[n][0] = 1
    current = prev
    for m in range(1, n1 + 1):
        nxt = [[0] * (max_u + 1) for _ in range(n2 + 1)]
        nxt[0][0] = 1
        for n in range(1, n2 + 1):
            row = nxt[n]
            shifted = current[n]
            below = nxt[n - 1]
            for u in range(max_u + 1):
                total = below[u]
                if u >= n:
                    total += shifted[u - n]
                row[u] = total
        current = nxt
    return tuple(current[n2])


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

    has_ties = tie_sum > 0.0
    if not has_ties and min(n1, n2) < APPROX_MIN_PER_SIDE:
        return _exact_two_sided_p(u1, n1, n2)

    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    var_u = (n1 * n2 / 12.0) * ((n + 1.0) - tie_sum / (n * (n - 1.0)))
    if var_u <= 0.0:
        return 1.0
    # Continuity correction shrinks the larger tail's statistic by 1/2.
    z = (abs(u1 - mean_u) - 0.5) / math.sqrt(var_u)
    if z < 0.0:
        z = 0.0
    return min(1.0, 2.0 * _normal_sf(z))


def _outcome(a, b, p: float, p_threshold: float) -> int:
    """+1 if the first sample is significantly better (lower median), -1 if
    worse, 0 when ``p`` is insignificant or the medians coincide."""
    if p >= p_threshold:
        return 0
    med_a = float(np.median(np.asarray(a, dtype=float)))
    med_b = float(np.median(np.asarray(b, dtype=float)))
    if med_a < med_b:
        return 1
    if med_b < med_a:
        return -1
    return 0


def tournament(results: ResultSet, p_threshold: float = 0.05) -> TournamentMatrix:
    """Dominance totals for every ordered algorithm pair.

    Requires a complete ResultSet: failed (NaN) runs must be resolved before
    statistics, not silently compared.
    """
    if not (0.0 < p_threshold < 1.0):
        raise ValueError("p_threshold must lie in (0, 1)")
    if np.any(np.isnan(results.values)):
        raise ValueError("ResultSet contains failed (NaN) runs; "
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


def beat_digraph(tm: TournamentMatrix) -> BeatDigraph:
    """Sign digraph: an edge i -> j whenever i dominates j overall."""
    n = len(tm.algorithms)
    edges = []
    beat_count = {name: 0 for name in tm.algorithms}
    for i in range(n):
        for j in range(n):
            if i != j and tm.t[i, j] > 0:
                edges.append((tm.algorithms[i], tm.algorithms[j]))
                beat_count[tm.algorithms[i]] += 1
    nodes = tuple(sorted(tm.algorithms, key=lambda a: (-beat_count[a], a)))
    return BeatDigraph(nodes=nodes, edges=tuple(edges), beat_count=beat_count)


# --- exports -----------------------------------------------------------------

def tournament_to_csv(tm: TournamentMatrix) -> str:
    lines = ["algorithm," + ",".join(tm.algorithms)]
    for i, name in enumerate(tm.algorithms):
        lines.append(name + "," + ",".join(str(int(v)) for v in tm.t[i]))
    return "\n".join(lines) + "\n"


def digraph_edges_csv(graph: BeatDigraph) -> str:
    lines = ["from,to"]
    lines.extend(f"{a},{b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"


def digraph_to_dot(graph: BeatDigraph) -> str:
    """GraphViz text of the beat digraph, beat counts in the node labels."""
    lines = [
        "digraph tournament {",
        "  // beat count = out-degree: how many rivals the node beats overall",
        "  rankdir=LR;",
    ]
    for name in graph.nodes:
        lines.append(f'  "{name}" [label="{name}\\nbeats {graph.beat_count[name]}"];')
    for a, b in graph.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ranking_table(graph: BeatDigraph) -> str:
    lines = ["rank  algorithm        beats"]
    for pos, name in enumerate(graph.nodes, start=1):
        lines.append(f"{pos:>4}  {name:<15}  {graph.beat_count[name]:>5}")
    return "\n".join(lines) + "\n"
