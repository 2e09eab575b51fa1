"""Physical network topologies.

The paper's headline results assume a fully connected network; §4.1
notes the authors "also performed simulations for other structures. But
this had no effects on the results" because message latency is
normalized to the same mean for all node pairs.  We implement several
classic topologies so that claim can be re-checked (see
``repro-experiment topology --check``): each topology exposes the
hop count between nodes, and the latency model decides whether hops
translate into extra delay (non-normalized mode) or not (paper mode).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, Iterable, List, Tuple


class Topology(ABC):
    """Abstract undirected network topology over ``size`` nodes."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"topology needs at least one node, got {size}")
        self.size = size

    @abstractmethod
    def neighbors(self, node: int) -> List[int]:
        """Direct neighbors of ``node``."""

    def hops(self, src: int, dst: int) -> int:
        """Number of hops on a shortest path from ``src`` to ``dst``.

        The generic implementation runs a BFS; concrete topologies with
        closed forms override it.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        seen = {src}
        frontier = deque([(src, 0)])
        while frontier:
            node, dist = frontier.popleft()
            for nxt in self.neighbors(node):
                if nxt == dst:
                    return dist + 1
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, dist + 1))
        raise ValueError(f"no path from {src} to {dst} in {self!r}")

    def diameter(self) -> int:
        """Longest shortest path in the topology."""
        return max(
            self.hops(a, b) for a in range(self.size) for b in range(self.size)
        )

    def mean_hops(self) -> float:
        """Average hops over all ordered pairs of distinct nodes."""
        if self.size == 1:
            return 0.0
        total = sum(
            self.hops(a, b)
            for a in range(self.size)
            for b in range(self.size)
            if a != b
        )
        return total / (self.size * (self.size - 1))

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected edge list (each edge once, small id first)."""
        seen = set()
        for a in range(self.size):
            for b in self.neighbors(a):
                edge = (min(a, b), max(a, b))
                seen.add(edge)
        return sorted(seen)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.size:
            raise ValueError(f"node {node} out of range [0, {self.size})")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} size={self.size}>"


class FullyConnected(Topology):
    """Every node is one hop from every other node (the paper's default)."""

    def neighbors(self, node: int) -> List[int]:
        self._check(node)
        return [n for n in range(self.size) if n != node]

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return 0 if src == dst else 1


class Ring(Topology):
    """Nodes on a cycle; hop count is the circular distance."""

    def neighbors(self, node: int) -> List[int]:
        self._check(node)
        if self.size == 1:
            return []
        if self.size == 2:
            return [1 - node]
        return [(node - 1) % self.size, (node + 1) % self.size]

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        d = abs(src - dst)
        return min(d, self.size - d)


class Line(Topology):
    """Nodes on a path; hop count is |src - dst|."""

    def neighbors(self, node: int) -> List[int]:
        self._check(node)
        out = []
        if node > 0:
            out.append(node - 1)
        if node < self.size - 1:
            out.append(node + 1)
        return out

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return abs(src - dst)


class Star(Topology):
    """Node 0 is the hub; every other node connects only to it."""

    def neighbors(self, node: int) -> List[int]:
        self._check(node)
        if node == 0:
            return list(range(1, self.size))
        return [0]

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        if src == 0 or dst == 0:
            return 1
        return 2


class Grid(Topology):
    """Approximately square 2-D mesh with Manhattan-distance hops."""

    def __init__(self, size: int):
        super().__init__(size)
        # Choose the most-square factorization rows x cols >= size; extra
        # cells beyond `size` simply do not exist (ragged last row).
        cols = 1
        for c in range(1, size + 1):
            if c * c >= size:
                cols = c
                break
        self.cols = cols
        self.rows = (size + cols - 1) // cols

    def _coords(self, node: int) -> Tuple[int, int]:
        return divmod(node, self.cols)

    def neighbors(self, node: int) -> List[int]:
        self._check(node)
        r, c = self._coords(node)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                idx = nr * self.cols + nc
                if idx < self.size:
                    out.append(idx)
        return out

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        # Manhattan distance is exact for a full grid; the ragged last
        # row can force detours, so fall back to BFS in that case.
        if self.rows * self.cols == self.size:
            (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
            return abs(r1 - r2) + abs(c1 - c2)
        return super().hops(src, dst)


#: Registry of topology constructors by name (used by experiment configs).
TOPOLOGIES = {
    "full": FullyConnected,
    "ring": Ring,
    "line": Line,
    "star": Star,
    "grid": Grid,
}


def make_topology(name: str, size: int) -> Topology:
    """Instantiate a topology by registry name."""
    try:
        cls = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    return cls(size)
