"""The maximal direct-sum partition of the cell probability vectors.

The unique maximal partition whose blocks span linearly independent
subspaces is the partition into connected components of the linear matroid
on the coefficient columns. Components are joined from the fundamental
circuits with respect to the leftmost-pivot column basis, read off the
model's one elimination; connectivity does not depend on that basis choice.

Greedy pairwise merging by rank additivity would be wrong here: pairwise
direct sums do not imply a joint direct sum (three coplanar lines), which is
why only the circuit-graph construction is used.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import UmvueError
from .linalg import Matrix, RrefResult, rref
from .model import CategoricalModel, Partition


class ZeroColumn(UmvueError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"column {k} is zero")


class GroundSetMismatch(UmvueError):
    pass


def _fundamental_circuits(reduced: RrefResult) -> list[list[int]]:
    """One circuit per non-pivot column j: the columns of its relation, the
    pivot columns in its expansion over the leftmost-pivot basis and j."""
    circuits = []
    for relation in reduced.relations:
        if len(relation) == 1:
            raise ZeroColumn(relation[0][0])
        circuits.append([c for c, _ in relation])
    return circuits


def fundamental_circuit_graph(c: Matrix) -> list[set[int]]:
    """Adjacency sets over columns; columns in a common circuit are connected.

    A column basis is chosen by leftmost pivots. Every non-basis column is
    joined to the basis columns appearing in its expansion, and those basis
    columns are joined pairwise (one clique per fundamental circuit).
    """
    adjacency: list[set[int]] = [set() for _ in range(c.ncols)]
    for circuit in _fundamental_circuits(rref(c)):
        for a in circuit:
            adjacency[a].update(b for b in circuit if b != a)
    return adjacency


def mve_partition(m: CategoricalModel) -> Partition:
    """The unique maximal partition with blockwise linearly independent spans.

    A statistic is a UMVUE exactly when it is constant on these blocks, so
    this partition generates the whole subalgebra of UMVUEs. Its blocks are
    the matroid's connected components: the common coarsening of the
    fundamental-circuit supports. Like `m.structure`, it is kept on this
    instance only.
    """
    if "mve_partition" not in m.__dict__:
        m.__dict__["mve_partition"] = _join(m.n, _fundamental_circuits(m.structure.reduced))
    return m.__dict__["mve_partition"]


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p is contained in some block of q."""
    if p.n != q.n:
        raise GroundSetMismatch(f"ground sets differ: {p.n} vs {q.n}")
    owner = {k: j for j, block in enumerate(q.blocks) for k in block}
    return all(len({owner[k] for k in block}) == 1 for block in p.blocks)


def common_coarsening(ps: Sequence[Partition]) -> Partition:
    """Finest partition coarser than every input."""
    if not ps:
        raise ValueError("need at least one partition")
    n = ps[0].n
    for p in ps:
        if p.n != n:
            raise GroundSetMismatch(f"ground sets differ: {p.n} vs {n}")
    return _join(n, [block for p in ps for block in p.blocks])


def _join(n: int, groups: Iterable[Sequence[int]]) -> Partition:
    """Finest partition of 0..n-1 with each group inside one block (union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        root = find(group[0])
        for k in group[1:]:
            parent[find(k)] = root
    blocks: dict[int, list[int]] = {}
    for k in range(n):
        blocks.setdefault(find(k), []).append(k)
    return Partition(blocks.values())
