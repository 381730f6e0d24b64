"""Collective operations layered on point-to-point messages.

Each collective is implemented with a concrete, well-known algorithm
(binomial trees, rings, direct exchanges), so the byte counts recorded by
the ledger are the bytes that algorithm actually moves — mirroring how the
paper instruments real MPI libraries with Score-P rather than assuming
idealized costs.

Volume cheat-sheet for a P-rank communicator and s-byte payloads
(asserted by the test suite):

==================  =============================================
bcast               (P - 1) * s            (tree edges each carry s)
reduce              (P - 1) * s
allreduce           2 * (P - 1) * s        (reduce + bcast)
gather / scatter    sum of non-root chunk sizes (direct)
allgather           P * (P - 1) * s        (ring; every rank needs all)
alltoall            all off-diagonal chunk sizes (direct)
reduce_scatter      all off-diagonal chunk sizes (direct)
==================  =============================================
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

# Tag space reserved for collectives so user point-to-point traffic
# (tags >= 0) can never match an in-flight collective fragment.
_TAG_BCAST = -101
_TAG_REDUCE = -102
_TAG_GATHER = -103
_TAG_SCATTER = -104
_TAG_ALLGATHER = -105
_TAG_ALLTOALL = -106
_TAG_REDSCAT = -107


def _default_op(a: Any, b: Any) -> Any:
    """``+``: elementwise for arrays, plain for scalars."""
    return a + b


def maxloc(a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
    """MPI_MAXLOC-style op on ``(value, index)`` pairs.

    Ties break toward the smaller index, which keeps partial-pivot
    selection deterministic across runs and rank counts.
    """
    if (abs(b[0]) > abs(a[0])) or (abs(b[0]) == abs(a[0]) and b[1] < a[1]):
        return b
    return a


def bcast(comm, data: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast: total volume (P-1) * payload_size."""
    size = comm.size
    if size == 1:
        return data
    vrank = (comm.rank - root) % size
    # Receive from parent (highest set bit of vrank).
    if vrank != 0:
        mask = 1
        while mask <= vrank:
            mask <<= 1
        mask >>= 1
        parent = ((vrank - mask) + root) % size
        data = comm.recv(parent, _TAG_BCAST)
    # Forward to children: at round k, every rank with vrank < 2**k
    # already holds the data and sends to vrank + 2**k.
    mask = 1
    while mask < size:
        if vrank < mask:
            child_v = vrank + mask
            if child_v < size:
                comm.send(data, (child_v + root) % size, _TAG_BCAST)
        mask <<= 1
    return data


def reduce(
    comm,
    data: Any,
    root: int = 0,
    op: Callable[[Any, Any], Any] | None = None,
) -> Any:
    """Binomial-tree reduction to ``root``: total volume (P-1) * size.

    Combination order is deterministic for a given (P, root): each node
    folds children in increasing bit order, ``acc = op(acc, child)``.
    Non-root ranks return ``None``.
    """
    if op is None:
        op = _default_op
    size = comm.size
    if size == 1:
        return data
    vrank = (comm.rank - root) % size
    acc = data
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            comm.send(acc, parent, _TAG_REDUCE)
            return None
        child_v = vrank | mask
        if child_v < size:
            incoming = comm.recv(((child_v + root) % size), _TAG_REDUCE)
            acc = op(acc, incoming)
        mask <<= 1
    return acc


def allreduce(
    comm, data: Any, op: Callable[[Any, Any], Any] | None = None
) -> Any:
    """Reduce-then-broadcast: total volume 2 * (P-1) * payload size."""
    result = reduce(comm, data, 0, op)
    return bcast(comm, result, 0)


def gather(comm, data: Any, root: int = 0) -> list[Any] | None:
    """Direct gather: each non-root rank sends once to the root.

    The root receives from each source by name, in rank order: a
    non-root rank never blocks here, so its next gather's contribution
    may already wait behind this one, and only the per-channel FIFO
    keeps the two rounds apart.
    """
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = data
        for src in range(comm.size):
            if src != root:
                out[src] = comm.recv(src, _TAG_GATHER)
        return out
    comm.send(data, root, _TAG_GATHER)
    return None


def allgather(comm, data: Any) -> list[Any]:
    """Ring allgather: P-1 rounds, each rank forwards one block.

    Total volume P * (P-1) * block size — the information-theoretic
    minimum for allgather, since every rank must receive P-1 blocks.
    """
    size = comm.size
    out: list[Any] = [None] * size
    out[comm.rank] = data
    if size == 1:
        return out
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    block = data
    block_src = comm.rank
    for _ in range(size - 1):
        comm.send((block_src, block), right, _TAG_ALLGATHER)
        block_src, block = comm.recv(left, _TAG_ALLGATHER)
        out[block_src] = block
    return out


def scatter(comm, chunks: Sequence[Any] | None, root: int = 0) -> Any:
    """Direct scatter: root sends chunk i to rank i."""
    if comm.rank == root:
        if chunks is None or len(chunks) != comm.size:
            raise ValueError(
                "scatter root must supply exactly one chunk per rank"
            )
        for dest in range(comm.size):
            if dest != root:
                comm.send(chunks[dest], dest, _TAG_SCATTER)
        return chunks[root]
    return comm.recv(root, _TAG_SCATTER)


def alltoall(comm, chunks: Sequence[Any]) -> list[Any]:
    """Direct pairwise all-to-all; each rank receives from every
    source by name, in rank order."""
    size = comm.size
    if len(chunks) != size:
        raise ValueError("alltoall requires one chunk per destination rank")
    out: list[Any] = [None] * size
    out[comm.rank] = chunks[comm.rank]
    for dest in range(size):
        if dest != comm.rank:
            comm.send(chunks[dest], dest, _TAG_ALLTOALL)
    for src in range(size):
        if src != comm.rank:
            out[src] = comm.recv(src, _TAG_ALLTOALL)
    return out


def reduce_scatter(
    comm,
    chunks: Sequence[Any],
    op: Callable[[Any, Any], Any] | None = None,
) -> Any:
    """Direct reduce-scatter: rank j receives and folds chunk j from all.

    Each source is received by name and folded in increasing source
    rank, so the result is deterministic.  Returns this rank's reduced
    chunk.
    """
    if op is None:
        op = _default_op
    size = comm.size
    if len(chunks) != size:
        raise ValueError(
            "reduce_scatter requires one contribution per destination rank"
        )
    for dest in range(size):
        if dest != comm.rank:
            comm.send(chunks[dest], dest, _TAG_REDSCAT)
    acc = None
    for src in range(size):
        part = (
            chunks[src] if src == comm.rank
            else comm.recv(src, _TAG_REDSCAT)
        )
        acc = part if acc is None else op(acc, part)
    return acc
