"""Disjoint Array Access Program (DAAP) model — paper Section 2.2.

A DAAP is a sequence of statements, each nested in a loop nest::

    for r1 in R1, for r2 in R2(r1), ... :
        S:  A0[phi0(r)] = f(A1[phi1(r)], ..., Am[phim(r)])

The model captured here is the part the lower-bound machinery consumes:

* which iteration variables exist (``loop_vars``),
* for every access, which iteration variables its access-function vector
  ``phi_j`` uses (the *access dimension* dim(A_j(phi_j)) is the number of
  **distinct** variables — e.g. A[k, k] has access dimension 1),
* how many cDAG vertices the statement computes in total (``|V_S|`` as a
  function of the problem size N),
* structural extras needed by specific lemmas: the number of
  out-degree-one graph-input operands (Lemma 6) and producer/consumer
  wiring between statements (Section 4).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Access:
    """One array access ``array[phi]`` inside a statement.

    ``index`` lists the iteration-variable name used in each array
    dimension; repeats are allowed and collapse in the access dimension
    (paper Section 2.2 item 7: A[k, k] has dim(A) = 2 but dim(phi) = 1).
    """

    array: str
    index: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.index:
            raise ValueError(f"access to {self.array!r} has empty index")

    @property
    def variables(self) -> tuple[str, ...]:
        """Distinct iteration variables, in first-appearance order."""
        seen: list[str] = []
        for v in self.index:
            if v not in seen:
                seen.append(v)
        return tuple(seen)

    @property
    def access_dim(self) -> int:
        """dim(A_j(phi_j)): number of distinct iteration variables."""
        return len(self.variables)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.array}[{', '.join(self.index)}]"


@dataclass(frozen=True)
class Statement:
    """A single DAAP statement.

    Attributes
    ----------
    name:
        Identifier used in reports (e.g. ``"S1"``).
    loop_vars:
        Iteration variables of the enclosing loop nest, outermost first.
    output:
        The ``A0[phi0]`` access.
    inputs:
        The ``A_j[phi_j]`` input accesses, j = 1..m.
    vertex_count:
        ``|V_S|`` as a function of problem size N — the number of cDAG
        vertices this statement computes.
    out_degree_one_inputs:
        ``u`` of Lemma 6: how many operands of each evaluation are
        out-degree-one *graph inputs*.  Caps the computational intensity
        at 1/u.
    recomputation_free:
        True when the statement has no input arrays at all (like the
        twiddle-factor statement of Section 4.2), making its intensity
        unbounded (rho -> infinity).
    """

    name: str
    loop_vars: tuple[str, ...]
    output: Access
    inputs: tuple[Access, ...]
    vertex_count: Callable[[int], float]
    out_degree_one_inputs: int = 0
    recomputation_free: bool = False

    def __post_init__(self) -> None:
        used = set()
        for acc in (*self.inputs, self.output):
            used.update(acc.variables)
        missing = used - set(self.loop_vars)
        if missing:
            raise ValueError(
                f"statement {self.name}: accesses use variables {missing} "
                f"not in loop_vars {self.loop_vars}"
            )

    @property
    def access_variable_sets(self) -> tuple[tuple[str, ...], ...]:
        """Variable sets of the *input* accesses (the dominator side)."""
        return tuple(acc.variables for acc in self.inputs)


@dataclass(frozen=True)
class Program:
    """A sequence of statements plus declared inter-statement reuse.

    ``shared_inputs`` lists arrays read by two or more statements (input
    overlap, Section 4.1 Case I).  ``producer_consumer`` lists
    ``(producer, consumer, array)`` triples where the producer's output
    array is an input of the consumer (output overlap, Case II).
    """

    name: str
    statements: tuple[Statement, ...]
    shared_inputs: tuple[tuple[str, tuple[str, ...]], ...] = field(
        default_factory=tuple
    )
    producer_consumer: tuple[tuple[str, str, str], ...] = field(
        default_factory=tuple
    )

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(f"program {self.name} has no statement {name!r}")


# ---------------------------------------------------------------------------
# Canned programs from the paper
# ---------------------------------------------------------------------------

def lu_program() -> Program:
    """In-place LU factorization, Figure 1.

    ``S1: A[i,k] = A[i,k] / A[k,k]`` (column update) and
    ``S2: A[i,j] = A[i,j] - A[i,k] * A[k,j]`` (trailing-matrix update).

    The paper's Section 6 derivation uses |V_S1| = N(N-1)/2 and
    |V_S2| = N^3/3 - N^2 + 2N/3 = N(N-1)(N-2)/3.  The literal loop nest
    of Figure 1 (i, j = k+1..N) yields Sum_{k<N} (N-k)^2 =
    N(N-1)(2N-1)/6 for S2; the leading term of the bound is the same
    under either count, and this program uses the paper's.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("k", "i"),
        output=Access("A", ("i", "k")),
        inputs=(Access("A", ("i", "k")), Access("A", ("k", "k"))),
        vertex_count=lambda n: n * (n - 1) / 2.0,
        # The previous version of A[i,k] feeds exactly one division
        # (disjoint access property), so u = 1 and rho_S1 <= 1.
        out_degree_one_inputs=1,
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i", "j"),
        output=Access("A", ("i", "j")),
        inputs=(
            Access("A", ("i", "j")),
            Access("A", ("i", "k")),
            Access("A", ("k", "j")),
        ),
        vertex_count=lambda n: n * (n - 1) * (n - 2) / 3.0,
    )
    return Program(
        name="lu",
        statements=(s1, s2),
        producer_consumer=(("S1", "S2", "A"),),
    )


def mmm_program() -> Program:
    """Classic matrix-matrix multiplication C[i,j] += A[i,k] * B[k,j]."""
    s = Statement(
        name="MMM",
        loop_vars=("i", "j", "k"),
        output=Access("C", ("i", "j")),
        inputs=(
            Access("C", ("i", "j")),
            Access("A", ("i", "k")),
            Access("B", ("k", "j")),
        ),
        vertex_count=lambda n: float(n) ** 3,
    )
    return Program(name="mmm", statements=(s,))


def matmul_like_pair_program() -> Program:
    """Section 4.1 example: two products sharing input B.

    ``S: D[i,j,k] = A[i,k] * B[k,j]`` and ``T: E[i,j,k] = C[i,k] * B[k,j]``.
    Each executed alone costs N^3/M; sharing B caps the combined bound at
    Q_tot >= Q_S + Q_T - Reuse(B) = N^3/M.
    """
    def count(n: int) -> float:
        return float(n) ** 3

    s = Statement(
        name="S",
        loop_vars=("i", "j", "k"),
        output=Access("D", ("i", "j", "k")),
        inputs=(Access("A", ("i", "k")), Access("B", ("k", "j"))),
        vertex_count=count,
        out_degree_one_inputs=0,
    )
    t = Statement(
        name="T",
        loop_vars=("i", "j", "k"),
        output=Access("E", ("i", "j", "k")),
        inputs=(Access("C", ("i", "k")), Access("B", ("k", "j"))),
        vertex_count=count,
        out_degree_one_inputs=0,
    )
    return Program(
        name="matmul_like_pair",
        statements=(s, t),
        shared_inputs=(("B", ("S", "T")),),
    )


def modified_mmm_program() -> Program:
    """Section 4.2 example: recomputable input (output overlap).

    ``S: A[i,j] = exp(2 pi sqrt(-1) (i-1)(j-1) / N)`` has no inputs, so
    rho_S -> infinity and A can be recomputed for free; the combined
    bound collapses from 2N^3/sqrt(M) to N^3/M.
    """
    s = Statement(
        name="S",
        loop_vars=("i", "j"),
        output=Access("A", ("i", "j")),
        inputs=(),
        vertex_count=lambda n: float(n) ** 2,
        recomputation_free=True,
    )
    t = Statement(
        name="T",
        loop_vars=("i", "j", "k"),
        output=Access("C", ("i", "j")),
        inputs=(
            Access("C", ("i", "j")),
            Access("A", ("i", "k")),
            Access("B", ("k", "j")),
        ),
        vertex_count=lambda n: float(n) ** 3,
    )
    return Program(
        name="modified_mmm",
        statements=(s, t),
        producer_consumer=(("S", "T", "A"),),
    )


def cholesky_program() -> Program:
    """Cholesky factorization (mentioned as future work in Section 11).

    ``S1: A[k,k] = sqrt(A[k,k])``,
    ``S2: A[i,k] = A[i,k] / A[k,k]`` (i > k),
    ``S3: A[i,j] = A[i,j] - A[i,k] * A[j,k]`` (k < j <= i).
    """
    s1 = Statement(
        name="S1",
        loop_vars=("k",),
        output=Access("A", ("k", "k")),
        inputs=(Access("A", ("k", "k")),),
        vertex_count=lambda n: float(n),
        out_degree_one_inputs=1,
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i"),
        output=Access("A", ("i", "k")),
        inputs=(Access("A", ("i", "k")), Access("A", ("k", "k"))),
        vertex_count=lambda n: n * (n - 1) / 2.0,
        out_degree_one_inputs=1,
    )
    s3 = Statement(
        name="S3",
        loop_vars=("k", "i", "j"),
        output=Access("A", ("i", "j")),
        inputs=(
            Access("A", ("i", "j")),
            Access("A", ("i", "k")),
            Access("A", ("j", "k")),
        ),
        # Sum_k Sum_{j>k} Sum_{i>=j} 1 ~ N^3/6
        vertex_count=lambda n: n * (n - 1) * (n + 1) / 6.0,
    )
    return Program(
        name="cholesky",
        statements=(s1, s2, s3),
        producer_consumer=(("S1", "S2", "A"), ("S2", "S3", "A")),
    )


def tensor_contraction_program() -> Program:
    """A 4-index tensor contraction C[i,j,m] += A[i,k,m] * B[k,j] —
    the "tensor contractions" workload the paper's introduction names
    as a driver for the general method.

    The GP machinery yields rho = sqrt(M) asymptotically... in fact:
    maximize I J K M_ subject to IKM_ + KJ + IJM_ <= X.  The batch
    index m rides along with i in two of the three accesses, which is
    exactly the structure where single-statement methods remain exact:
    no reuse subtleties, one call to statement_bound suffices.
    """
    s = Statement(
        name="TC",
        loop_vars=("i", "j", "k", "m"),
        output=Access("C", ("i", "j", "m")),
        inputs=(
            Access("C", ("i", "j", "m")),
            Access("A", ("i", "k", "m")),
            Access("B", ("k", "j")),
        ),
        vertex_count=lambda n: float(n) ** 4,
    )
    return Program(name="tensor_contraction", statements=(s,))
