"""Simulated MPI substrate (``smpi``).

A deterministic SPMD runtime that stands in for the MPI
one-sided/collective machinery the paper's C++ implementation uses on
Piz Daint.  Every rank runs the same Python function against a
:class:`~repro.smpi.runtime.Comm` handle, one rank at a time, each
until it blocks; all point-to-point
traffic is recorded in a per-rank :class:`~repro.smpi.volume.VolumeLedger`,
mirroring the Score-P byte counters used in the paper's evaluation.

Collectives are layered *on top of* point-to-point messages (binomial
trees, recursive doubling, ring pipelines, butterflies), so the volume a
collective reports is the volume its implementation actually moves — the
same property the paper relies on when instrumenting real libraries.
"""

from repro.smpi.volume import VolumeLedger, VolumeReport
from repro.smpi.runtime import (
    Comm,
    DeadlockError,
    RankFailure,
    SmpiError,
    run_spmd,
)
from repro.smpi.grid import ProcessGrid3D
from repro.smpi.network import Link, LinkGraph
from repro.smpi.timing import EventTrace, TimingReport, simulate

__all__ = [
    "Comm",
    "DeadlockError",
    "EventTrace",
    "Link",
    "LinkGraph",
    "ProcessGrid3D",
    "RankFailure",
    "SmpiError",
    "TimingReport",
    "VolumeLedger",
    "VolumeReport",
    "run_spmd",
    "simulate",
]
