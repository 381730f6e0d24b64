"""Machine specs: memory presets plus the α-β-γ timing parameters.

The paper measures on Piz Daint and *predicts* full-scale Summit and
TaihuLight runs from the Table 2 models; these presets carry the numbers
those predictions need (rank counts and per-rank memory in elements).

Since the timing layer (``repro.smpi.timing``) landed, a
:class:`Machine` also fixes the α-β machine model every simulated run
and every ``predict()`` call share:

* ``alpha``   — per-message latency in seconds (link setup + injection);
* ``beta``    — inverse bandwidth in seconds per byte;
* ``gamma_flops`` — sustained compute rate in flop/s (``inf`` models a
  compute-free machine, the pure-communication limit);
* ``topology`` — link-graph shape for the contention model
  (``"crossbar"``: one tx and one rx NIC link per rank;
  ``"shared-bus"``: every transfer serializes on one fabric link).

One spec is threaded from ``factor(machine=...)`` / the CLI's
``--machine`` through :func:`repro.smpi.runtime.run_spmd` into the
discrete-event clock, and the same spec prices the analytic models in
:func:`repro.models.api.predict` — simulation and prediction can never
disagree about the hardware.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from repro.documents import load

TOPOLOGIES = ("crossbar", "shared-bus")


@dataclass(frozen=True)
class Machine:
    """A machine spec: capacity (ranks, memory) plus α-β-γ timing.

    ``memory_per_rank_elements`` is the fast-memory size M (total
    usable DRAM per rank / 8 bytes); real runs dedicate only part of
    DRAM to the factorization, so analyses usually pass the replication
    depth c instead and use the preset only to cap it (the grid
    optimizer's ``m_max``, ``predict``'s default c).

    The timing fields default to a generic interconnect (1 µs latency,
    10 GB/s links, 1 Tflop/s nodes) so pre-existing memory-only presets
    keep constructing unchanged.
    """

    name: str
    total_ranks: int
    memory_per_rank_bytes: int
    alpha: float = 1.0e-6
    beta: float = 1.0e-10
    gamma_flops: float = 1.0e12
    topology: str = "crossbar"

    def __post_init__(self) -> None:
        if self.total_ranks < 1 or self.memory_per_rank_bytes < 1:
            raise ValueError(
                f"total_ranks and memory_per_rank_bytes must be >= 1, "
                f"got {self.total_ranks}/{self.memory_per_rank_bytes}"
            )
        # NaN fails every comparison below; +inf is a valid gamma_flops
        # (the ``ideal`` preset's free arithmetic) and nothing else.
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError(
                f"alpha/beta must be finite and >= 0, "
                f"got {self.alpha}/{self.beta}"
            )
        if not self.gamma_flops > 0:
            raise ValueError(
                f"gamma_flops must be > 0, got {self.gamma_flops}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology {self.topology!r} not in {TOPOLOGIES}"
            )

    @property
    def memory_per_rank_elements(self) -> int:
        return self.memory_per_rank_bytes // 8


#: Piz Daint XC50 partition: 5,704 nodes, 64 GiB DDR3 each (Section 8),
#: Aries NICs at ~10.2 GB/s injection, ~1.5 µs put latency, P100-era
#: sustained DGEMM rate.
PIZ_DAINT = Machine(
    name="Piz Daint",
    total_ranks=5704,
    memory_per_rank_bytes=64 * 2**30,
    alpha=1.5e-6,
    beta=1.0 / 10.2e9,
    gamma_flops=1.2e12,
)

#: The same hardware as its own named preset, so ``--machine
#: daint-xc50`` reads like the paper's platform section.
DAINT_XC50 = replace(PIZ_DAINT, name="daint-xc50")

#: Summit: 4,608 nodes with 512 GiB each.  One rank per node reproduces
#: the paper's "2.1x less on a full-scale Summit run" prediction
#: (evaluating the Table 2 models at P = 4608, max replication).
SUMMIT = Machine(
    name="Summit",
    total_ranks=4608,
    memory_per_rank_bytes=512 * 2**30,
    alpha=1.0e-6,
    beta=1.0 / 23.0e9,
    gamma_flops=2.0e13,
)

#: The simulator scale this reproduction measures at.
LAPTOP_SIM = Machine(
    name="laptop-sim",
    total_ranks=64,
    memory_per_rank_bytes=256 * 2**20,
    alpha=5.0e-7,
    beta=1.0 / 12.0e9,
    gamma_flops=5.0e10,
)

#: Zero latency, infinite bandwidth, infinite compute: predicted time is
#: identically zero and the byte ledger is all that remains — the limit
#: the timing property tests pin the volume model against.
IDEAL = Machine(
    name="ideal",
    total_ranks=2**20,
    memory_per_rank_bytes=2**40,
    alpha=0.0,
    beta=0.0,
    gamma_flops=math.inf,
)

#: A deliberately contended fabric: every transfer serializes on one
#: shared link (classic bus Ethernet).  Exists to exercise the
#: contention queues, not to model a real installation.
ETHERNET_BUS = Machine(
    name="ethernet-bus",
    total_ranks=64,
    memory_per_rank_bytes=256 * 2**20,
    alpha=5.0e-5,
    beta=1.0 / 1.25e9,
    gamma_flops=5.0e10,
    topology="shared-bus",
)


#: Preset registry: ``--machine NAME`` / ``predict(machine=NAME)``.
MACHINES: dict[str, Machine] = {
    "piz-daint": PIZ_DAINT,
    "daint-xc50": DAINT_XC50,
    "summit": SUMMIT,
    "laptop-sim": LAPTOP_SIM,
    "ideal": IDEAL,
    "ethernet-bus": ETHERNET_BUS,
}


def list_machines() -> tuple[Machine, ...]:
    """Registered presets in registry order."""
    return tuple(MACHINES.values())


def machine_by_name(name: str) -> Machine:
    """Resolve a preset by registry key or by the Machine's own name."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    if key in MACHINES:
        return MACHINES[key]
    for preset in MACHINES.values():
        if preset.name.lower().replace(" ", "-") == key:
            return preset
    raise KeyError(
        f"unknown machine {name!r}; presets: {', '.join(sorted(MACHINES))}"
    )


def load_machine(path: str | os.PathLike) -> Machine:
    """Read a machine spec from a JSON file with
    :func:`repro.documents.load`: :class:`Machine`'s fields without a
    default are required, and an unknown key or a value of the wrong
    JSON type fails loudly instead of silently defaulting.  Every error
    names the file."""
    return load(Machine, path, "machine")


def resolve_machine(
    spec: "str | os.PathLike | Machine | None",
) -> Machine | None:
    """One resolution rule for every ``machine=`` surface.

    ``None`` passes through (no timing requested); a :class:`Machine`
    is returned as-is; a string is a preset name unless it names an
    existing file or ends in ``.json``, in which case it is loaded as a
    JSON spec.
    """
    if spec is None or isinstance(spec, Machine):
        return spec
    text = os.fspath(spec)
    if text.endswith(".json") or os.path.exists(text):
        return load_machine(text)
    return machine_by_name(text)
