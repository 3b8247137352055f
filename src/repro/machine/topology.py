"""Machine topology: cores, dies, packages, caches, bandwidth domains.

The reference machine is the paper's testbed (Fig. 6): two Intel
Clovertown packages, each built from two Woodcrest dies, each die
holding two 2 GHz cores that share a 4 MB 16-way L2; packages meet the
Intel 5000p memory controller over front-side buses.

The bandwidth figures are *sustainable* (calibrated against the
paper's Tables II-IV via tools/calibrate.py, DESIGN.md sec. 6), not
peak: a single core streams ~3.9 GB/s, a die ~4.1 GB/s, one package's
FSB ~4.7 GB/s, and the memory controller ~6.3 GB/s -- together with
the x-gather reload factor these make Table II's 1 / 2 / 4 / 8-thread
CSR speedups come out near the paper's 1 / 1.15 / 1.28 / 2.1 band for
memory-bound matrices while the cacheable set scales to ~5.5x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MachineModelError


@dataclass(frozen=True)
class Core:
    """One core and its position in the sharing hierarchy."""

    core_id: int
    die_id: int
    package_id: int


@dataclass(frozen=True)
class MachineSpec:
    """A shared-memory machine, as the model sees it.

    Attributes
    ----------
    name:
        Human-readable identifier.
    clock_hz:
        Core clock (all cores identical).
    cores:
        Tuple of :class:`Core`, ids dense from 0.
    l1_bytes:
        Per-core L1D capacity.
    l2_bytes:
        Per-die shared L2 capacity.
    l2_assoc, line_bytes:
        L2 geometry (used by the trace-driven cache simulator).
    core_bw, die_bw, fsb_bw, mem_bw:
        Sustainable stream bandwidth in bytes/s of one core, one die's
        L2-to-bus interface, one package's front-side bus, and the
        memory controller.
    l2_core_bw, l2_die_bw:
        Bandwidth at which cache-resident data is served: per core, and
        per die's shared L2 port.  Cache-resident execution is not
        free -- this is what keeps the model's MS-set 8-thread speedups
        in the paper's 6x band instead of exploding superlinearly.
    x_reload:
        Average number of times each touched x cache line is fetched
        per iteration (>= 1).  Irregular gathers re-fetch lines evicted
        mid-iteration; this applies to every format equally and damps
        the compressed formats' relative bandwidth savings.
    overlap:
        Fraction of compute/transfer overlap a single thread achieves
        (0 = none, the latency-bound additive model; 1 = perfect
        overlap).  SpMV's dependent gathers give threads little memory
        parallelism, so the calibrated default is low; saturated shared
        buses overlap fully regardless (that is the domain terms' job).
    cache_effectiveness:
        Usable fraction of L2 capacity (the paper's ws >= 3/4 L2
        borderline criterion motivates the 0.75 default: conflict
        misses eat the rest).
    residency_exponent:
        Shape parameter of the cache-residency model: the resident
        fraction of a working set ``ws`` under effective capacity ``C``
        is ``min(1, C/ws) ** residency_exponent``.  Values > 1 penalize
        partial fits, approximating cyclic-LRU thrashing.
    """

    name: str
    clock_hz: float
    cores: tuple[Core, ...]
    l1_bytes: int
    l2_bytes: int
    l2_assoc: int
    line_bytes: int
    core_bw: float
    die_bw: float
    fsb_bw: float
    mem_bw: float
    l2_core_bw: float = 8.0e9
    l2_die_bw: float = 12.0e9
    cache_effectiveness: float = 0.75
    residency_exponent: float = 2.5
    overlap: float = 0.0
    x_reload: float = 1.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise MachineModelError("clock_hz must be positive")
        if not self.cores:
            raise MachineModelError("machine needs at least one core")
        ids = [c.core_id for c in self.cores]
        if sorted(ids) != list(range(len(ids))):
            raise MachineModelError("core ids must be dense from 0")
        for bw in (
            self.core_bw,
            self.die_bw,
            self.fsb_bw,
            self.mem_bw,
            self.l2_core_bw,
            self.l2_die_bw,
        ):
            if bw <= 0:
                raise MachineModelError("bandwidths must be positive")
        if not 0 < self.cache_effectiveness <= 1:
            raise MachineModelError("cache_effectiveness must be in (0, 1]")
        if not 0 <= self.overlap <= 1:
            raise MachineModelError("overlap must be in [0, 1]")
        if self.x_reload < 1.0:
            raise MachineModelError("x_reload must be >= 1")

    # -- structure queries ------------------------------------------------
    @property
    def ncores(self) -> int:
        return len(self.cores)

    def dies(self) -> dict[int, list[int]]:
        """Die id -> core ids on that die."""
        out: dict[int, list[int]] = {}
        for c in self.cores:
            out.setdefault(c.die_id, []).append(c.core_id)
        return out

    def packages(self) -> dict[int, list[int]]:
        """Package id -> core ids in that package."""
        out: dict[int, list[int]] = {}
        for c in self.cores:
            out.setdefault(c.package_id, []).append(c.core_id)
        return out

    # -- derived machines --------------------------------------------------
    def scaled(self, factor: float) -> "MachineSpec":
        """Cache capacities scaled by *factor* (bandwidths, clock kept).

        Shrinking a matrix by ``factor`` *and* the machine's caches by
        the same factor preserves every residency ratio, so a scaled
        benchmark keeps each catalog matrix in its paper set (MS / ML)
        and reproduces the same speedup shapes in a fraction of the
        time.  Predicted absolute times scale by ``factor``.
        """
        if factor <= 0:
            raise MachineModelError("scale factor must be positive")
        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            l1_bytes=max(1, int(self.l1_bytes * factor)),
            l2_bytes=max(1, int(self.l2_bytes * factor)),
        )


def clovertown_8core() -> MachineSpec:
    """The paper's testbed: 2 packages x 2 dies x 2 cores at 2 GHz.

    Core numbering follows the sharing hierarchy: cores (0, 1) share
    die 0's L2, (2, 3) die 1's, packages are {0..3} and {4..7}.
    """
    cores = tuple(
        Core(core_id=i, die_id=i // 2, package_id=i // 4) for i in range(8)
    )
    return MachineSpec(
        name="clovertown-8c",
        clock_hz=2.0e9,
        cores=cores,
        l1_bytes=32 * 1024,
        l2_bytes=4 * 1024 * 1024,
        l2_assoc=16,
        line_bytes=64,
        core_bw=3.9e9,
        die_bw=4.1e9,
        fsb_bw=4.7e9,
        mem_bw=6.3e9,
        l2_core_bw=1.1e10,
        l2_die_bw=1.5e10,
        cache_effectiveness=0.87,
        residency_exponent=2.5,
        overlap=0.9,
        x_reload=5.7,
    )


def place_threads(
    machine: MachineSpec, nthreads: int, policy: str = "close"
) -> tuple[int, ...]:
    """Map thread ids to core ids.

    ``"close"`` packs threads onto as few dies/packages as possible
    (the paper's default: 2 threads share an L2, 4 fill one package);
    ``"spread"`` distributes them one per die first (the paper's
    ``2 (2xL2)`` configuration is ``spread`` with 2 threads, which
    lands both threads on different dies of the *same* package, as in
    the paper -- same-package cores come first in the core ordering).
    """
    if nthreads < 1:
        raise MachineModelError(f"nthreads must be >= 1, got {nthreads}")
    if nthreads > machine.ncores:
        raise MachineModelError(
            f"{nthreads} threads exceed the machine's {machine.ncores} cores"
        )
    if policy == "close":
        # Cores are numbered along the sharing hierarchy already.
        return tuple(range(nthreads))
    if policy == "spread":
        dies = machine.dies()
        rotation: list[int] = []
        # Round-robin over dies, keeping die order (package-major).
        queues = [list(cores) for _, cores in sorted(dies.items())]
        while any(queues):
            for q in queues:
                if q:
                    rotation.append(q.pop(0))
        return tuple(rotation[:nthreads])
    raise MachineModelError(f"unknown placement policy {policy!r}")


def smp_machine(
    ncores: int,
    *,
    cores_per_die: int = 2,
    dies_per_package: int = 2,
    clock_hz: float = 2.0e9,
    l2_bytes: int = 4 * 1024 * 1024,
    core_bw: float = 3.9e9,
    die_bw: float = 4.1e9,
    fsb_bw: float = 4.7e9,
    mem_bw: float = 6.3e9,
) -> MachineSpec:
    """A configurable Clovertown-style machine for what-if studies.

    The paper's conclusion (Section VII) argues the compression trade
    grows more favorable "as the number of processing elements that
    share the memory subsystem increases"; this builder makes machines
    with more cores behind the *same* memory controller so the claim
    can be tested on the model (see ``bench.experiments
    .future_core_scaling``).  Cache and bandwidth parameters default to
    the calibrated Clovertown values; only the core count grows.
    """
    if ncores < 1:
        raise MachineModelError(f"ncores must be >= 1, got {ncores}")
    if cores_per_die < 1 or dies_per_package < 1:
        raise MachineModelError("topology group sizes must be >= 1")
    per_package = cores_per_die * dies_per_package
    cores = tuple(
        Core(
            core_id=i,
            die_id=i // cores_per_die,
            package_id=i // per_package,
        )
        for i in range(ncores)
    )
    return MachineSpec(
        name=f"smp-{ncores}c",
        clock_hz=clock_hz,
        cores=cores,
        l1_bytes=32 * 1024,
        l2_bytes=l2_bytes,
        l2_assoc=16,
        line_bytes=64,
        core_bw=core_bw,
        die_bw=die_bw,
        fsb_bw=fsb_bw,
        mem_bw=mem_bw,
        l2_core_bw=1.1e10,
        l2_die_bw=1.5e10,
        cache_effectiveness=0.87,
        residency_exponent=2.5,
        overlap=0.9,
        x_reload=5.7,
    )
