"""The paper's four best practices, as checkable programmatic advice.

Section 5 distils the characterization into four guidelines:

1. Avoid random accesses smaller than 256 B (the XPLine).
2. Use non-temporal stores for large transfers; control cache evictions
   (flush promptly) otherwise.
3. Limit the number of concurrent threads writing to one DIMM.
4. Avoid NUMA accesses, especially mixed or multi-threaded ones.

:func:`recommend_store_instruction` answers which persistence
instruction suits an N-byte write, and :func:`audit_access_pattern`
grades a planned workload against all four rules, returning the
violated guidelines with explanations — the programmatic equivalent of
the paper's Section 5 case-study analyses.
"""

from dataclasses import dataclass, field

from repro._units import KIB, XPLINE

#: Store size at which ntstore overtakes store+clwb (the paper puts
#: it near 512 B-1 KB; Figure 15 measures 256-512 B on the simulator,
#: see EXPERIMENTS.md).  cmap's persist switches instruction here.
NTSTORE_CROSSOVER_BYTES = 512

#: Per-DIMM working-set limit under which small stores still combine
#: (the XPBuffer capacity inferred by Figure 10).
XPBUFFER_BYTES = 16 * KIB

#: Peak-bandwidth writer threads per 3D XPoint DIMM (Figure 4 center:
#: store throughput peaks between one and four threads per DIMM).
MAX_WRITERS_PER_DIMM = 1


@dataclass
class Violation:
    """One guideline violation found by an audit."""

    guideline: int
    severity: str              # "high" | "medium" | "low"
    message: str

    GUIDELINE_NAMES = {
        1: "avoid small random accesses",
        2: "use the right persistence instruction",
        3: "limit concurrent threads per DIMM",
        4: "avoid remote NUMA accesses",
    }

    def __str__(self):
        return "[G%d %s] %s" % (self.guideline, self.severity, self.message)


@dataclass
class AccessPlan:
    """A description of a planned access pattern, for auditing."""

    access_bytes: int
    pattern: str = "seq"              # "seq" | "rand"
    is_write: bool = True
    threads: int = 1
    dimms: int = 6
    remote: bool = False
    mixed_read_write: bool = False
    working_set_bytes: int = 0
    flushes_promptly: bool = True
    notes: list = field(default_factory=list)


def recommend_store_instruction(size_bytes):
    """'ntstore' for large transfers, 'clwb' for small ones (G2)."""
    if size_bytes >= NTSTORE_CROSSOVER_BYTES:
        return "ntstore"
    return "clwb"


def audit_access_pattern(plan):
    """Grade an :class:`AccessPlan`; returns a list of :class:`Violation`."""
    violations = []
    if plan.is_write and plan.pattern == "rand" \
            and plan.access_bytes < XPLINE:
        over_buffer = (plan.working_set_bytes
                       > XPBUFFER_BYTES * max(1, plan.dimms))
        violations.append(Violation(
            guideline=1,
            severity="high" if over_buffer else "medium",
            message=(
                "%d B random writes are below the 256 B XPLine; each one "
                "becomes an internal read-modify-write (EWR ~%.2f)"
                % (plan.access_bytes, plan.access_bytes / XPLINE)),
        ))
    if plan.is_write and not plan.flushes_promptly:
        violations.append(Violation(
            guideline=2,
            severity="medium",
            message=(
                "stores without prompt flushes let the cache scramble the "
                "eviction stream; flush each line (or use ntstore) to keep "
                "writes sequential at the DIMM"),
        ))
    if plan.is_write and plan.access_bytes >= NTSTORE_CROSSOVER_BYTES \
            and "instr=clwb" in plan.notes:
        violations.append(Violation(
            guideline=2,
            severity="low",
            message=(
                "transfers of %d B are faster with ntstore: the cached "
                "path pays an extra read of each line"
                % plan.access_bytes),
        ))
    if plan.is_write and plan.threads > plan.dimms * MAX_WRITERS_PER_DIMM:
        violations.append(Violation(
            guideline=3,
            severity="high",
            message=(
                "%d writer threads over %d DIMM(s) contend in the XPBuffer "
                "and the iMC write queues; bandwidth peaks at ~%d writer(s) "
                "per DIMM" % (plan.threads, plan.dimms,
                              MAX_WRITERS_PER_DIMM)),
        ))
    if plan.remote and (plan.mixed_read_write or plan.threads > 1):
        violations.append(Violation(
            guideline=4,
            severity="high",
            message=(
                "multi-threaded%s remote 3D XPoint traffic collapses (up to "
                "~30x vs local); keep persistent data NUMA-local"
                % (" mixed" if plan.mixed_read_write else "")),
        ))
    elif plan.remote:
        violations.append(Violation(
            guideline=4,
            severity="low",
            message="remote access adds latency even single-threaded",
        ))
    return violations
