"""The acknowledged-operation history the durability oracle audits.

Every client records its *mutations* (puts and deletes — the operations
whose durability the service promises on acknowledgment) as it serves:
``begin()`` before the substrate call, ``ack()`` when the call returns.
A power failure leaves the current mutation of whichever client it
interrupted permanently un-acked ("in flight"): the client never got an
acknowledgment, so after recovery the write may legally read as either
the old or the new value — but never as anything else.

Timestamps are virtual nanoseconds from the simulated client threads,
so the history is deterministic for a given seed and identical across
hosts and job counts.  The value bytes themselves are never stored:
every write's payload is a pure function of ``(spec, key_index,
version)`` (see :func:`repro.workloads.generators.make_value`), so the
oracle can reconstruct the expected bytes of any recorded version.
"""

from dataclasses import dataclass, field

#: Mutation kinds the history records.
PUT = "put"
DELETE = "delete"


@dataclass
class Mutation:
    """One durable operation as the client experienced it."""

    client: int
    op: str                  # "put" | "delete"
    key_index: int
    version: int             # payload version (puts; 0 for deletes)
    start_ns: float          # virtual time the client issued it
    end_ns: float = None     # virtual acknowledgment time (None = never)
    #: Set by the oracle when a recovery report covered this write's
    #: loss (e.g. a torn-tail rollback counted in ``truncated``).  An
    #: excused write stops being a promise: later audits treat it like
    #: an in-flight write (old or new both legal) instead of
    #: re-flagging the same reported loss at every subsequent crash.
    excused: bool = False

    @property
    def acked(self):
        return self.end_ns is not None


@dataclass
class History:
    """Every client's mutation record for one chaos serve run."""

    events: list = field(default_factory=list)
    _open: dict = field(default_factory=dict)   # client -> Mutation

    def preload(self, records):
        """Record the initial keyspace load: keys ``0..records-1`` at
        version 0, acknowledged before serving starts."""
        for index in range(records):
            self.events.append(Mutation(
                client=-1, op=PUT, key_index=index, version=0,
                start_ns=0.0, end_ns=0.0))

    def begin(self, client, op, key_index, version, start_ns):
        """Open a mutation; returns it (pass to :meth:`ack`).

        A client performs one mutation at a time, so an already-open
        mutation for the same client (a retry of an interrupted call)
        stays in the history as a separate, never-acked attempt.
        """
        mut = Mutation(client=client, op=op, key_index=key_index,
                       version=version, start_ns=start_ns)
        self.events.append(mut)
        self._open[client] = mut
        return mut

    def ack(self, mut, end_ns):
        """Acknowledge a mutation at virtual time ``end_ns``."""
        mut.end_ns = end_ns
        if self._open.get(mut.client) is mut:
            del self._open[mut.client]

    def crash(self):
        """A power failure: every open mutation stays un-acked forever.

        Returns the interrupted mutations (one per client at most).
        """
        interrupted = sorted(self._open.values(),
                             key=lambda m: m.client)
        self._open.clear()
        return interrupted

    def by_key(self):
        """Mutations grouped per key index (insertion order kept)."""
        groups = {}
        for mut in self.events:
            groups.setdefault(mut.key_index, []).append(mut)
        return groups

    def window(self, key_index, last=6):
        """The most recent mutations of one key — the "offending
        history window" a violation report prints."""
        muts = [m for m in self.events if m.key_index == key_index]
        return muts[-last:]
