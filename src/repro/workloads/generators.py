"""Deterministic traffic generators (the YCSB core workloads).

Key-choice distributions follow the YCSB reference generators:

* **zipfian** — Gray et al.'s constant-time zipfian sampler over
  ``[0, n)``; rank 0 is the hottest key.  Raw ranks cluster at the low
  end of the keyspace, so key indices are *scrambled* through an FNV
  hash (YCSB's ScrambledZipfianGenerator) — the hot set is spread over
  the whole keyspace, which matters on hardware whose buffers merge
  adjacent lines (the XPBuffer) and whose wear-levelling migrates hot
  lines.
* **latest** — zipfian over recency: the most recently inserted key is
  the hottest (YCSB-D's "read latest" news-feed pattern).
* **uniform** — every live key equally likely.
* **chain** — a deterministic pointer chase: each key index is a hash
  of the previous one, so consecutive reads are dependent (no two
  in flight at once).  This is the paper's worst case: small dependent
  random reads pay full media latency every time (guideline #2).
* **append** — monotonically increasing inserts, the paper's best
  case: a pure sequential log (guideline #3 traffic shape).

Everything is seeded and pure: the same ``(spec, seed, client)``
produces the identical request stream on every host, which is what
makes serve reports byte-identical and cacheable.
"""

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

#: Operation names a :class:`Request` may carry.
OPS = ("read", "update", "insert", "scan", "rmw", "delete")

#: Insert indices reserved per client (see :class:`RequestStream`).
INSERT_SPAN = 1 << 14

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv64(value):
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's
    FNVhash64): the stable scramble used to spread zipfian ranks.

    The eight rounds are unrolled: this runs once per zipfian key and
    once per written value, so it is one of the hottest pure-Python
    spots in the serving stack.
    """
    v = value & _MASK64
    h = ((_FNV_OFFSET ^ (v & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 8) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 16) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 24) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 32) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 40) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((v >> 48) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 56)) * _FNV_PRIME) & _MASK64
    return h


# -- number generators -------------------------------------------------------

_zeta_cache = {}
_zeta_high = {}                 # theta -> (largest n summed, its zeta)


def zeta(n, theta):
    """The zipfian normalization constant ``sum(1/i**theta, i=1..n)``.

    Memoized per ``(n, theta)`` — the sum is O(n) and the serve loops
    ask for the same constant for every client.
    """
    key = (n, theta)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    # Extend incrementally from the largest cached prefix for this
    # theta: the latest distribution re-normalizes after every insert,
    # which would be O(n^2) without this.
    start, total = _zeta_high.get(theta, (0, 0.0))
    if start > n:
        start, total = 0, 0.0
    for i in range(start + 1, n + 1):
        total += 1.0 / (i ** theta)
    _zeta_cache[key] = total
    _zeta_high[theta] = (n, total)
    return total


class ZipfianGenerator:
    """Gray et al. zipfian ranks over ``[0, items)``; rank 0 hottest."""

    def __init__(self, items, theta=0.99, seed=0, rng=None):
        if items < 1:
            raise ValueError("zipfian needs a non-empty keyspace")
        self.items = items
        self.theta = theta
        self.rng = rng if rng is not None else Random(seed)
        self._zetan = zeta(items, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # For items == 2 the denominator is exactly zero (zeta(2) is
        # zetan) — but so is the numerator, and every draw resolves to
        # rank 0 or 1 before eta is consulted, so any finite value do.
        denom = 1.0 - zeta(2, theta) / self._zetan
        self._eta = (0.0 if denom == 0.0 else
                     (1.0 - (2.0 / items) ** (1.0 - theta)) / denom)

    def next(self):
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self.items * (self._eta * u - self._eta + 1.0)
                   ** self._alpha)
        return min(rank, self.items - 1)

    def next_n(self, count):
        """``count`` ranks, draw-for-draw identical to sequential
        :meth:`next` calls, with the normalization constants hoisted."""
        random = self.rng.random
        zetan = self._zetan
        eta = self._eta
        alpha = self._alpha
        items = self.items
        top = items - 1
        second = 1.0 + 0.5 ** self.theta
        out = []
        append = out.append
        for _ in range(count):
            u = random()
            uz = u * zetan
            if uz < 1.0:
                append(0)
            elif uz < second:
                append(1)
            else:
                rank = int(items * (eta * u - eta + 1.0) ** alpha)
                append(rank if rank < top else top)
        return out


class ScrambledZipfianGenerator:
    """Zipfian ranks scrambled over the keyspace through FNV-1a.

    The rank -> index scramble is pure, and zipfian traffic re-draws a
    small hot set of ranks constantly, so the hash is memoized per
    generator (bounded by the keyspace size).
    """

    def __init__(self, items, theta=0.99, seed=0, rng=None):
        self.items = items
        self._zipf = ZipfianGenerator(items, theta=theta, seed=seed,
                                      rng=rng)
        self._scramble = {}

    def next(self):
        rank = self._zipf.next()
        index = self._scramble.get(rank)
        if index is None:
            index = self._scramble[rank] = fnv64(rank) % self.items
        return index


class UniformGenerator:
    """Every index in ``[0, items)`` equally likely."""

    def __init__(self, items, seed=0, rng=None):
        self.items = items
        self.rng = rng if rng is not None else Random(seed)

    def next(self):
        return self.rng.randrange(self.items)


class LatestGenerator:
    """Zipfian over recency: index ``last`` is the hottest.

    ``last`` starts at ``items - 1`` and is advanced by
    :meth:`note_insert` as the workload grows the keyspace, exactly
    like YCSB's SkewedLatestGenerator tracking the insert counter.
    """

    def __init__(self, items, theta=0.99, seed=0, rng=None):
        self.last = items - 1
        self._theta = theta
        self._zipf = ZipfianGenerator(items, theta=theta, seed=seed,
                                      rng=rng)

    def note_insert(self, index):
        if index > self.last:
            self.last = index
            # Re-normalize over the grown keyspace (cheap: zeta is
            # memoized and grows by one term per insert at most here).
            self._zipf = ZipfianGenerator(self.last + 1,
                                          theta=self._theta,
                                          rng=self._zipf.rng)

    def next(self):
        return self.last - self._zipf.next()


# -- workload specs ----------------------------------------------------------

class Request(NamedTuple):
    """One generated operation.

    ``key_index`` is the integer key (format with :func:`make_key`);
    ``scan_len`` is only meaningful for scans; ``version`` makes every
    write carry distinct (but deterministic) bytes.
    """

    op: str
    key_index: int
    scan_len: int
    version: int


@dataclass(frozen=True)
class WorkloadSpec:
    """A named traffic mix over a keyspace."""

    name: str
    #: Cumulative op mix: ``[(op, weight)]``, weights sum to 1.
    mix: tuple
    #: Key-choice distribution: zipfian | uniform | latest | chain | append.
    distribution: str = "zipfian"
    theta: float = 0.99
    value_size: int = 100
    scan_max: int = 20
    description: str = ""

#: The six classic YCSB core workloads plus the two paper-faithful
#: mixes.  Proportions are the YCSB workload property files' defaults.
WORKLOADS = {
    "ycsb-a": WorkloadSpec(
        name="ycsb-a", mix=(("read", 0.5), ("update", 0.5)),
        distribution="zipfian",
        description="update heavy: 50/50 read/update, zipfian"),
    "ycsb-b": WorkloadSpec(
        name="ycsb-b", mix=(("read", 0.95), ("update", 0.05)),
        distribution="zipfian",
        description="read mostly: 95/5 read/update, zipfian"),
    "ycsb-c": WorkloadSpec(
        name="ycsb-c", mix=(("read", 1.0),),
        distribution="zipfian",
        description="read only, zipfian"),
    "ycsb-d": WorkloadSpec(
        name="ycsb-d", mix=(("read", 0.95), ("insert", 0.05)),
        distribution="latest",
        description="read latest: 95/5 read/insert, skewed to recent"),
    "ycsb-e": WorkloadSpec(
        name="ycsb-e", mix=(("scan", 0.95), ("insert", 0.05)),
        distribution="zipfian",
        description="short ranges: 95/5 scan/insert, zipfian"),
    "ycsb-f": WorkloadSpec(
        name="ycsb-f", mix=(("read", 0.5), ("rmw", 0.5)),
        distribution="zipfian",
        description="read-modify-write: 50/50 read/rmw, zipfian"),
    "pointer-chase": WorkloadSpec(
        name="pointer-chase", mix=(("read", 1.0),),
        distribution="chain",
        description="dependent small random reads (guideline #2 "
                    "worst case)"),
    "log-append": WorkloadSpec(
        name="log-append", mix=(("insert", 1.0),),
        distribution="append", value_size=1024,
        description="sequential inserts, a pure log (guideline #3 "
                    "best case)"),
}


def make_key(index):
    """The canonical key bytes of an integer key index."""
    return b"user%012d" % index


def key_index(key):
    """Invert :func:`make_key` (services that address by index use it)."""
    return int(key[4:])


#: The 0x5E possible single-byte value patterns, prebuilt so
#: :func:`make_value` never allocates a one-byte ``bytes`` per write.
_VALUE_BYTES = tuple(bytes((0x21 + i,)) for i in range(0x5E))
#: ``value_size * 0x5E + pattern`` -> the value: one shared (immutable)
#: ``bytes`` per pattern and size, so at most 0x5E entries per size.
_VALUES = {}


def make_value(spec, index, version):
    """Deterministic, never-all-zero value bytes for one write.

    One printable byte derived from ``(key, version)`` repeated to the
    spec's value size: cheap to build, distinct across versions, and
    non-zero so zero-filled (lost) media reads back as *missing*, never
    as a valid value.  Equal values are one shared object.
    """
    pattern = fnv64(index * 2654435761 + version) % 0x5E
    key = spec.value_size * 0x5E + pattern
    value = _VALUES.get(key)
    if value is None:
        value = _VALUES[key] = _VALUE_BYTES[pattern] * spec.value_size
    return value


@dataclass
class RequestStream:
    """The deterministic request sequence of one client.

    ``client`` partitions the insert keyspace: client ``c`` inserts
    indices ``records + c * INSERT_SPAN + i`` so concurrent clients never
    race to create the same key and a stream's contents do not depend
    on scheduler interleaving.
    """

    spec: WorkloadSpec
    records: int
    seed: int = 0
    client: int = 0
    _rng: Random = field(init=False, repr=False)

    def __post_init__(self):
        name_hash = _FNV_OFFSET
        for byte in self.spec.name.encode("utf-8"):
            name_hash = ((name_hash ^ byte) * _FNV_PRIME) & _MASK64
        self._rng = Random((self.seed << 16) ^ (self.client * 7919)
                           ^ name_hash)
        dist = self.spec.distribution
        n = self.records
        if dist == "zipfian":
            self._keys = ScrambledZipfianGenerator(
                n, theta=self.spec.theta, rng=self._rng)
        elif dist == "uniform":
            self._keys = UniformGenerator(n, rng=self._rng)
        elif dist == "latest":
            self._keys = LatestGenerator(n, theta=self.spec.theta,
                                         rng=self._rng)
        elif dist == "chain":
            # Walk the hash chain in full 64-bit space and only reduce
            # to a key index per step: reducing first would trap the
            # walk in a tiny cycle of the small keyspace, turning the
            # paper's worst case into a cache-resident best case.
            self._chain = fnv64(self.seed * 31 + self.client)
            self._keys = None
        elif dist == "append":
            self._keys = None
        else:
            raise ValueError("unknown distribution %r" % dist)
        self._inserted = 0
        self._version = 0

    def _next_op(self):
        u = self._rng.random()
        acc = 0.0
        for op, weight in self.spec.mix:
            acc += weight
            if u < acc:
                return op
        return self.spec.mix[-1][0]

    def _next_insert_index(self):
        index = self.records + self.client * INSERT_SPAN + self._inserted
        self._inserted += 1
        return index

    def next_request(self):
        """One :class:`Request`: the reference :meth:`next_requests`
        batches.  The open loops call it where batching is impossible
        (the next stream to consume depends on simulated completion
        times).
        """
        spec = self.spec
        op = self._next_op()
        self._version += 1
        if spec.distribution == "append" or op == "insert":
            index = self._next_insert_index()
            if spec.distribution == "latest":
                self._keys.note_insert(index)
            return Request("insert", index, 0, self._version)
        if spec.distribution == "chain":
            self._chain = fnv64(self._chain)
            index = self._chain % self.records
        elif spec.distribution == "latest":
            index = max(0, self._keys.next())
        else:
            index = self._keys.next()
        scan_len = 0
        if op == "scan":
            scan_len = 1 + self._rng.randrange(spec.scan_max)
        return Request(op, index, scan_len, self._version)

    def next_requests(self, count):
        """A batch of ``count`` requests as a list.

        Draw-for-draw identical to ``count`` sequential
        :meth:`next_request` calls, with the per-request attribute
        lookups, mix thresholds and distribution dispatch hoisted out
        of the loop.  Request generation never consults machine state,
        so a stream's batch can be prefetched ahead of execution
        without changing anything downstream.
        """
        spec = self.spec
        dist = spec.distribution
        rng_random = self._rng.random
        randrange = self._rng.randrange
        # Cumulative mix thresholds, accumulated exactly like
        # _next_op's scan so float partial sums match bit-for-bit.
        bounds = []
        acc = 0.0
        for name, weight in spec.mix:
            acc += weight
            bounds.append((acc, name))
        bound0, op0 = bounds[0]
        rest = bounds[1:]
        last_op = bounds[-1][1]
        keys = self._keys
        keys_next = keys.next if keys is not None else None
        records = self.records
        scan_max = spec.scan_max
        is_append = dist == "append"
        is_chain = dist == "chain"
        is_latest = dist == "latest"
        chain = self._chain if is_chain else 0
        base = records + self.client * INSERT_SPAN
        inserted = self._inserted
        version = self._version
        out = []
        append_out = out.append
        for _ in range(count):
            u = rng_random()
            if u < bound0:
                op = op0
            else:
                op = last_op
                for bound, name in rest:
                    if u < bound:
                        op = name
                        break
            version += 1
            if is_append or op == "insert":
                index = base + inserted
                inserted += 1
                if is_latest:
                    keys.note_insert(index)
                append_out(Request("insert", index, 0, version))
                continue
            if is_chain:
                chain = fnv64(chain)
                index = chain % records
            else:
                index = keys_next()
                if is_latest and index < 0:
                    index = 0
            if op == "scan":
                append_out(Request(op, index,
                                   1 + randrange(scan_max), version))
            else:
                append_out(Request(op, index, 0, version))
        self._version = version
        self._inserted = inserted
        if is_chain:
            self._chain = chain
        return out


def get_workload(name):
    """Look up a workload spec; raises KeyError with the valid names."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError("unknown workload %r (choose from %s)"
                       % (name, ", ".join(sorted(WORKLOADS))))
