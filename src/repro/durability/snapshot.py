"""Versioned, checksummed snapshots of live simulation state.

A snapshot captures a *running* experiment -- the cluster store's numpy
columns, every RNG stream, the event heap (including the self-scheduling
periodic tasks), controller/supervisor/ledger/coordinator state and the
telemetry registry -- such that restoring it and running to the horizon
produces a trajectory byte-identical to the uninterrupted run. The
simulation object graph was built picklable end to end (no closures or
lambdas are ever stored in live state; see ``_PeriodicTask`` and
``_SimClock`` in :mod:`repro.sim.engine`), so the payload is simply the
pickled experiment object.

Frame layout
------------
One UTF-8 JSON header line, then the raw pickle payload::

    {"kind": "experiment", "magic": "repro-snapshot", "meta": {...},
     "payload_bytes": N, "payload_sha256": "...", "version": 4}\\n
    <N bytes of pickle>

The header is readable without unpickling anything (``read_header``),
carries a SHA-256 of the payload so torn or corrupted files fail loudly
instead of restoring garbage, and is versioned so a future layout change
refuses old files explicitly. ``meta`` holds deterministic descriptive
fields only (sim time, seed) -- never wall-clock timestamps, so
snapshotting the same state twice yields the same bytes.

Canonical encoding
------------------
Payloads are produced by a *canonical* pickler that deduplicates equal
``str``/``bytes`` atoms and numpy dtypes by value instead of by object
identity. Plain pickle memoizes by ``id()``, so a graph in which two
dicts share one interned ``'violations'`` string serializes differently
from the same logical graph where those are two equal-but-distinct
strings -- exactly what a snapshot/restore round trip produces (the
unpickler materializes fresh, un-interned strings). Value-keyed
deduplication of immutable atoms erases that history, so *equal logical
state encodes to equal bytes even across restore boundaries* -- the
property the self-healing service leans on to prove a crash-recovered
run byte-identical to an uninterrupted one. Dtypes need it too: arrays
built after a restore carry numpy's own dtype instance while the
restored arrays carry the unpickled copy, so without it a run collected
after a restore encodes one more dtype than the uninterrupted run. Sets
and frozensets are written with their members sorted: their iteration
order follows the history that built them (insertions, removals, the
table size a union started from), which a restore (rebuilding them
fresh) does not keep. Mutable containers keep identity-based
memoization: their sharing structure is semantically meaningful
(merging two equal dicts would alias future mutations) and is preserved
exactly by a round trip anyway.

Security note: the payload is a pickle. Restoring executes arbitrary
code embedded in the file, exactly like loading any pickle; only restore
snapshots you (or your own pipeline) wrote. The checksum detects
corruption, not tampering.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.durability.atomic import atomic_write_bytes

#: Frame magic; also the snapshot files' conventional ``.snap`` stem.
SNAPSHOT_MAGIC = "repro-snapshot"

#: Current frame layout version. Bump on any incompatible change (2: the
#: tracker's mirror arrays and the profiles' numpy windows are gone; 3:
#: ``ClusterState`` and the header meta no longer carry an engine backend;
#: 4: both run shapes are ``StagedRun``s -- per-group registries, the
#: runtime-armed injectors on the run, ``n_groups`` in the header meta;
#: 5: the shared config fields live on the ``RunWindow`` base, the
#: removed config knobs are gone, and the run carries ``capping`` and
#: ``throughput`` on the ``StagedRun`` layout; 6: the telemetry registry
#: holds the components' collectors instead of counter and gauge
#: instruments; 7: control events are ``ControlEvent`` named tuples and
#: the event log holds its tenant map and per-tenant detail strings; 8:
#: the power monitor has no IPMI fleets, stale-reading count or
#: bias-published flag, and the controller no set of rebudgeted rows;
#: 9: each workload rng has one arrival stream, and a pending arrival
#: event is an already-accepted job, thinned ahead; 10: a controller
#: always holds a freeze policy, the base ``FreezePolicy`` when none
#: was given).
SNAPSHOT_VERSION = 10

#: Pickle protocol pinned for stable output within a Python version
#: (``HIGHEST_PROTOCOL`` may move under our feet on an interpreter bump).
_PICKLE_PROTOCOL = 5


#: the metaclass of every numpy dtype class: an identity test on it is
#: far cheaper than ``isinstance(obj, np.dtype)`` on every pickled object
_DTYPE_META = type(np.dtype)


class SnapshotError(RuntimeError):
    """A snapshot frame is malformed, corrupted, or of the wrong kind."""


class _CanonicalPickler(pickle._Pickler):
    """Pickler that dedups equal ``str``/``bytes``/dtypes by value and
    writes set and frozenset members in sorted order.

    Built on the pure-Python pickler so ``save`` can be intercepted: every
    string/bytes object and every metadata-free numpy dtype is swapped for
    the first equal instance seen, after which the normal identity memo
    turns repeats into GET opcodes. Only immutable values are
    canonicalized -- aliasing them is unobservable -- so the stream stays
    a standard pickle and loads with ``pickle.loads``.
    """

    def __init__(self, file, protocol):
        super().__init__(file, protocol)
        self._intern: Dict[Any, Any] = {}
        # Separate from _intern: a dtype compares equal to its name string.
        self._dtypes: Dict[np.dtype, np.dtype] = {}

    def save(self, obj, save_persistent_id=True):
        kind = type(obj)
        if kind in (str, bytes):
            obj = self._intern.setdefault(obj, obj)
        elif type(kind) is _DTYPE_META and obj.metadata is None:
            obj = self._dtypes.setdefault(obj, obj)
        return super().save(obj, save_persistent_id)

    def save_set(self, obj):
        # The protocol-4+ layout of pickle._Pickler.save_set, with the
        # members in sorted order (iteration order when unorderable).
        self.write(pickle.EMPTY_SET)
        self.memoize(obj)
        try:
            items = sorted(obj)
        except TypeError:
            items = list(obj)
        for start in range(0, len(items), self._BATCHSIZE):
            self.write(pickle.MARK)
            for item in items[start : start + self._BATCHSIZE]:
                self.save(item)
            self.write(pickle.ADDITEMS)

    def save_frozenset(self, obj):
        # The protocol-4+ layout of pickle._Pickler.save_frozenset, with
        # the members sorted as in save_set.
        self.write(pickle.MARK)
        try:
            items = sorted(obj)
        except TypeError:
            items = list(obj)
        for item in items:
            self.save(item)
        if id(obj) in self.memo:
            # A member's state reached back to this frozenset, which is
            # now written: drop the members and fetch it from the memo.
            self.write(pickle.POP_MARK + self.get(self.memo[id(obj)][0]))
            return
        self.write(pickle.FROZENSET)
        self.memoize(obj)

    dispatch = dict(pickle._Pickler.dispatch)
    dispatch[set] = save_set
    dispatch[frozenset] = save_frozenset

    def memoize(self, obj):
        # The pure-Python pickler writes PickleBuffer payloads through
        # save_bytes()/save_bytearray() directly, bypassing the memo
        # check in save(). An *empty* buffer's tobytes() is the interned
        # b"" singleton, so if b"" was pickled earlier it arrives here
        # already memoized and the base memoize() asserts. The payload
        # is already on the wire at this point; skipping the duplicate
        # PUT yields a valid, deterministic stream.
        if id(obj) in self.memo:
            return
        super().memoize(obj)


def canonical_dumps(obj: Any) -> bytes:
    """Pickle ``obj`` with value-canonical string/bytes deduplication.

    Equal logical state yields equal bytes even when one side's object
    graph went through a snapshot/restore round trip (which loses string
    interning and sharing history that plain pickle would encode).
    """
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, _PICKLE_PROTOCOL).dump(obj)
    return buffer.getvalue()


# CPython keeps frames in 16 KiB chunks and frees a chunk when its first
# frame returns, so the pickler's deep recursion can bounce across a chunk
# edge, allocating and freeing a chunk per call: one 400-server encode took
# 30-390 ms by caller stack depth alone. 16,000 reserved stack slots make
# this frame open a fresh 256 KiB chunk with room for the whole recursion.
canonical_dumps.__code__ = canonical_dumps.__code__.replace(co_stacksize=16_000)


def encode_snapshot(
    obj: Any, kind: str, meta: Optional[Mapping[str, Any]] = None
) -> bytes:
    """Serialize ``obj`` into a framed, checksummed snapshot."""
    payload = canonical_dumps(obj)
    header = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": dict(meta or {}),
    }
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    return line + payload


def _split_frame(data: bytes) -> Tuple[Dict[str, Any], bytes]:
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotError("not a snapshot: missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"not a snapshot: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError("not a snapshot: bad magic")
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return header, data[newline + 1 :]


def decode_header(data: bytes) -> Dict[str, Any]:
    """Parse and validate the frame header without touching the payload."""
    header, _ = _split_frame(data)
    return header


def decode_snapshot(
    data: bytes, expected_kind: Optional[str] = None
) -> Tuple[Any, Dict[str, Any]]:
    """Verify a frame and unpickle its payload; returns ``(obj, header)``."""
    header, payload = _split_frame(data)
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise SnapshotError(
            f"snapshot kind {header.get('kind')!r} != expected {expected_kind!r}"
        )
    declared = header.get("payload_bytes")
    if declared != len(payload):
        raise SnapshotError(
            f"payload truncated: header declares {declared} bytes, "
            f"found {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotError(
            "payload checksum mismatch (file corrupted or torn): "
            f"expected {header.get('payload_sha256')}, got {digest}"
        )
    return pickle.loads(payload), header


def write_snapshot(
    path: Union[str, Path],
    obj: Any,
    kind: str,
    meta: Optional[Mapping[str, Any]] = None,
) -> int:
    """Atomically write ``obj``'s snapshot to ``path``; returns byte count."""
    frame = encode_snapshot(obj, kind, meta)
    atomic_write_bytes(path, frame)
    return len(frame)


def read_snapshot(
    path: Union[str, Path], expected_kind: Optional[str] = None
) -> Tuple[Any, Dict[str, Any]]:
    """Read, verify and unpickle a snapshot file."""
    data = Path(path).read_bytes()
    return decode_snapshot(data, expected_kind=expected_kind)


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Read just the header of a snapshot file (cheap inspection)."""
    with open(path, "rb") as handle:
        line = handle.readline()
    if not line.endswith(b"\n"):
        raise SnapshotError("not a snapshot: missing header line")
    return decode_header(line + b"x")  # placeholder payload; header only


__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "canonical_dumps",
    "decode_header",
    "decode_snapshot",
    "encode_snapshot",
    "read_header",
    "read_snapshot",
    "write_snapshot",
]
