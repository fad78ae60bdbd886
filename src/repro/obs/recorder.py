"""Deterministic flight recorder: Merkle digests of execution state.

Four engines claim to run the *same* protocol — the message-passing
:class:`~repro.net.simulator.Simulator`, the loop emulation oracle, the
vectorized numpy engine and the columnar edge-plane engine (sharded or
not) — and the repo's correctness story rests on them agreeing round for
round, not just on final bytes. The recorder turns that claim into an
artifact: at every protocol checkpoint it captures the execution state
(duals, open set, assignments, and for the simulator the message plane
by kind) as typed arrays, hashes each array into a Merkle root over
fixed-size byte chunks (:data:`CHUNK_BYTES`), hashes those roots into
per-field digests and the field digests into one checkpoint digest. The
root over every checkpoint (:meth:`FlightRecorder.final_digest`)
summarizes the entire run.

A :class:`Field` is one array indexed by node id (bool, int64 or
float64, in canonical little-endian layout), a CSR list field (offsets
plus values — the dual ``witnesses``), or a message table (sender,
receiver, occurrence and one column per payload name). Engines hand the
recorder arrays through one adapter (:meth:`FlightRecorder.
observe_greedy_iteration`, :meth:`~FlightRecorder.observe_dual_level`,
:meth:`~FlightRecorder.observe_dual_rounding`,
:meth:`~FlightRecorder.observe_final`,
:meth:`~FlightRecorder.on_simulator_round`), which owns the field
schema. Leaf names (``client:7``, ``3->12#0``) and canonical value
strings are rendered only on demand — by :meth:`Checkpoint.leaves` and
by :func:`diff_recordings`, which *bisects* a mismatch: first divergent
checkpoint → field → chunk → index, then renders that one leaf with
both values. That is what ``repro divergence`` prints and what the perf
suites and the chaos harness use to localize engine mismatches.

Checkpoint labels are aligned across engines: the emulation engines
emit ``greedy:iter:<t>`` / ``dual:level:<l>`` / ``dual:rounding`` /
``final``, and the simulator emits the *same* labels at the round where
its state provably coincides (end of each DECIDE round for greedy, end
of each FREEZE round and the rounding-decision round for dual ascent —
facility-side state leads the one-round SERVE delivery lag, so it is the
facility view that is compared). The simulator additionally emits
``sim:round:<r>`` checkpoints carrying its full per-round node state and
message plane; labels present in only one recording are reported but are
not divergences, so simulator recordings diff cleanly against emulation
recordings.

Recording is **zero-overhead when off**: every hook is guarded by a
single ``recorder is None`` check, and the service equivalence suite
proves byte-identical output with the flag absent.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.obs.provenance import ProvenanceLog

__all__ = [
    "CHUNK_BYTES",
    "RECORDING_SCHEMA",
    "Checkpoint",
    "DivergenceReport",
    "Field",
    "FlightRecorder",
    "canonical_value",
    "client_array",
    "diff_recordings",
    "facility_mask",
    "final_checkpoint",
    "leaf_sort_key",
    "list_field_arrays",
    "load_recording",
    "record_run",
    "replay_recording",
]

#: Schema tag of the recording JSON artifact.
RECORDING_SCHEMA = "repro.recording/v2"

#: Earlier schema tags this build refuses by name (no loader is kept).
RETIRED_SCHEMAS = ("repro.recording/v1",)

#: Engines a recording can come from.
RECORDING_ENGINES = ("loop", "vectorized", "simulator", "columnar")

#: Byte size of one Merkle chunk of a field column. A multiple of every
#: column itemsize, so a chunk always holds whole elements.
CHUNK_BYTES = 1 << 16

#: Column dtypes by payload tag, all in canonical little-endian layout.
_DTYPES = {
    "bool": np.dtype("|b1"),
    "int64": np.dtype("<i8"),
    "float64": np.dtype("<f8"),
}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}

#: Leaf kinds: node fields are indexed by facility or client id,
#: message fields by row of the (sender, receiver, occurrence) table.
LEAF_KINDS = ("facility", "client", "message")

_PAYLOAD = "payload:"


def canonical_value(value: Any) -> str:
    """Canonical string form of one leaf value.

    Floats go through ``repr``, which round-trips every finite double
    bit-exactly. Numpy scalars are unwrapped via ``.item()`` first
    (``np.bool_`` and ``np.int64`` are not JSON types and
    ``np.float64.__repr__`` differs across numpy versions). Containers
    recurse; sets are sorted. Digests hash array bytes, not these
    strings; the strings are what divergence reports and
    :meth:`Checkpoint.leaves` show.
    """
    # Exact-type check, not isinstance: np.float64 *subclasses* float but
    # its repr ("np.float64(0.25)") differs from the plain float's.
    if hasattr(value, "item") and type(value) not in (bool, int, float, str):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(item) for item in value) + "]"
    raise ReproError(
        f"flight recorder cannot canonicalize {type(value).__name__} leaves; "
        "only scalars and containers of scalars are recordable"
    )


def _digest(text: str) -> str:
    """Short content hash (16 hex chars — plenty at checkpoint counts)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_NATURAL = re.compile(r"(\d+)")


def leaf_sort_key(leaf: str) -> tuple:
    """Numeric-aware ordering so ``client:2`` sorts before ``client:10``."""
    return tuple(
        (0, int(token), "") if token.isdigit() else (1, 0, token)
        for token in _NATURAL.split(leaf)
    )


# ----------------------------------------------------------------------
# Columns: canonical arrays and their chunked Merkle roots
# ----------------------------------------------------------------------


def _column(values: Any, dtype: Any = None) -> np.ndarray:
    """A fresh canonical 1-D column holding ``values``.

    Always a copy: engines hand over arrays they keep mutating (and, in
    the sharded columnar run, views into shared memory that is unlinked
    after the solve).
    """
    array = np.array(values, dtype=dtype)
    kind = array.dtype.kind
    if kind == "b":
        tag = "bool"
    elif kind in "iu":
        tag = "int64"
    elif kind == "f":
        tag = "float64"
    else:
        raise ReproError(
            f"flight recorder cannot record {array.dtype} arrays; "
            "only bool, integer and float columns are recordable"
        )
    return np.ascontiguousarray(array.astype(_DTYPES[tag], copy=False)).reshape(-1)


def _chunk_digests(column: np.ndarray) -> list[bytes]:
    """SHA-256 of each :data:`CHUNK_BYTES` slice of the column's bytes."""
    data = column.view(np.uint8)
    return [
        hashlib.sha256(data[start : start + CHUNK_BYTES]).digest()
        for start in range(0, data.size, CHUNK_BYTES)
    ]


def _column_root(column: np.ndarray) -> str:
    """Merkle root of one column: dtype and length over its chunk hashes."""
    header = f"{_TAGS[column.dtype]}:{column.size}\n".encode("ascii")
    return hashlib.sha256(header + b"".join(_chunk_digests(column))).hexdigest()[:16]


def _bits(column: np.ndarray) -> np.ndarray:
    """Unsigned-integer view, so comparisons are bytewise (NaN == NaN)."""
    return column.view(f"<u{column.itemsize}")


def _first_difference(left: np.ndarray, right: np.ndarray) -> int | None:
    """Index of the first element at which two columns differ, or ``None``.

    Descends chunk → index: chunk hashes locate the first differing chunk
    and only that chunk is compared element by element. A column that is
    a strict prefix of the other differs at the shorter length.
    """
    if left.dtype != right.dtype:
        return 0 if left.size or right.size else None
    step = CHUNK_BYTES // left.itemsize
    for chunk, (a, b) in enumerate(zip(_chunk_digests(left), _chunk_digests(right))):
        if a == b:
            continue
        lo = chunk * step
        seg_left, seg_right = left[lo : lo + step], right[lo : lo + step]
        common = min(seg_left.size, seg_right.size)
        unequal = np.flatnonzero(_bits(seg_left[:common]) != _bits(seg_right[:common]))
        return lo + int(unequal[0]) if unequal.size else lo + common
    if left.size != right.size:
        return min(left.size, right.size)
    return None


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Field:
    """One recorded field: typed columns over one leaf axis.

    ``kind`` names the leaves: ``"facility"``/``"client"`` fields hold a
    ``value`` column indexed by node id (plus an ``offsets`` column when
    each node holds a list — CSR), ``"message"`` fields hold ``sender``,
    ``receiver``, ``occurrence`` and one ``payload:<name>`` column per
    payload name, rows sorted by (sender, receiver, occurrence). Build
    them with :meth:`nodes`, :meth:`lists` and :meth:`messages`.
    ``digest`` hashes the kind and every column's Merkle root.
    """

    kind: str
    columns: Mapping[str, np.ndarray]
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in LEAF_KINDS:
            raise ReproError(
                f"unknown leaf kind {self.kind!r}; expected one of {LEAF_KINDS}"
            )
        columns = self.columns
        if self.kind == "message":
            expected = {"sender", "receiver", "occurrence"}
            if not expected <= set(columns) or any(
                name not in expected and not name.startswith(_PAYLOAD)
                for name in columns
            ):
                raise ReproError(f"malformed message field columns {sorted(columns)}")
            if len({column.size for column in columns.values()}) != 1:
                raise ReproError("message field columns differ in length")
        elif set(columns) not in ({"value"}, {"offsets", "value"}):
            raise ReproError(f"malformed {self.kind} field columns {sorted(columns)}")
        elif "offsets" in columns:
            offsets = columns["offsets"]
            if (
                offsets.dtype != _DTYPES["int64"]
                or offsets.size < 1
                or offsets[0] != 0
                or offsets[-1] != columns["value"].size
                or (np.diff(offsets) < 0).any()
            ):
                raise ReproError(f"malformed {self.kind} list field offsets")
        object.__setattr__(
            self,
            "digest",
            _digest(
                self.kind
                + "\n"
                + "\n".join(
                    f"{name}:{_column_root(columns[name])}" for name in sorted(columns)
                )
            ),
        )

    @classmethod
    def nodes(cls, kind: str, values: Any, dtype: Any = None) -> "Field":
        """One scalar per node id (``kind`` is ``facility`` or ``client``)."""
        return cls(kind, {"value": _column(values, dtype)})

    @classmethod
    def lists(cls, kind: str, offsets: Any, values: Any) -> "Field":
        """One ascending int list per node id, as CSR ``offsets``/``values``."""
        return cls(
            kind,
            {"offsets": _column(offsets, np.int64), "value": _column(values, np.int64)},
        )

    @classmethod
    def messages(cls, messages: Sequence[Any]) -> "Field":
        """Message table of one kind, from simulator ``Message`` objects.

        ``occurrence`` numbers repeated (sender, receiver) pairs in
        submission order; payloads are scalars, one column per name.
        """
        count = len(messages)
        sender = np.fromiter((m.sender for m in messages), np.int64, count)
        receiver = np.fromiter((m.receiver for m in messages), np.int64, count)
        seen: dict[tuple[int, int], int] = {}
        occurrences = []
        for message in messages:
            key = (message.sender, message.receiver)
            index = seen.get(key, 0)
            seen[key] = index + 1
            occurrences.append(index)
        occurrence = np.array(occurrences, dtype=np.int64)
        names = messages[0].payload.keys() if count else ()
        if any(message.payload.keys() != names for message in messages):
            raise ReproError(
                f"messages of kind {messages[0].kind!r} carry different payload names"
            )
        order = np.lexsort((occurrence, receiver, sender))
        columns = {
            "sender": sender[order],
            "receiver": receiver[order],
            "occurrence": occurrence[order],
        }
        for name in names:
            values = _column([message.payload[name] for message in messages])
            columns[_PAYLOAD + name] = values[order]
        return cls("message", columns)

    @property
    def size(self) -> int:
        """Number of leaves."""
        if self.kind == "message":
            return int(self.columns["sender"].size)
        if "offsets" in self.columns:
            return int(self.columns["offsets"].size) - 1
        return int(self.columns["value"].size)

    def leaf_name(self, index: int) -> str:
        """Name of leaf ``index`` (``client:7``, ``3->12#0``)."""
        if self.kind != "message":
            return f"{self.kind}:{index}"
        c = self.columns
        return f"{c['sender'][index]}->{c['receiver'][index]}#{c['occurrence'][index]}"

    def leaf_value(self, index: int) -> str:
        """Canonical value string of leaf ``index``."""
        c = self.columns
        if self.kind == "message":
            return canonical_value(
                [
                    [name[len(_PAYLOAD) :], c[name][index]]
                    for name in sorted(c)
                    if name.startswith(_PAYLOAD)
                ]
            )
        if "offsets" in c:
            lo, hi = int(c["offsets"][index]), int(c["offsets"][index + 1])
            return canonical_value(c["value"][lo:hi].tolist())
        return canonical_value(c["value"][index])

    def leaves(self) -> dict[str, str]:
        """Every leaf name → canonical value string (rendered on demand)."""
        return {self.leaf_name(i): self.leaf_value(i) for i in range(self.size)}

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form: kind plus base64 of each column's canonical bytes."""
        return {
            "kind": self.kind,
            "columns": {
                name: {
                    "dtype": _TAGS[column.dtype],
                    "data": base64.b64encode(column.tobytes()).decode("ascii"),
                }
                for name, column in self.columns.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Field":
        """Inverse of :meth:`to_dict`; the digest is recomputed from the bytes."""
        if not isinstance(data, Mapping) or not isinstance(data.get("columns"), Mapping):
            raise ReproError("malformed recorded field (expected kind and columns)")
        columns = {}
        for name, spec in data["columns"].items():
            if not isinstance(spec, Mapping):
                raise ReproError(f"malformed column {name!r}")
            dtype = _DTYPES.get(spec.get("dtype"))
            if dtype is None:
                raise ReproError(f"column {name!r} has unknown dtype {spec.get('dtype')!r}")
            try:
                raw = base64.b64decode(spec.get("data", ""), validate=True)
            except (binascii.Error, TypeError) as error:
                raise ReproError(f"column {name!r} is not valid base64: {error}") from error
            if len(raw) % dtype.itemsize:
                raise ReproError(f"column {name!r} holds a partial {dtype} element")
            columns[str(name)] = np.frombuffer(raw, dtype=dtype)
        return cls(str(data.get("kind", "")), columns)


def _first_divergent_leaf(left: Field | None, right: Field | None) -> int | None:
    """Index of the first leaf at which two fields differ (``None``: none).

    List fields map the first differing ``value`` position back to its
    leaf through the offsets; a differing offset at ``d`` means leaf
    ``d - 1`` changed length. Whichever leaf comes first wins.
    """
    if left is None or right is None:
        present = right if left is None else left
        return 0 if present is not None and present.size else None
    if "offsets" in left.columns and "offsets" in right.columns:
        candidates = []
        moved = _first_difference(left.columns["offsets"], right.columns["offsets"])
        if moved is not None:
            candidates.append(moved - 1)
        position = _first_difference(left.columns["value"], right.columns["value"])
        if position is not None:
            side = left if position < left.columns["value"].size else right
            candidates.append(
                int(np.searchsorted(side.columns["offsets"], position, side="right")) - 1
            )
        return min(candidates) if candidates else None
    if set(left.columns) != set(right.columns):
        return 0 if left.size or right.size else None
    found = [
        index
        for name in left.columns
        if (index := _first_difference(left.columns[name], right.columns[name]))
        is not None
    ]
    return min(found) if found else None


def facility_mask(open_facilities: Iterable[int], num_facilities: int) -> np.ndarray:
    """Open-facility ids as an ``(m,)`` bool mask."""
    mask = np.zeros(num_facilities, dtype=bool)
    ids = np.fromiter(open_facilities, dtype=np.int64)
    mask[ids] = True
    return mask


def client_array(assignment: Mapping[int, int], num_clients: int) -> np.ndarray:
    """Client → facility mapping as an ``(n,)`` int64 array (-1: unassigned)."""
    array = np.full(num_clients, -1, dtype=np.int64)
    count = len(assignment)
    array[np.fromiter(assignment.keys(), np.int64, count)] = np.fromiter(
        assignment.values(), np.int64, count
    )
    return array


def list_field_arrays(sets: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(offsets, values)`` of one int set per node, each sorted."""
    lists = [sorted(items) for items in sets]
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.fromiter(map(len, lists), np.int64, len(lists)))
    values = np.fromiter(
        (value for items in lists for value in items), np.int64, int(offsets[-1])
    )
    return offsets, values


def final_checkpoint(is_open: Any, assignment: Any) -> "Checkpoint":
    """The canonical end-of-run checkpoint, identical for every engine.

    ``is_open`` is the ``(m,)`` open mask, ``assignment`` the ``(n,)``
    client → facility array (-1 where a client is unserved).
    """
    return Checkpoint.build(
        "final",
        {
            "open": Field.nodes("facility", is_open, bool),
            "assignment": Field.nodes("client", assignment, np.int64),
        },
    )


@dataclass(frozen=True)
class Checkpoint:
    """One digested state snapshot: a two-level Merkle node over fields.

    ``fields`` maps field name (``"open"``, ``"alpha"``,
    ``"messages:alp"``, ...) to its :class:`Field`; ``field_digests``
    holds each field's Merkle root and ``digest`` hashes the label with
    them. The arrays are kept so a digest mismatch can be bisected to the
    exact node and value; digests alone would only say "something
    differs".
    """

    label: str
    fields: Mapping[str, Field]
    field_digests: Mapping[str, str]
    digest: str

    @classmethod
    def build(cls, label: str, fields: Mapping[str, Field]) -> "Checkpoint":
        """Hash already-built fields bottom-up under ``label``."""
        label = str(label)
        field_digests = {str(name): item.digest for name, item in fields.items()}
        digest = _digest(
            label
            + "\n"
            + "\n".join(f"{name}:{field_digests[name]}" for name in sorted(field_digests))
        )
        return cls(
            label=label,
            fields={str(name): item for name, item in fields.items()},
            field_digests=field_digests,
            digest=digest,
        )

    def leaves(self, name: str) -> dict[str, str]:
        """Leaf name → canonical value string of field ``name``."""
        try:
            return self.fields[name].leaves()
        except KeyError:
            raise ReproError(
                f"checkpoint {self.label!r} has no field {name!r}"
            ) from None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (digests included for fast diffing)."""
        return {
            "label": self.label,
            "digest": self.digest,
            "field_digests": dict(self.field_digests),
            "fields": {name: item.to_dict() for name, item in self.fields.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Checkpoint":
        """Inverse of :meth:`to_dict`.

        Digests are *recomputed* from the stored array bytes, never
        trusted: a flipped byte therefore shifts this checkpoint's
        digest, fails the artifact's final-digest check in
        :meth:`FlightRecorder.from_payload`, and is rejected.
        """
        return cls.build(
            str(data.get("label", "")),
            {
                str(name): Field.from_dict(item)
                for name, item in dict(data.get("fields", {})).items()
            },
        )


class FlightRecorder:
    """Collects digested checkpoints (and optionally provenance) of one run.

    Parameters
    ----------
    engine:
        Which engine produced the recording (``"loop"``, ``"vectorized"``,
        ``"columnar"`` or ``"simulator"``) — recordings carry their origin
        so diffs are attributable.
    full:
        Also log the causal provenance DAG
        (:class:`~repro.obs.provenance.ProvenanceLog`). Only the loop
        engine populates it — it is the oracle with the global view; the
        digest plane covers every engine either way.
    config:
        Arbitrary JSON-safe run configuration embedded in the artifact;
        :func:`record_run` stores the full solve recipe (including the
        instance), which is what makes ``repro replay`` hermetic.
    """

    def __init__(
        self,
        engine: str,
        full: bool = False,
        config: Mapping[str, Any] | None = None,
    ) -> None:
        self.engine = str(engine)
        self.full = bool(full)
        self.config: dict[str, Any] = dict(config or {})
        self.checkpoints: list[Checkpoint] = []
        self.provenance: ProvenanceLog | None = (
            ProvenanceLog() if self.full else None
        )
        self._phases: tuple[str, Any, int, int] | None = None

    # ------------------------------------------------------------------
    # Observation API (engines call these; the recorder owns the schema)
    # ------------------------------------------------------------------

    def observe(self, label: str, fields: Mapping[str, Field]) -> None:
        """Digest one state snapshot under ``label``."""
        self.checkpoints.append(Checkpoint.build(label, fields))

    def observe_greedy_iteration(
        self, iteration: int, is_open: Any, assignment: Any
    ) -> None:
        """End of greedy iteration ``iteration``: open mask, assignment array."""
        self.observe(
            f"greedy:iter:{iteration}",
            {
                "open": Field.nodes("facility", is_open, bool),
                "assignment": Field.nodes("client", assignment, np.int64),
            },
        )

    def observe_dual_level(
        self,
        level: int,
        alpha: Any,
        frozen: Any,
        tight: Any,
        witness_offsets: Any,
        witnesses: Any,
    ) -> None:
        """End of dual level ``level``; witnesses as CSR over clients."""
        self.observe(
            f"dual:level:{level}",
            {
                "alpha": Field.nodes("client", alpha, np.float64),
                "frozen": Field.nodes("client", frozen, bool),
                "witnesses": Field.lists("client", witness_offsets, witnesses),
                "tight": Field.nodes("facility", tight, bool),
            },
        )

    def observe_dual_rounding(self, is_open: Any) -> None:
        """Open mask after the dual rounding coin flips."""
        self.observe("dual:rounding", {"open": Field.nodes("facility", is_open, bool)})

    def observe_final(self, is_open: Any, assignment: Any) -> None:
        """The canonical end-of-run checkpoint (see :func:`final_checkpoint`)."""
        self.checkpoints.append(final_checkpoint(is_open, assignment))

    def final_digest(self) -> str:
        """Merkle root over every checkpoint digest, in recording order."""
        return _digest(
            "\n".join(f"{c.label}:{c.digest}" for c in self.checkpoints)
        )

    # ------------------------------------------------------------------
    # Simulator integration
    # ------------------------------------------------------------------

    def bind_simulator_phases(
        self, variant: str, params: Any, num_facilities: int, num_clients: int
    ) -> None:
        """Teach the recorder the run's round schedule.

        Called by :class:`~repro.core.algorithm.DistributedFacilityLocation`
        before the run; without it :meth:`on_simulator_round` records only
        the raw ``sim:round:<r>`` plane, not the emulation-aligned labels.
        """
        self._phases = (str(variant), params, int(num_facilities), int(num_clients))

    def on_simulator_round(self, simulator: Any, round_number: int) -> None:
        """Record one simulator round: message plane + aligned state.

        The ``sim:round:<r>`` checkpoint carries the full per-round node
        state and every message submitted this round, keyed by kind —
        two simulator recordings bisect down to the first divergent
        message. When the round is a protocol alignment point (greedy
        DECIDE, dual FREEZE / rounding decision), the matching emulation
        label is also emitted so simulator and emulation recordings
        cross-diff.
        """
        by_kind: dict[str, list[Any]] = {}
        for message in simulator.pending_messages:
            by_kind.setdefault(message.kind, []).append(message)
        fields = {
            f"messages:{kind}": Field.messages(messages)
            for kind, messages in by_kind.items()
        }
        if self._phases is not None:
            fields.update(self._node_state_fields(simulator.nodes))
        self.observe(f"sim:round:{round_number}", fields)
        if self._phases is None or round_number < 1:
            return
        variant, params, m, n = self._phases
        nodes = simulator.nodes
        if variant == "greedy":
            from repro.core.greedy_nodes import phase_of_round

            phase, iteration = phase_of_round(params, round_number)
            if phase == "decide":
                assignment: dict[int, int] = {}
                for i in range(m):
                    for client in sorted(nodes[i].served_clients):
                        assignment.setdefault(client - m, i)
                self.observe_greedy_iteration(
                    iteration,
                    [nodes[i].is_open for i in range(m)],
                    client_array(assignment, n),
                )
        else:
            from repro.core.dual_ascent_nodes import dual_phase_of_round

            phase, level = dual_phase_of_round(params, round_number)
            if phase == "freeze":
                clients = nodes[m : m + n]
                self.observe_dual_level(
                    level,
                    [node.alpha for node in clients],
                    [node.frozen for node in clients],
                    [nodes[i].is_tight for i in range(m)],
                    *list_field_arrays([node.witnesses for node in clients]),
                )
            elif phase == "round2":
                self.observe_dual_rounding([nodes[i].is_open for i in range(m)])

    def _node_state_fields(self, nodes: Any) -> dict[str, Field]:
        """Per-round node state of the ``sim:round:<r>`` plane."""
        variant, _params, m, n = self._phases  # type: ignore[misc]
        facilities, clients = nodes[:m], nodes[m : m + n]
        fields = {
            "open": Field.nodes("facility", [node.is_open for node in facilities], bool),
            "assignment": Field.nodes(
                "client",
                [-1 if node.connected_to is None else node.connected_to for node in clients],
                np.int64,
            ),
        }
        if variant != "greedy":
            fields["alpha"] = Field.nodes(
                "client", [node.alpha for node in clients], np.float64
            )
            fields["frozen"] = Field.nodes("client", [node.frozen for node in clients], bool)
            fields["tight"] = Field.nodes(
                "facility", [node.is_tight for node in facilities], bool
            )
        return fields

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe artifact: schema tag, config, checkpoints, provenance."""
        payload: dict[str, Any] = {
            "schema": RECORDING_SCHEMA,
            "engine": self.engine,
            "full": self.full,
            "config": dict(self.config),
            "final_digest": self.final_digest(),
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance.to_payload()
        return payload

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "FlightRecorder":
        """Inverse of :meth:`to_payload`; validates schema and Merkle root."""
        schema = data.get("schema")
        if schema in RETIRED_SCHEMAS:
            raise ReproError(
                f"recording schema {schema!r} is no longer readable; this build "
                f"reads {RECORDING_SCHEMA!r} — re-record the run"
            )
        if schema != RECORDING_SCHEMA:
            raise ReproError(
                f"not a flight recording (schema {schema!r}, "
                f"expected {RECORDING_SCHEMA!r})"
            )
        recorder = cls(
            engine=str(data.get("engine", "?")),
            full=bool(data.get("full", False)),
            config=data.get("config", {}),
        )
        recorder.checkpoints = [
            Checkpoint.from_dict(item) for item in data.get("checkpoints", ())
        ]
        if recorder.provenance is not None:
            recorder.provenance = ProvenanceLog.from_payload(
                data.get("provenance", ())
            )
        stored = data.get("final_digest")
        if stored is not None and stored != recorder.final_digest():
            raise ReproError(
                "recording failed its Merkle-root check: stored final digest "
                f"{stored} != recomputed {recorder.final_digest()} "
                "(artifact corrupted or hand-edited)"
            )
        return recorder

    def write_json(self, path: str | Path) -> Path:
        """Write the recording artifact as pretty-printed JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        return target


def load_recording(path: str | Path) -> FlightRecorder:
    """Read a recording written by :meth:`FlightRecorder.write_json`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot read recording {path}: {error}") from error
    if not isinstance(data, Mapping):
        raise ReproError(f"recording {path} is not a JSON object")
    return FlightRecorder.from_payload(data)


# ----------------------------------------------------------------------
# Diffing / divergence bisection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of :func:`diff_recordings`: identical, or bisected to a leaf.

    ``label``/``field``/``leaf`` name the *first* divergent checkpoint,
    the first differing field inside it, and the first differing leaf
    (numeric-aware order, so ``client:2`` is checked before
    ``client:10``); ``left_value``/``right_value`` are the canonical
    value strings on each side (``None`` = leaf absent on that side).
    Labels present in only one recording are inventoried in
    ``left_only``/``right_only`` but are not divergences — a simulator
    recording legitimately carries ``sim:round:*`` labels an emulation
    recording lacks.
    """

    identical: bool
    left_engine: str
    right_engine: str
    compared: int
    label: str | None = None
    field: str | None = None
    leaf: str | None = None
    left_value: str | None = None
    right_value: str | None = None
    left_only: tuple[str, ...] = ()
    right_only: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (``repro divergence --json``)."""
        return {
            "identical": self.identical,
            "left_engine": self.left_engine,
            "right_engine": self.right_engine,
            "compared": self.compared,
            "label": self.label,
            "field": self.field,
            "leaf": self.leaf,
            "left_value": self.left_value,
            "right_value": self.right_value,
            "left_only": list(self.left_only),
            "right_only": list(self.right_only),
        }

    def render(self) -> str:
        """Human-readable report (what ``repro divergence`` prints)."""
        if self.identical:
            lines = [
                f"recordings are digest-identical over {self.compared} "
                f"shared checkpoint(s) ({self.left_engine} vs {self.right_engine})"
            ]
        else:
            lines = [
                f"recordings DIVERGE ({self.left_engine} vs {self.right_engine}):",
                f"  first divergent checkpoint: {self.label}",
                f"  field: {self.field}",
                f"  leaf:  {self.leaf}",
                f"  left  ({self.left_engine}): "
                f"{'<absent>' if self.left_value is None else self.left_value}",
                f"  right ({self.right_engine}): "
                f"{'<absent>' if self.right_value is None else self.right_value}",
            ]
        if self.left_only:
            lines.append(
                f"  (left-only checkpoints: {len(self.left_only)}, "
                f"first: {self.left_only[0]})"
            )
        if self.right_only:
            lines.append(
                f"  (right-only checkpoints: {len(self.right_only)}, "
                f"first: {self.right_only[0]})"
            )
        return "\n".join(lines)


def diff_recordings(
    left: FlightRecorder, right: FlightRecorder
) -> DivergenceReport:
    """Compare two recordings; bisect the first mismatch to a single leaf.

    Shared labels are compared in the left recording's order (protocol
    order), so the reported divergence is the *earliest* protocol point
    at which the executions differ — everything after it is fallout.
    """
    right_by_label = {c.label: c for c in right.checkpoints}
    left_labels = {c.label for c in left.checkpoints}
    left_only = tuple(
        c.label for c in left.checkpoints if c.label not in right_by_label
    )
    right_only = tuple(
        c.label for c in right.checkpoints if c.label not in left_labels
    )
    compared = 0
    for checkpoint in left.checkpoints:
        other = right_by_label.get(checkpoint.label)
        if other is None:
            continue
        compared += 1
        if checkpoint.digest == other.digest:
            continue
        field_name, leaf, left_value, right_value = _bisect_checkpoint(
            checkpoint, other
        )
        return DivergenceReport(
            identical=False,
            left_engine=left.engine,
            right_engine=right.engine,
            compared=compared,
            label=checkpoint.label,
            field=field_name,
            leaf=leaf,
            left_value=left_value,
            right_value=right_value,
            left_only=left_only,
            right_only=right_only,
        )
    return DivergenceReport(
        identical=True,
        left_engine=left.engine,
        right_engine=right.engine,
        compared=compared,
        left_only=left_only,
        right_only=right_only,
    )


def _bisect_checkpoint(
    left: Checkpoint, right: Checkpoint
) -> tuple[str | None, str | None, str | None, str | None]:
    """Locate the first differing (field, leaf, value, value) of a mismatch.

    Descends field → chunk → index on the arrays, then renders only the
    leaf found. Message rows are sorted by (sender, receiver,
    occurrence), so when the two sides name different leaves at that
    index, the lesser name is the one the other side lacks.
    """
    for name in sorted(set(left.field_digests) | set(right.field_digests)):
        if left.field_digests.get(name) == right.field_digests.get(name):
            continue
        left_field, right_field = left.fields.get(name), right.fields.get(name)
        index = _first_divergent_leaf(left_field, right_field)
        if index is None:
            return name, None, None, None
        sides = [
            (item.leaf_name(index), item.leaf_value(index))
            if item is not None and index < item.size
            else None
            for item in (left_field, right_field)
        ]
        left_leaf, right_leaf = sides
        if left_leaf and right_leaf and left_leaf[0] == right_leaf[0]:
            return name, left_leaf[0], left_leaf[1], right_leaf[1]
        if right_leaf is None or (
            left_leaf is not None
            and leaf_sort_key(left_leaf[0]) < leaf_sort_key(right_leaf[0])
        ):
            return name, left_leaf[0], left_leaf[1], None
        return name, right_leaf[0], None, right_leaf[1]
    return None, None, None, None


# ----------------------------------------------------------------------
# Recording / replaying whole runs
# ----------------------------------------------------------------------


def record_run(
    instance: Any,
    *,
    engine: str,
    k: int,
    variant: str = "greedy",
    seed: int = 0,
    rounding: str = "select_all",
    c_round: float = 1.0,
    open_fraction: float = 0.5,
    full: bool = False,
    shards: int = 1,
) -> FlightRecorder:
    """Run one solve under a flight recorder and return the recording.

    The full solve recipe — including the instance itself — is embedded
    in the recording's ``config``, which is what makes
    :func:`replay_recording` hermetic: the artifact alone suffices to
    re-run and digest-check the execution on any machine. ``shards``
    applies to the columnar engine only (and, by the sharding determinism
    contract, never changes the resulting digests — which replaying a
    ``shards=4`` recording at ``shards=1`` verifies for free).
    """
    from repro.core.dual_ascent_nodes import RoundingPolicy
    from repro.fl.io import instance_to_dict

    if engine not in RECORDING_ENGINES:
        raise ReproError(
            f"unknown recording engine {engine!r}; "
            f"expected one of {RECORDING_ENGINES}"
        )
    if full and engine != "loop":
        raise ReproError(
            "full-record mode (causal provenance) requires the loop engine; "
            f"got engine={engine!r}"
        )
    variant = str(getattr(variant, "value", variant))
    config = {
        "engine": engine,
        "k": int(k),
        "variant": variant,
        "seed": int(seed),
        "rounding": rounding,
        "c_round": float(c_round),
        "open_fraction": float(open_fraction),
        "full": bool(full),
        "instance": instance_to_dict(instance),
    }
    if int(shards) != 1:
        config["shards"] = int(shards)
    recorder = FlightRecorder(engine=engine, full=full, config=config)
    policy = RoundingPolicy(mode=rounding, c_round=c_round)
    if engine == "simulator":
        from repro.core.algorithm import solve_distributed

        solve_distributed(
            instance,
            k=k,
            variant=variant,
            seed=seed,
            rounding=policy,
            open_fraction=open_fraction,
            recorder=recorder,
        )
    else:
        from repro.core.sequential_sim import run_sequential

        run_sequential(
            instance,
            k=k,
            variant=variant,
            seed=seed,
            rounding=policy,
            open_fraction=open_fraction,
            engine=engine,
            recorder=recorder,
            shards=int(shards) if engine == "columnar" else 1,
        )
    return recorder


def replay_recording(
    recording: FlightRecorder, engine: str | None = None
) -> FlightRecorder:
    """Re-run a recording's embedded solve recipe; returns the new recording.

    ``engine`` overrides the recorded engine (the cross-engine check:
    replay a loop recording on the vectorized engine and diff). Raises
    :class:`~repro.exceptions.ReproError` when the recording embeds no
    instance (e.g. one produced through the service's ``record`` flag —
    re-request it instead).
    """
    config = recording.config
    if "instance" not in config:
        raise ReproError(
            "recording embeds no instance; it cannot be replayed hermetically"
        )
    from repro.fl.io import instance_from_dict

    instance = instance_from_dict(config["instance"])
    return record_run(
        instance,
        engine=engine or str(config.get("engine", recording.engine)),
        k=int(config.get("k", 9)),
        variant=str(config.get("variant", "greedy")),
        seed=int(config.get("seed", 0)),
        rounding=str(config.get("rounding", "select_all")),
        c_round=float(config.get("c_round", 1.0)),
        open_fraction=float(config.get("open_fraction", 0.5)),
        full=bool(config.get("full", False)),
        shards=int(config.get("shards", 1)),
    )
