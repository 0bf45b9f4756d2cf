"""The trace file format: typed, versioned, append-only JSON lines.

A trace is one trial's executable history.  The file layout is a
sequence of JSON objects, one per line, written append-only with a
flush after every record so that a crash (of the worker process, not
the simulated hypervisor) leaves at worst one torn final line:

* line 1 — the **header**: format version, the trial coordinates
  (use case, Xen version, mode, recover flag) and the full machine
  digest at attach time, so a replay can verify its freshly built
  testbed matches the recording before applying a single operation;
* then **op records**: the operation kind, its encoded inputs (see
  :mod:`repro.trace.codec`), the observed outcome, and a digest of
  every machine frame the operation dirtied — with a full machine
  digest folded in periodically and at every recovery boundary;
* finally an **end record**: the trial's terminal outcome (crashed?
  banner?) and the final full machine digest.

Nothing in a trace depends on wall-clock time, process IDs or
scheduling: the same trial recorded serially and under the parallel
runner produces byte-identical files, which is the invariant the chaos
harness checks.

Reading is tolerant exactly where crash-safety demands it: an
undecodable *final* line is a torn write and is dropped (the record it
held was never acknowledged anywhere); an undecodable line anywhere
else means the file was damaged after the fact and raises the typed
:class:`TraceCorrupt`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional

from repro.errors import HypervisorCrash, SimulationError

#: Trace format version; bumped whenever the record layout changes.
TRACE_FORMAT = 1

#: How often (in op records) a full machine digest is embedded, so a
#: replay can fail fast instead of only at the end record.
FULL_DIGEST_EVERY = 25

#: The recognised operation kinds.
OP_HYPERCALL = "hypercall"
OP_PAGE_FAULT = "page_fault"
OP_SOFT_IRQ = "soft_irq"
OP_SCHED_TICK = "sched_tick"
OP_USER_WORK = "user_work"
OP_WRITE_WORD = "write_word"
OP_ATTACH_BLOB = "attach_blob"
OP_CHECKPOINT = "checkpoint"
OP_RECOVER = "recover"

OP_KINDS = (
    OP_HYPERCALL,
    OP_PAGE_FAULT,
    OP_SOFT_IRQ,
    OP_SCHED_TICK,
    OP_USER_WORK,
    OP_WRITE_WORD,
    OP_ATTACH_BLOB,
    OP_CHECKPOINT,
    OP_RECOVER,
)


class TraceError(RuntimeError):
    """Base class for every trace subsystem error."""


class TraceCorrupt(TraceError):
    """A trace file is damaged somewhere other than its final line.

    A torn *final* line is the expected residue of a crashed writer
    and is tolerated; damage anywhere else means the file was modified
    after recording and cannot be trusted as a reproducer.
    """

    def __init__(self, path: str, line_no: int, detail: str):
        self.path = path
        self.line_no = line_no
        self.detail = detail
        super().__init__(
            f"trace {path!r} is corrupt at line {line_no} ({detail}); "
            "only the final line of a trace may be torn"
        )


class TraceVersionError(TraceError):
    """The trace was recorded by an incompatible format or Xen build."""


class TraceDecodeError(TraceError):
    """A recorded value cannot be rebuilt into a live object."""


# ----------------------------------------------------------------------
# Outcome classification (shared by the recorder and the replayer)
# ----------------------------------------------------------------------


def outcome_of_exception(exc: BaseException) -> dict:
    """The recordable outcome of an operation that raised."""
    if isinstance(exc, HypervisorCrash):
        return {"crash": str(exc)}
    return {"error": type(exc).__name__, "detail": str(exc)}


def outcome_of_result(result: object) -> dict:
    """The recordable outcome of an operation that returned."""
    if isinstance(result, bool) or result is None:
        return {"ok": True}
    if isinstance(result, int):
        return {"rc": result}
    outcome = getattr(result, "outcome", None)
    if isinstance(outcome, str):
        return {"outcome": outcome}
    return {"ok": True}


def run_classified(fn) -> dict:
    """Execute ``fn`` and classify what happened, swallowing the
    simulation-level exceptions a replay must survive."""
    try:
        result = fn()
    except SimulationError as exc:
        return outcome_of_exception(exc)
    except TraceDecodeError as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}
    return outcome_of_result(result)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class TraceWriter:
    """Append-only, flush-per-record trace emitter."""

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w")
        self.records_written = 0

    def _write(self, record: dict) -> None:
        if self._handle is None:
            raise TraceError(f"trace writer for {self.path!r} is closed")
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        self.records_written += 1

    def write_header(
        self,
        use_case: str,
        version: str,
        mode: str,
        recover: bool,
        initial_digest: str,
        topology: Optional[str] = None,
    ) -> None:
        """Write the trial-coordinates record.

        ``topology`` is the canonical JSON of a non-default scenario
        topology; the key is omitted entirely for the paper default so
        default-topology traces stay byte-identical to format-1 files
        recorded before topologies existed.
        """
        record = {
            "kind": "header",
            "format": TRACE_FORMAT,
            "use_case": use_case,
            "version": version,
            "mode": mode,
            "recover": recover,
            "initial": initial_digest,
        }
        if topology:
            record["topology"] = topology
        self._write(record)

    def write_op(
        self,
        index: int,
        op: str,
        data: dict,
        outcome: dict,
        digest: Dict[str, str],
        full_digest: Optional[str] = None,
    ) -> None:
        record = {
            "kind": "op",
            "i": index,
            "op": op,
            "data": data,
            "outcome": outcome,
            "digest": digest,
        }
        if full_digest is not None:
            record["full"] = full_digest
        self._write(record)

    def write_end(self, crashed: bool, banner: str, final_digest: str, ops: int) -> None:
        self._write(
            {
                "kind": "end",
                "crashed": crashed,
                "banner": banner,
                "final": final_digest,
                "ops": ops,
            }
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


@dataclass
class TraceData:
    """One parsed trace: header, ops, and (when present) the end record."""

    path: str
    header: dict
    ops: List[dict] = field(default_factory=list)
    end: Optional[dict] = None
    #: True when the final line was torn (undecodable) and dropped.
    torn: bool = False

    @property
    def complete(self) -> bool:
        """Did the recording reach its end record?"""
        return self.end is not None

    @property
    def crash_banner(self) -> Optional[str]:
        """The crash banner this trace reproduces, if it crashes.

        Prefers the end record; falls back to the last crashing op for
        traces torn before finalization.
        """
        if self.end is not None and self.end.get("crashed"):
            return self.end.get("banner", "")
        for op in reversed(self.ops):
            if "crash" in op.get("outcome", {}):
                return op["outcome"]["crash"]
        return None


def read_trace(path: str) -> TraceData:
    """Parse a trace file, tolerating only a torn final line."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    records: List[dict] = []
    torn = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if line_no == len(lines):
                torn = True  # a torn final write; the record was never used
                break
            raise TraceCorrupt(path, line_no, f"undecodable line: {exc}") from exc
        if not isinstance(record, dict) or "kind" not in record:
            if line_no == len(lines):
                torn = True
                break
            raise TraceCorrupt(path, line_no, "record is not a trace object")
        records.append(record)

    if not records:
        raise TraceCorrupt(path, 1, "no records (empty trace)")
    header = records[0]
    if header.get("kind") != "header":
        raise TraceCorrupt(path, 1, "first record is not a header")
    fmt = header.get("format")
    if fmt != TRACE_FORMAT:
        raise TraceVersionError(
            f"trace {path!r} uses format {fmt!r}; this build reads format "
            f"{TRACE_FORMAT}"
        )

    ops: List[dict] = []
    end: Optional[dict] = None
    for offset, record in enumerate(records[1:], start=2):
        kind = record.get("kind")
        if kind == "op":
            if end is not None:
                raise TraceCorrupt(path, offset, "op record after the end record")
            ops.append(record)
        elif kind == "end":
            end = record
        else:
            raise TraceCorrupt(path, offset, f"unknown record kind {kind!r}")
    return TraceData(path=path, header=header, ops=ops, end=end, torn=torn)


def trace_filename(
    use_case: str,
    version: str,
    mode: str,
    recover: bool = False,
    topology=None,
) -> str:
    """The deterministic artefact name for one campaign cell's trace.

    A non-default :class:`~repro.core.topology.ScenarioTopology` adds
    its content hash to the stem, so the same cell run under two
    topologies into one ``trace_dir`` never collides; the default
    topology keeps the historical name.
    """
    stem = f"{use_case}_{version}_{mode}" + ("_recover" if recover else "")
    if topology is not None and not topology.is_default:
        stem += f"_t{topology.topology_hash}"
    return stem.replace("/", "-").replace(" ", "-") + ".trace"
