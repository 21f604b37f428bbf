"""Line-delimited JSON traces for executions and verification certificates.

Complex numbers are written as "re,im" with 17 significant digits, so a
trace round-trips to bit-identical states and events.  One matrix codec,
``_matrix`` / ``_parse_rows``, writes Kraus matrices and the rows of the
initial state: an entry whose bits are exactly +0,+0 is the string "0,0",
and only the other entries are formatted or parsed one by one.  (-0.0 is
"-0,0", so the test is on bits, not on value.)

The initial state is one ``qrow`` line per row, and in a wide state most
rows are all "0,0".  So the codec does per-entry work only for the other
entries.  ``encode_state`` reads the state a block of rows at a time
(``DensityMatrix.row_blocks``); ``_matrix`` returns every all-zero row of a
block as one shared list, and ``serialize_run`` formats each distinct row
list once.  ``_zero_qrow`` recognises a line that is exactly an all-zero
``qrow`` as ``json.dumps`` writes it; its contract is that it equals
``json.loads(line)`` or is None, and ``parse_run`` calls ``json.loads`` for
every other line.  ``_parse_rows`` parses only the rows holding an entry
other than "0,0", and the parsed state holds only those rows.  The bytes of
a trace and every check on it are the same either way.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .. import qcore, qgo, sysmodel
from ..executions import (
    Apply,
    AtomicExecute,
    ClassicalUpdate,
    Event,
    Execution,
    Invoke,
    Receive,
    Respond,
    Send,
)
from ..qcore import DensityMatrix, QuantumOperation, RegisterId, RegisterSpace
from ..sysmodel import MessageInstance, SystemState
from ..verifier import Certificate
from .scenarios import MAX_PROCS, TYPE_NAMES, ConfigError, ScenarioConfig

FORMAT_VERSION = 1


class TraceError(Exception):
    pass


def _c(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _parse_c(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _matrix(m: np.ndarray) -> list:
    """The rows of ``m`` as lists of "re,im" strings.  Every all-zero row is
    one shared list; a row with no zero entry is a slice of the formatted
    entries."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    n = m.shape[1]
    bits = m.view(np.int64).reshape(-1)
    nonzero = np.flatnonzero(bits[0::2] | bits[1::2])  # row-major, so grouped by row
    vals = list(map(_c, m.reshape(-1)[nonzero].tolist()))
    rows, cols = (a.tolist() for a in np.divmod(nonzero, n))
    zero = ["0,0"] * n
    out = [zero] * m.shape[0]
    k = 0
    while k < len(vals):
        i = rows[k]
        if k + n <= len(vals) and rows[k + n - 1] == i:  # all n entries of row i
            out[i], k = vals[k:k + n], k + n
            continue
        enc = out[i] = zero.copy()
        while k < len(vals) and rows[k] == i:
            enc[cols[k]] = vals[k]
            k += 1
    return out


def _parse_rows(rows: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``rows``, each a list of ``n`` entries: the indices of the
    rows other than all "0,0", and those rows.  Raises ``ValueError``
    naming a bad row.  Only such a row is parsed entry by entry."""
    zero = _zero_row(n)
    held, parsed = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {i} is not a list of {n} entries")
        if row is zero or row == zero:
            continue
        try:
            parsed.append([0j if s == "0,0" else _parse_c(s) for s in row])
        except (AttributeError, ValueError):
            raise ValueError(f'row {i} holds a value that is not "re,im"') from None
        held.append(i)
    block = np.array(parsed, dtype=np.complex128).reshape(len(held), n)
    return np.array(held, dtype=np.intp), block


def _parse_matrix(rows: list, n: int | None = None) -> np.ndarray:
    """Decode ``rows`` as a matrix (``_parse_rows``); each must be a list of
    ``n`` entries (default: as many as the first row)."""
    if n is None:
        n = len(rows[0]) if rows else 0
    held, block = _parse_rows(rows, n)
    out = np.zeros((len(rows), n), dtype=np.complex128)
    out[held] = block
    return out


def _field(d: dict, key: str, kind: type, optional: bool = False):
    """``d[key]``, which must be of type ``kind`` exactly (so no bool passes
    as an int), or null when ``optional``; raises ``ValueError``."""
    v = d[key]
    if type(v) is kind or (optional and v is None):
        return v
    raise ValueError(f"{key!r} is not {TYPE_NAMES[kind]}{' or null' if optional else ''}")


def _reg(r: RegisterId) -> list:
    return [r.id, r.dim]


def _parse_reg(v) -> RegisterId:
    if not (type(v) is list and len(v) == 2 and all(type(x) is int for x in v)
            and v[1] >= 1):
        raise ValueError(f"register {v!r} is not an [id, dim] pair with dim >= 1")
    return RegisterId(v[0], v[1])


def _parse_dims(v) -> tuple[int, ...]:
    if not (type(v) is list and all(type(x) is int and x >= 1 for x in v)):
        raise ValueError(f"dims {v!r} are not a list of ints >= 1")
    return tuple(v)


def _qop(op: QuantumOperation | None):
    if op is None:
        return None
    return {
        "outs": list(op.outcome_set),
        "kraus": {r: [_matrix(k) for k in op.kraus_by_outcome[r]] for r in op.outcome_set},
        "in_dims": list(op.in_dims),
        "out_dims": list(op.out_dims),
    }


def _parse_qop(d) -> QuantumOperation | None:
    if d is None:
        return None
    outs = _field(d, "outs", list)
    if not all(type(r) is str for r in outs):
        raise ValueError("'outs' holds an outcome that is not a string")
    kraus = _field(d, "kraus", dict)
    return QuantumOperation(
        tuple(outs),
        {r: tuple(_parse_matrix(k) for k in _field(kraus, r, list)) for r in outs},
        _parse_dims(d["in_dims"]),
        _parse_dims(d["out_dims"]),
    )


def _update(u: ClassicalUpdate | None):
    if u is None:
        return None
    return [u.name, list(u.params)]


def _as_tuple(v):
    if isinstance(v, list):
        return tuple(_as_tuple(x) for x in v)
    return v


def _parse_update(v) -> ClassicalUpdate | None:
    if v is None:
        return None
    if not (type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is list):
        raise ValueError(f"update {v!r} is not a [name, params] pair")
    return ClassicalUpdate(v[0], _as_tuple(v[1]))


def _msg(m: MessageInstance) -> dict:
    return {
        "id": m.msg_id,
        "src": m.src,
        "dst": m.dst,
        "classical": m.classical,
        "regs": [_reg(r) for r in m.quantum_regs],
        "marker": m.marker,
        "pending": m.pending,
    }


def _parse_msg(d: dict) -> MessageInstance:
    if type(d) is not dict:
        raise ValueError(f"message {d!r} is not an object")
    marker, pending = d.get("marker"), d.get("pending")
    if not all(v is None or type(v) is str for v in (marker, pending)):
        raise ValueError("a message's 'marker' or 'pending' is not a string or null")
    return MessageInstance(
        msg_id=_field(d, "id", int),
        src=_field(d, "src", str),
        dst=_field(d, "dst", str),
        classical=d["classical"],
        quantum_regs=tuple(_parse_reg(r) for r in _field(d, "regs", list)),
        marker=marker,
        pending=pending,
    )


def encode_event(ev: Event) -> dict:
    if isinstance(ev, Invoke):
        return {"k": "invoke", "eid": ev.eid, "label": ev.label, "gid": ev.gid}
    if isinstance(ev, Respond):
        return {
            "k": "respond", "eid": ev.eid, "label": ev.label,
            "record": ev.record, "update": _update(ev.update),
        }
    if isinstance(ev, Apply):
        return {
            "k": "apply", "eid": ev.eid, "label": ev.label, "proc": ev.proc,
            "name": ev.name, "outcome": ev.outcome, "qop": _qop(ev.qop),
            "in": [_reg(r) for r in ev.in_regs],
            "out": [_reg(r) for r in ev.out_regs],
            "update": _update(ev.update), "target": ev.target_msg,
            "protocol": ev.protocol,
        }
    if isinstance(ev, Send):
        return {
            "k": "send", "eid": ev.eid, "label": ev.label, "msg": _msg(ev.msg),
            "update": _update(ev.update), "protocol": ev.protocol,
        }
    if isinstance(ev, Receive):
        return {
            "k": "receive", "eid": ev.eid, "label": ev.label, "chan": ev.chan,
            "msg": ev.msg_id, "update": _update(ev.update), "protocol": ev.protocol,
        }
    if isinstance(ev, AtomicExecute):
        return {"k": "atomic", "eid": ev.eid, "label": ev.label, "gid": ev.gid,
                "procs": ev.proc_outcomes, "msgs": ev.msg_outcomes}
    raise TraceError(f"cannot encode event {ev!r}")


def decode_event(d: dict) -> Event:
    """The event of an ``ev`` record; a field of the wrong type raises
    ``ValueError`` (``KeyError`` when it is missing)."""
    k = d["k"]
    if k not in ("invoke", "respond", "apply", "send", "receive"):
        raise TraceError(f"unknown event kind {k!r}")
    eid, label = _field(d, "eid", int), _field(d, "label", str)
    if k == "invoke":
        return Invoke(eid=eid, label=label, gid=_field(d, "gid", str))
    update = _parse_update(d["update"])
    if k == "respond":
        return Respond(eid=eid, label=label, record=d["record"], update=update)
    protocol = _field(d, "protocol", bool)
    if k == "apply":
        return Apply(
            eid=eid, label=label, proc=_field(d, "proc", str),
            name=_field(d, "name", str), outcome=_field(d, "outcome", str),
            qop=_parse_qop(_field(d, "qop", dict, optional=True)),
            in_regs=tuple(_parse_reg(r) for r in _field(d, "in", list)),
            out_regs=tuple(_parse_reg(r) for r in _field(d, "out", list)),
            update=update, target_msg=_field(d, "target", int, optional=True),
            protocol=protocol,
        )
    if k == "send":
        return Send(eid=eid, label=label, msg=_parse_msg(d["msg"]), update=update,
                    protocol=protocol)
    return Receive(
        eid=eid, label=label, chan=_field(d, "chan", str),
        msg_id=_field(d, "msg", int), update=update, protocol=protocol,
    )


def encode_state(state: SystemState) -> list[dict]:
    recs = [{"t": "procs", "names": list(state.procs)}]
    for p in state.procs:
        recs.append({"t": "proc", "name": p, "sigma": state.classical[p],
                     "ext": state.ext[p]})
    for key in sorted(state.channels):
        if state.channels[key]:
            recs.append({"t": "chan", "key": key,
                         "msgs": [_msg(m) for m in state.channels[key]]})
    recs.append({
        "t": "quantum",
        "regs": [_reg(r) for r in state.quantum.space.registers],
        "own": {str(r.id): state.ownership[r] for r in state.quantum.space.registers},
    })
    for lo, block in state.quantum.row_blocks():
        for i, row in enumerate(_matrix(block), lo):
            recs.append({"t": "qrow", "i": i, "v": row})
    return recs


def _is_initial_ext(ext) -> bool:
    """Null, or shaped like ``qgo.idle_ext()``: the same keys, each value of
    the same type."""
    idle = qgo.idle_ext()
    return ext is None or (
        type(ext) is dict and ext.keys() == idle.keys()
        and all(type(ext[k]) is type(v) for k, v in idle.items()))


def _decode_state(recs: list[dict]) -> SystemState:
    procs, classical, ext = None, {}, {}
    channels = {}
    quantum, rows = None, {}
    for d in recs:
        t = d["t"]
        if t == "procs":
            if procs is not None:
                raise TraceError("trace has two procs records")
            names = d["names"]
            if not (type(names) is list and all(type(p) is str and "->" not in p
                                                 for p in names)
                    and len(set(names)) == len(names) <= MAX_PROCS):
                raise TraceError(f"procs record: names are not up to {MAX_PROCS} "
                                 "distinct strings without '->'")
            procs = tuple(names)
        elif t == "proc":
            name, sigma = d["name"], d["sigma"]
            if name in classical:
                raise TraceError(f"trace has two proc records for {name!r}")
            if not isinstance(sigma, dict):
                raise TraceError(f"proc record of {name!r}: sigma is not a JSON object")
            if not isinstance(sigma.get("inbox", []), list):
                raise TraceError(f"proc record of {name!r}: inbox is not a list")
            if not _is_initial_ext(d["ext"]):
                raise TraceError(f"proc record of {name!r}: ext is neither null "
                                 f"nor an idle protocol register")
            classical[name] = sigma
            ext[name] = d["ext"]
        elif t == "chan":
            channels[d["key"]] = tuple(_parse_msg(m) for m in d["msgs"])
        elif t == "quantum":
            if quantum is not None:
                raise TraceError("trace has two quantum records")
            quantum = d
        elif t == "qrow":
            if type(d["i"]) is not int:  # a bool or 1.0 would pass as a row number
                raise TraceError(f"bad initial state: row index {d['i']!r} is not an int")
            if d["i"] in rows:
                raise TraceError(f"bad initial state: row {d['i']} is repeated")
            rows[d["i"]] = d["v"]
    if procs is None:
        raise TraceError("trace has no procs record")
    unknown = [p for p in classical if p not in procs]
    if unknown:
        raise TraceError(f"proc record names unknown processor {unknown[0]!r}")
    absent = [p for p in procs if p not in classical]
    if absent:
        raise TraceError(f"trace has no proc record for {absent[0]!r}")
    if quantum is None:
        raise TraceError("trace has no quantum record")
    regs = [_parse_reg(r) for r in quantum["regs"]]
    space = RegisterSpace(tuple(regs))
    dim = space.total_dim
    stray = [i for i in rows if i not in range(dim)]
    if stray:
        raise TraceError(f"bad initial state: row {stray[0]!r} is outside 0..{dim - 1}")
    missing = [i for i in range(dim) if i not in rows]
    if missing:
        raise TraceError(f"quantum state has no row {missing[0]}")
    unowned = [r.id for r in regs if str(r.id) not in quantum["own"]]
    if unowned:
        raise TraceError(f"register {unowned[0]} has no owner")
    try:
        nonzero = _parse_rows([rows[i] for i in range(dim)], dim)
    except ValueError as exc:
        raise TraceError(f"bad initial state: {exc}") from None
    full_channels = {c: () for c in sysmodel.all_channels(procs)}
    for key, msgs in channels.items():
        if key not in full_channels:
            raise TraceError(f"chan record names unknown channel {key!r}")
        stray = [m.msg_id for m in msgs
                 if (m.src, m.dst) != sysmodel.chan_endpoints(key)]
        if stray:
            raise TraceError(f"chan record of {key!r} holds message {stray[0]} "
                             f"of another channel")
    full_channels.update(channels)
    state = SystemState(
        procs=procs, classical=classical, ext=ext, channels=full_channels,
        ownership={r: quantum["own"][str(r.id)] for r in regs},
        quantum=DensityMatrix(space, rows=nonzero),
    )
    state.check_ownership_partition()
    return state


def _check_names(procs: tuple, events: list, linenos: list) -> None:
    """Refuse an event that names a processor or a channel the trace does
    not have: its label, an Apply's ``proc``, a sent message's ends, a
    Receive's channel."""
    channels = set(sysmodel.all_channels(procs))
    for lineno, ev in zip(linenos, events):
        names = [ev.label]
        if isinstance(ev, Apply):
            names.append(ev.proc)
        elif isinstance(ev, Send):
            names += [ev.msg.src, ev.msg.dst]
        unknown = [p for p in names if p not in procs]
        if unknown:
            raise TraceError(f"line {lineno}: event {ev.eid} names unknown "
                             f"processor {unknown[0]!r}")
        if isinstance(ev, Receive) and ev.chan not in channels:
            raise TraceError(f"line {lineno}: event {ev.eid} names unknown "
                             f"channel {ev.chan!r}")


def serialize_run(x: Execution, config: ScenarioConfig | None = None,
                  decisions=None) -> str:
    lines = [json.dumps({
        "t": "header",
        "version": FORMAT_VERSION,
        "config": config.to_dict() if config is not None else None,
        "decisions": decisions,
    }, sort_keys=True)]
    row_json = {}  # id of a row list -> its JSON: the shared zero row is formatted once
    for rec in encode_state(x.initial):
        if rec["t"] != "qrow":
            lines.append(json.dumps(rec, sort_keys=True))
            continue
        v = rec["v"]
        if id(v) not in row_json:
            row_json[id(v)] = json.dumps(v)
        lines.append(f'{{"i": {rec["i"]}, "t": "qrow", "v": {row_json[id(v)]}}}')
    for ev in x.events:
        lines.append(json.dumps({"t": "ev", **encode_event(ev)}, sort_keys=True))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


_QROW_HEAD, _QROW_MID = '{"i": ', ', "t": "qrow", "v": '


@functools.lru_cache(maxsize=4)
def _zero_row_json(width: int) -> str:
    return json.dumps(_zero_row(width))


@functools.lru_cache(maxsize=4)
def _zero_row(width: int) -> list:
    """The all-zero row of ``width``, one list shared by every record that
    holds it; a record's row is never mutated."""
    return ["0,0"] * width


def _zero_qrow(line: str) -> dict | None:
    """Equals ``json.loads(line)`` or is None: the record of a line that is
    exactly ``{"i": <i>, "t": "qrow", "v": ["0,0", ..., "0,0"]}`` as
    ``json.dumps(..., sort_keys=True)`` writes it, found by one comparison
    with a cached all-zero row; None for any other line."""
    if not line.startswith(_QROW_HEAD):
        return None
    k = line.find(_QROW_MID)
    i = line[len(_QROW_HEAD):k]
    start = k + len(_QROW_MID)
    width, odd = divmod(len(line) - 1 - start, len(', "0,0"'))
    # i: ASCII digits without a leading zero, short enough for int() to take
    if not (k > 0 and not odd and i.isascii() and i.isdigit() and len(i) <= 18
            and (i == "0" or i[0] != "0") and line.endswith("}")
            and line.startswith(_zero_row_json(width), start)):
        return None
    return {"i": int(i), "t": "qrow", "v": _zero_row(width)}


def parse_run(text: str):
    """Parse a trace; returns (execution, config or None, decisions or None)."""
    state_recs, events, linenos = [], [], []
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        d = _zero_qrow(line)
        if d is None:
            try:
                d = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, long int, deep nesting
                raise TraceError(f"line {lineno}: {exc}") from exc
        if type(d) is not dict:
            raise TraceError(f"line {lineno}: record is not a JSON object")
        t = d.get("t")
        if t == "header":
            if d.get("version") != FORMAT_VERSION:
                raise TraceError(f"unsupported trace version {d.get('version')}")
            header = d
        elif t == "ev":
            try:
                events.append(decode_event(d))
                linenos.append(lineno)
            except (KeyError, TypeError, ValueError, IndexError, RecursionError,
                    qcore.QcoreError) as exc:
                raise TraceError(f"line {lineno}: bad event record: {exc}") from exc
        elif t in ("procs", "proc", "chan", "quantum", "qrow"):
            state_recs.append(d)
        else:
            raise TraceError(f"line {lineno}: unknown record type {t!r}")
    if header is None:
        raise TraceError("trace has no header")
    try:
        initial = _decode_state(state_recs)
        initial.quantum.validate()
    except (KeyError, TypeError, ValueError, IndexError,
            qcore.QcoreError, sysmodel.SysmodelError) as exc:
        raise TraceError(f"bad initial state: {exc!r}") from exc
    _check_names(initial.procs, events, linenos)
    cfg = header.get("config")
    try:
        config = ScenarioConfig.from_dict(cfg) if cfg is not None else None
    except ConfigError as exc:
        raise TraceError(f"bad header: {exc}") from exc
    return Execution(initial, tuple(events)), config, header.get("decisions")


def serialize_certificate(cert: Certificate) -> str:
    lines = [json.dumps({
        "t": "certificate",
        "version": FORMAT_VERSION,
        "accepted": cert.accepted,
        "verdicts": cert.verdicts,
        "reason": cert.reason,
        "swaps": cert.swaps,
    }, sort_keys=True)]
    for which, x in (("sorted", cert.y), ("message-ops-moved", cert.z)):
        if x is not None:
            lines.append(json.dumps(
                {"t": "order", "which": which, "eids": [e.eid for e in x.events]},
                sort_keys=True))
    if cert.spec is not None:
        for ev in cert.spec.events:
            lines.append(json.dumps(
                {"t": "spec-ev", **encode_event(ev)}, sort_keys=True))
    return "\n".join(lines) + "\n"
