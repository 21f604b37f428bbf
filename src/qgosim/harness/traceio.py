"""Line-delimited JSON traces for executions and verification certificates.

Complex numbers are written as "re,im" with 17 significant digits, so a
trace round-trips to bit-identical states and events.  One matrix codec,
``_matrix`` / ``_parse_rows``, writes Kraus matrices and the rows of the
initial state: an entry whose bits are exactly +0,+0 is the string "0,0",
and only the other entries are formatted or parsed one by one.  (-0.0 is
"-0,0", so the test is on bits, not on value.)

The initial state is one ``qrow`` line per row, and in a wide state most
rows are all "0,0".  So the codec does per-entry work only for the other
entries.  ``encode_state`` reads only the state's distinct rows
(``DensityMatrix.distinct_rows``: two for a basis state, whatever D), a
block at a time, formats each with ``_matrix`` once, and points the
``qrow`` record of every row at its distinct row's list.  ``_matrix``
returns every all-zero row of a block as one shared list, and
``serialize_run`` writes the JSON of each row list once, into one list of
pieces that is joined once: no line is built per row.  Nor is one copied
or decoded on reading.  ``_zero_qrow`` recognises in place a line that is
exactly an all-zero ``qrow`` as ``json.dumps`` writes it; its contract is
that it equals ``json.loads`` of the line or is None.  ``_records`` then
takes each following line that is the same line for the next row index,
ended by a line feed, by a compare of its index and one compare with a
tail shared by the run, and yields the run as one record whose ``i`` is
the ``range`` of its rows.  ``_decode_state`` files and checks a run as
one span, and ``_parse_rows`` parses only the rows holding an entry other
than "0,0"; the parsed state holds only those rows.  ``_records`` slices
and splits only the stretches of other lines.  The bytes of a trace, and
every check on it with its message and line number, are the same as when
every line is read by ``json.loads``.
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
_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps makes one per call


class TraceError(Exception):
    pass


def _c(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _parse_c(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _matrix(m: np.ndarray) -> list:
    """The rows of ``m`` as lists of "re,im" strings.  Every all-zero row is
    one shared list."""
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
        enc = out[i] = zero.copy()
        while k < len(vals) and rows[k] == i:
            enc[cols[k]] = vals[k]
            k += 1
    return out


def _parse_rows(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``rows``, (index, row) pairs in index order, each row a list
    of ``n`` entries: the indices of the rows other than all "0,0", and
    those rows.  Raises ``ValueError`` naming the first bad row.  Only such
    a row is parsed entry by entry."""
    zero = _zero_row(n)
    held, parsed = [], []
    for i, row in rows:
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


def _parse_matrix(rows: list) -> np.ndarray:
    """Decode ``rows`` as a matrix (``_parse_rows``); each must be a list of
    as many entries as the first row."""
    n = len(rows[0]) if rows else 0
    held, block = _parse_rows(enumerate(rows), n)
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
        "pending": None,  # no message carries an outcome; kept so traces keep their bytes
    }


def _parse_msg(d: dict) -> MessageInstance:
    if type(d) is not dict:
        raise ValueError(f"message {d!r} is not an object")
    if d.get("pending") is not None:
        raise ValueError(f"message {d.get('id')!r} carries a pending outcome")
    marker = d.get("marker")
    if not (marker is None or type(marker) is str):
        raise ValueError("a message's 'marker' is not a string or null")
    msg = MessageInstance(
        msg_id=_field(d, "id", int),
        src=_field(d, "src", str),
        dst=_field(d, "dst", str),
        classical=d["classical"],
        quantum_regs=tuple(_parse_reg(r) for r in _field(d, "regs", list)),
        marker=marker,
    )
    # a marker's gid is stored once: its classical part only repeats it
    if marker is not None and msg.classical != {"kind": "marker", "gid": marker}:
        raise ValueError(f"marker message {msg.msg_id} does not carry exactly its gid")
    return msg


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
            "k": "apply", "eid": ev.eid, "label": ev.label, "proc": ev.label,
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
    ``ValueError`` (``KeyError`` when it is missing).  An Apply record's
    ``proc`` is only checked: ``_check_names`` holds it to the label."""
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
        _field(d, "proc", str)
        return Apply(
            eid=eid, label=label,
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
    for key, msgs in sorted(state.channels.items()):
        recs.append({"t": "chan", "key": key, "msgs": [_msg(m) for m in msgs]})
    recs.append({
        "t": "quantum",
        "regs": [_reg(r) for r in state.quantum.space.registers],
        "own": {str(r.id): state.ownership[r] for r in state.quantum.space.registers},
    })
    index, blocks = state.quantum.distinct_rows()
    rows = [row for block in blocks for row in _matrix(block)]
    recs += ({"t": "qrow", "i": i, "v": rows[k]} for i, k in enumerate(index))
    return recs


def _is_initial_ext(ext) -> bool:
    """Null, or shaped like ``qgo.idle_ext()``: the same keys, each value of
    the same type."""
    idle = qgo.idle_ext()
    return ext is None or (
        type(ext) is dict and ext.keys() == idle.keys()
        and all(type(ext[k]) is type(v) for k, v in idle.items()))


def _decode_state(recs: list[tuple[int, dict]]) -> SystemState:
    """The initial state from its (line number, record) pairs.  A qrow
    record's ``i`` is a row index, or a ``range`` for a run of all-zero rows
    that ``_records`` read as one record; a run is filed by its range, and
    every check below reads it as one span, not row by row."""
    procs, classical, ext = None, {}, {}
    channels = {}
    quantum, filed, spans = None, set(), []  # spans: (range, row) in file order
    for lineno, d in recs:
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
            try:
                msgs = tuple(_parse_msg(m) for m in d["msgs"])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: bad chan record: {exc}") from None
            if d["key"] in channels:
                raise TraceError(f"trace has two chan records for {d['key']!r}")
            channels[d["key"]] = msgs
        elif t == "quantum":
            if quantum is not None:
                raise TraceError("trace has two quantum records")
            quantum = d
        elif t == "qrow":
            span = d["i"]
            if type(span) is int:  # a bool or 1.0 would pass as a row number
                span = range(span, span + 1)
            elif type(span) is not range:  # no JSON value is a range
                raise TraceError(f"bad initial state: row index {span!r} is not an int")
            if not filed.isdisjoint(span):
                repeated = next(i for i in span if i in filed)
                raise TraceError(f"bad initial state: row {repeated} is repeated")
            filed.update(span)
            spans.append((span, d["v"]))
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
    regs = [_parse_reg(r) for r in _field(quantum, "regs", list)]
    owners = _field(quantum, "own", dict)
    space = RegisterSpace(tuple(regs))
    dim = space.total_dim
    # a span's first row outside 0..dim-1 is its first row, or else row dim
    stray = [i for span, _ in spans for i in (span.start, dim)
             if i in span and i not in range(dim)]
    if stray:
        raise TraceError(f"bad initial state: row {stray[0]!r} is outside 0..{dim - 1}")
    if len(filed) < dim:  # the rows are distinct and none is outside 0..dim-1
        missing = next(i for i in range(dim) if i not in filed)
        raise TraceError(f"quantum state has no row {missing}")
    unowned = [r.id for r in regs if str(r.id) not in owners]
    if unowned:
        raise TraceError(f"register {unowned[0]} has no owner")
    held = {str(r.id) for r in regs}
    ghosts = [k for k in owners if k not in held]
    if ghosts:
        raise TraceError(f"register {ghosts[0]} has an owner but is not in the state")
    try:
        # a run's rows are one shared row, so its first row stands for it
        nonzero = _parse_rows(sorted((span.start, row) for span, row in spans), dim)
    except ValueError as exc:
        raise TraceError(f"bad initial state: {exc}") from None
    for key, msgs in channels.items():
        if not sysmodel.is_channel(procs, key):
            raise TraceError(f"chan record names unknown channel {key!r}")
        stray = [m.msg_id for m in msgs if m.channel != key]
        if stray:
            raise TraceError(f"chan record of {key!r} holds message {stray[0]} "
                             f"of another channel")
    return sysmodel.initial_state(
        procs, classical, DensityMatrix.from_rows(space, *nonzero),
        {r: owners[str(r.id)] for r in regs}, ext, channels)


def _check_names(procs: tuple, events: list, linenos: list, applies_on: list) -> None:
    """Refuse an event that names a processor or a channel the trace does
    not have: its label, an Apply record's ``proc`` (its entry of
    ``applies_on``), a sent message's ends, a Receive's channel.  Also
    refuse an Apply record whose ``proc`` is not its label: an Apply runs
    on its label, the chain that orders it, so a record naming another
    processor is a forgery."""
    for lineno, ev, proc in zip(linenos, events, applies_on):
        names = [ev.label]
        if isinstance(ev, Apply):
            names.append(proc)
        elif isinstance(ev, Send):
            names += [ev.msg.src, ev.msg.dst]
        unknown = [p for p in names if p not in procs]
        if unknown:
            raise TraceError(f"line {lineno}: event {ev.eid} names unknown "
                             f"processor {unknown[0]!r}")
        if isinstance(ev, Apply) and proc != ev.label:
            raise TraceError(f"line {lineno}: event {ev.eid} is labelled "
                             f"{ev.label!r} but applies on {proc!r}")
        if isinstance(ev, Receive) and not sysmodel.is_channel(procs, ev.chan):
            raise TraceError(f"line {lineno}: event {ev.eid} names unknown "
                             f"channel {ev.chan!r}")


def serialize_run(x: Execution, config: ScenarioConfig | None = None,
                  decisions=None) -> str:
    out = [_ENCODER.encode({
        "t": "header",
        "version": FORMAT_VERSION,
        "config": config.to_dict() if config is not None else None,
        "decisions": decisions,
    }), "\n"]
    row_json = {}  # id of a row list -> its JSON: the shared zero row is formatted once
    for rec in encode_state(x.initial):
        if rec["t"] != "qrow":
            out += (_ENCODER.encode(rec), "\n")
            continue
        v = rec["v"]
        if id(v) not in row_json:
            row_json[id(v)] = _ENCODER.encode(v)
        out += (_QROW_HEAD, str(rec["i"]), _QROW_MID, row_json[id(v)], "}\n")
    for ev in x.events:
        out += (_ENCODER.encode({"t": "ev", **encode_event(ev)}), "\n")
    return "".join(out)


_QROW_HEAD, _QROW_MID = '{"i": ', ', "t": "qrow", "v": '


@functools.lru_cache(maxsize=4)
def _zero_row_json(width: int) -> str:
    return json.dumps(_zero_row(width))


@functools.lru_cache(maxsize=4)
def _zero_row(width: int) -> list:
    """The all-zero row of ``width``, one list shared by every record that
    holds it; a record's row is never mutated."""
    return ["0,0"] * width


def _zero_qrow(text: str, pos: int, end: int) -> dict | None:
    """Equals ``json.loads(text[pos:end])`` or is None: the record of a line
    that is exactly ``{"i": <i>, "t": "qrow", "v": ["0,0", ..., "0,0"]}`` as
    ``json.dumps(..., sort_keys=True)`` writes it, found in place by one
    comparison with a cached all-zero row; None for any other line."""
    if not text.startswith(_QROW_HEAD, pos, end):
        return None
    head = pos + len(_QROW_HEAD)
    # i: at most 18 ASCII digits without a leading zero, so int() takes it
    k = text.find(_QROW_MID, head, min(end, head + 18 + len(_QROW_MID)))
    if k < 0:
        return None
    i = text[head:k]
    start = k + len(_QROW_MID)
    width, odd = divmod(end - 1 - start, len(', "0,0"'))
    if not (not odd and i.isascii() and i.isdigit()
            and (i == "0" or i[0] != "0") and text.startswith("}", end - 1, end)
            and text.startswith(_zero_row_json(width), start, end)):
        return None
    return {"i": int(i), "t": "qrow", "v": _zero_row(width)}


def _records(text: str):
    """(line number, record) of each line of ``text`` that is not blank,
    numbered as in ``text.splitlines()``, but for runs of all-zero rows.
    An all-zero row is matched in place by ``_zero_qrow``, and so is each
    following line that is the same line for the next row index, ended by a
    line feed: the run is one record, numbered by its first line, whose
    ``i`` is the ``range`` of its row indices.  The lines from any other
    line up to the next one that starts like a ``qrow`` are sliced with
    their last line feed and split by ``str.splitlines``, so each line
    boundary in them ends a line there."""
    lineno, pos, size = 0, 0, len(text)
    while pos < size:
        end = text.find("\n", pos)
        if end < 0:
            end = size
        d = _zero_qrow(text, pos, end)
        if d is not None:  # its bytes are fixed, so it holds no line boundary
            first = last = d["i"]
            tail = f"{_QROW_MID}{_zero_row_json(len(d['v']))}}}\n"
            pos = end + 1
            while True:  # the next row's line, ended by a line feed
                head = f"{_QROW_HEAD}{last + 1}"
                if not (text.startswith(head, pos)
                        and text.startswith(tail, pos + len(head))):
                    break
                pos += len(head) + len(tail)
                last += 1
            lineno += 1
            yield lineno, {"i": range(first, last + 1), "t": "qrow", "v": d["v"]}
            lineno += last - first
            continue
        stop = text.find("\n" + _QROW_HEAD, end) + 1 or size
        for line in text[pos:stop].splitlines():
            lineno += 1
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, long int, deep nesting
                raise TraceError(f"line {lineno}: {exc}") from exc
            yield lineno, d
        pos = stop


def parse_run(text: str):
    """Parse a trace; returns (execution, config or None, decisions or None)."""
    state_recs, events, linenos, applies_on = [], [], [], []
    header = None
    for lineno, d in _records(text):
        if type(d) is not dict:
            raise TraceError(f"line {lineno}: record is not a JSON object")
        t = d.get("t")
        if t == "header":
            if type(d.get("version")) is not int or d["version"] != FORMAT_VERSION:
                raise TraceError(f"unsupported trace version {d.get('version')}")
            if header is not None:
                raise TraceError("trace has two header records")
            header = d
        elif t == "ev":
            try:
                events.append(decode_event(d))
                linenos.append(lineno)
                applies_on.append(d.get("proc"))
            except (KeyError, TypeError, ValueError, IndexError, RecursionError,
                    qcore.QcoreError) as exc:
                raise TraceError(f"line {lineno}: bad event record: {exc}") from exc
        elif t in ("procs", "proc", "chan", "quantum", "qrow"):
            state_recs.append((lineno, d))
        else:
            raise TraceError(f"line {lineno}: unknown record type {t!r}")
    if header is None:
        raise TraceError("trace has no header")
    try:
        initial = _decode_state(state_recs)
    except (KeyError, TypeError, ValueError, IndexError,
            qcore.QcoreError, sysmodel.SysmodelError) as exc:
        raise TraceError(f"bad initial state: {exc!r}") from exc
    _check_names(initial.procs, events, linenos, applies_on)
    cfg = header.get("config")
    try:
        config = ScenarioConfig.from_dict(cfg) if cfg is not None else None
    except ConfigError as exc:
        raise TraceError(f"bad header: {exc}") from exc
    return Execution(initial, tuple(events)), config, header.get("decisions")


def serialize_certificate(cert: Certificate) -> str:
    lines = [_ENCODER.encode({
        "t": "certificate",
        "version": FORMAT_VERSION,
        "accepted": cert.accepted,
        "verdicts": cert.verdicts,
        "reason": cert.reason,
        "swaps": cert.swaps,
    })]
    for which, x in (("sorted", cert.y), ("message-ops-moved", cert.z)):
        if x is not None:
            lines.append(_ENCODER.encode(
                {"t": "order", "which": which, "eids": [e.eid for e in x.events]}))
    if cert.spec is not None:
        for ev in cert.spec.events:
            lines.append(_ENCODER.encode({"t": "spec-ev", **encode_event(ev)}))
    return "\n".join(lines) + "\n"
