"""Line-delimited JSON traces for executions and verification certificates.

Complex numbers are written as "re,im" with 17 significant digits, so a
trace round-trips to bit-identical states and events.  One matrix codec,
``_matrix`` / ``_parse_matrix``, writes Kraus matrices and the rows of the
initial state: an entry whose bits are exactly +0,+0 is the string "0,0",
and only the other entries are formatted or parsed one by one.  (-0.0 is
"-0,0", so the test is on bits, not on value.)
"""

from __future__ import annotations

import json

import numpy as np

from .. import qcore, sysmodel
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
from .scenarios import ScenarioConfig

FORMAT_VERSION = 1


class TraceError(Exception):
    pass


def _c(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _parse_c(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _matrix(m: np.ndarray) -> list:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    nonzero = m.view(np.int64).reshape(*m.shape, 2).any(-1)
    out = []
    for row, mask in zip(m.tolist(), nonzero):
        enc = ["0,0"] * m.shape[1]
        for j in np.flatnonzero(mask).tolist():
            enc[j] = _c(row[j])
        out.append(enc)
    return out


def _parse_matrix(rows: list, n: int | None = None) -> np.ndarray:
    """Decode ``rows``; each must be a list of ``n`` entries (default: as
    many as the first row).  Raises ``ValueError`` naming a bad row."""
    if n is None:
        n = len(rows[0]) if rows else 0
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {i} is not a list of {n} entries")
        try:
            out.append([0j if s == "0,0" else _parse_c(s) for s in row])
        except (AttributeError, ValueError):
            raise ValueError(f'row {i} holds a value that is not "re,im"') from None
    return np.array(out, dtype=np.complex128).reshape(len(rows), n)


def _reg(r: RegisterId) -> list:
    return [r.id, r.dim]


def _parse_reg(v: list) -> RegisterId:
    return RegisterId(int(v[0]), int(v[1]))


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
    return QuantumOperation(
        tuple(d["outs"]),
        {r: tuple(_parse_matrix(k) for k in d["kraus"][r]) for r in d["outs"]},
        tuple(d["in_dims"]),
        tuple(d["out_dims"]),
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
    return MessageInstance(
        msg_id=d["id"],
        src=d["src"],
        dst=d["dst"],
        classical=d["classical"],
        quantum_regs=tuple(_parse_reg(r) for r in d["regs"]),
        marker=d.get("marker"),
        pending=d.get("pending"),
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
        return {
            "k": "atomic", "eid": ev.eid, "label": ev.label, "gid": ev.gid,
            "procs": [
                [p, _qop(q), [_reg(r) for r in i], [_reg(r) for r in o], out, _update(u)]
                for p, q, i, o, out, u in ev.proc_comps
            ],
            "msgs": [
                [m, _qop(q), [_reg(r) for r in i], [_reg(r) for r in o], out]
                for m, q, i, o, out in ev.msg_comps
            ],
        }
    raise TraceError(f"cannot encode event {ev!r}")


def decode_event(d: dict) -> Event:
    k = d["k"]
    if k == "invoke":
        return Invoke(eid=d["eid"], label=d["label"], gid=d["gid"])
    if k == "respond":
        return Respond(
            eid=d["eid"], label=d["label"], record=d["record"],
            update=_parse_update(d["update"]),
        )
    if k == "apply":
        return Apply(
            eid=d["eid"], label=d["label"], proc=d["proc"], name=d["name"],
            outcome=d["outcome"], qop=_parse_qop(d["qop"]),
            in_regs=tuple(_parse_reg(r) for r in d["in"]),
            out_regs=tuple(_parse_reg(r) for r in d["out"]),
            update=_parse_update(d["update"]), target_msg=d["target"],
            protocol=d["protocol"],
        )
    if k == "send":
        return Send(
            eid=d["eid"], label=d["label"], msg=_parse_msg(d["msg"]),
            update=_parse_update(d["update"]), protocol=d["protocol"],
        )
    if k == "receive":
        return Receive(
            eid=d["eid"], label=d["label"], chan=d["chan"], msg_id=d["msg"],
            update=_parse_update(d["update"]), protocol=d["protocol"],
        )
    raise TraceError(f"unknown event kind {k!r}")


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
    for i, row in enumerate(_matrix(state.quantum.entries)):
        recs.append({"t": "qrow", "i": i, "v": row})
    return recs


def _decode_state(recs: list[dict]) -> SystemState:
    procs, classical, ext = None, {}, {}
    channels = {}
    quantum, rows = None, {}
    for d in recs:
        t = d["t"]
        if t == "procs":
            if procs is not None:
                raise TraceError("trace has two procs records")
            procs = tuple(d["names"])
        elif t == "proc":
            name, sigma = d["name"], d["sigma"]
            if name in classical:
                raise TraceError(f"trace has two proc records for {name!r}")
            if not isinstance(sigma, dict):
                raise TraceError(f"proc record of {name!r}: sigma is not a JSON object")
            if not isinstance(sigma.get("inbox", []), list):
                raise TraceError(f"proc record of {name!r}: inbox is not a list")
            classical[name] = sigma
            ext[name] = d["ext"]
        elif t == "chan":
            channels[d["key"]] = tuple(_parse_msg(m) for m in d["msgs"])
        elif t == "quantum":
            if quantum is not None:
                raise TraceError("trace has two quantum records")
            quantum = d
        elif t == "qrow":
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
        entries = _parse_matrix([rows[i] for i in range(dim)], dim)
    except ValueError as exc:
        raise TraceError(f"bad initial state: {exc}") from None
    full_channels = {c: () for c in sysmodel.all_channels(procs)}
    full_channels.update(channels)
    state = SystemState(
        procs=procs, classical=classical, ext=ext, channels=full_channels,
        ownership={r: quantum["own"][str(r.id)] for r in regs},
        quantum=DensityMatrix(space, entries),
    )
    state.check_ownership_partition()
    return state


def serialize_run(x: Execution, config: ScenarioConfig | None = None,
                  decisions=None) -> str:
    lines = [json.dumps({
        "t": "header",
        "version": FORMAT_VERSION,
        "config": config.to_dict() if config is not None else None,
        "decisions": decisions,
    }, sort_keys=True)]
    for rec in encode_state(x.initial):
        lines.append(json.dumps(rec, sort_keys=True))
    for ev in x.events:
        lines.append(json.dumps({"t": "ev", **encode_event(ev)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_run(text: str):
    """Parse a trace; returns (execution, config or None, decisions or None)."""
    state_recs, events = [], []
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        t = d.get("t")
        if t == "header":
            if d.get("version") != FORMAT_VERSION:
                raise TraceError(f"unsupported trace version {d.get('version')}")
            header = d
        elif t == "ev":
            try:
                events.append(decode_event(d))
            except (KeyError, TypeError, ValueError) as exc:
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
    cfg = header.get("config")
    config = ScenarioConfig.from_dict(cfg) if cfg else None
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
