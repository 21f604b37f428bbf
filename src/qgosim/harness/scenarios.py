"""Base distributed algorithms and scenario construction.

A base algorithm exposes the actions each processor can take, from its
classical state alone, and builds the corresponding event block on the
whole state; the scheduler picks among them, and the step predicate
(``qgo.AugmentedPredicate``) accepts exactly the blocks they build.  An algorithm states its rules once, in ``enabled``
and ``build``: it has no predicate of its own.
Receptions are not base actions — they are driven by the scheduler
through the marker-protocol reception handler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import qcore, qgo, sysmodel
from ..executions import Apply, ClassicalUpdate, Event, Send, register_update
from ..qcore import NO_OUTCOME, DensityMatrix, RegisterId, RegisterSpace
from ..qgo import GenContext, LocalOpSpec, choose_outcome
from ..sysmodel import MessageInstance, SystemState


class UnknownScenario(Exception):
    pass


class ConfigError(ValueError):
    """A scenario config that is not of the documented form."""


TYPE_NAMES = {str: "a string", int: "an int", bool: "a bool", dict: "a JSON object",
              list: "a list"}


def _check_record(what: str, d, types: dict, required: tuple) -> None:
    """Raise ConfigError unless ``d`` is a JSON object with the ``required``
    keys and no others than ``types`` names, each of its type (a bool is
    not an int here)."""
    if type(d) is not dict:
        raise ConfigError(f"{what} is not a JSON object")
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigError(f"{what} has unknown key {unknown[0]!r}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{what} has no {key!r}")
    for key, value in d.items():
        if type(value) is not types[key]:
            raise ConfigError(f"{what}: {key!r} is not {TYPE_NAMES[types[key]]}")


_INVOCATION_TYPES = {"gid": str, "leader": str, "after_step": int}
# Channels grow as procs squared: 256 processors have 65,536 of them.
MAX_PROCS = 256


@dataclass
class ScenarioConfig:
    base: str
    procs: int = 2
    base_params: dict = field(default_factory=dict)
    # Each entry: {"gid": ..., "leader": ..., "after_step": int}
    invocations: list = field(default_factory=list)
    policy: str = "uniform-random"
    seed: int = 0
    fairness: int = 50
    max_steps: int = 2000

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config a JSON object describes; ConfigError names the first
        unknown key or base parameter, missing ``base``, or bad field."""
        # Each field has the type of its value in a default config.
        types = {f: type(v) for f, v in cls("").to_dict().items()}
        _check_record("config", d, types, ("base",))
        cfg = cls(**d)
        if not 1 <= cfg.procs <= MAX_PROCS:
            raise ConfigError(f"config: 'procs' is not in 1..{MAX_PROCS}")
        negative = [k for k in ("seed", "fairness", "max_steps") if getattr(cfg, k) < 0]
        if negative:
            raise ConfigError(f"config: {negative[0]!r} is negative")
        base = BASE_ALGORITHMS.get(cfg.base)
        if base is not None:  # an unknown base is reported when it is built
            _check_record("base_params", cfg.base_params, base.params, ())
            negative = [k for k, v in cfg.base_params.items() if type(v) is int and v < 0]
            if negative:
                raise ConfigError(f"base_params: {negative[0]!r} is negative")
            base.check_params(cfg.base_params)
        procs = proc_names(cfg.procs)
        for i, inv in enumerate(cfg.invocations):
            _check_record(f"invocation {i}", inv, _INVOCATION_TYPES, ("gid", "leader"))
            if inv["leader"] not in procs:
                raise ConfigError(f"invocation {i}: 'leader' {inv['leader']!r} "
                                  f"is not a processor")
        return cfg


def proc_names(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


class BaseAlgorithm:
    name: str
    params: dict = {}  # each base_params key the algorithm reads, and its type

    def check_params(self, params: dict) -> None:
        """Raise ConfigError on a ``base_params`` value of the right type
        that the algorithm still cannot use."""

    def initial(self, cfg: ScenarioConfig) -> SystemState:
        raise NotImplementedError

    def enabled(self, proc: str, sigma) -> list[str]:
        """The actions ``proc`` can take when its classical state is
        ``sigma``: they depend on nothing else."""
        raise NotImplementedError

    def build(self, state: SystemState, proc: str, action: str, ctx: GenContext) -> list[Event]:
        raise NotImplementedError


def _initial(procs, sigmas: dict, quantum: DensityMatrix, ownership: dict) -> SystemState:
    """The initial state: no processor runs a global operation yet."""
    return sysmodel.initial_state(procs, sigmas, quantum, ownership,
                                  ext={p: qgo.idle_ext() for p in procs})


def _local_qubits(cfg: ScenarioConfig, procs, ids: itertools.count) -> dict:
    """``qubits_per_proc`` qubits for each processor, numbered by ``ids``, as
    an ownership map in that order, once their dimension 2**n is within the cap."""
    per_proc = int(cfg.base_params.get("qubits_per_proc", 0))
    n = per_proc * len(procs)
    if n >= qcore.DIM_CAP.bit_length():  # 2**n > cap
        shown = 2**n if n < 64 else f"at least 2**{n}"
        raise qcore.CapacityError(f"total dimension {shown} exceeds cap {qcore.DIM_CAP}")
    return {RegisterId(next(ids), 2): p for p in procs for _ in range(per_proc)}


def _is_kind(entry, kind: str) -> bool:
    return isinstance(entry[1], dict) and entry[1].get("kind") == kind


def _inbox_entries(sigma, kind: str):
    return [e for e in sigma.get("inbox", []) if _is_kind(e, kind)]


def _take_from_inbox(sigma, kind: str):
    """The first inbox entry of ``kind`` and ``sigma`` without it."""
    inbox = sigma.get("inbox", [])
    for i, entry in enumerate(inbox):
        if _is_kind(entry, kind):
            return entry, {**sigma, "inbox": inbox[:i] + inbox[i + 1:]}
    raise KeyError(f"no {kind} in inbox")


# ---------------------------------------------------------------------------
# empty: no base activity at all
# ---------------------------------------------------------------------------

class EmptyAlgorithm(BaseAlgorithm):
    name = "empty"
    params = {"qubits_per_proc": int}

    def initial(self, cfg):
        procs = proc_names(cfg.procs)
        ownership = _local_qubits(cfg, procs, itertools.count())
        quantum = DensityMatrix.basis_state(RegisterSpace(tuple(ownership)))
        return _initial(procs, {p: {"inbox": []} for p in procs}, quantum, ownership)

    def enabled(self, proc, sigma):
        return []

    def build(self, state, proc, action, ctx):
        raise UnknownScenario(f"empty algorithm has no action {action!r}")


# ---------------------------------------------------------------------------
# token ring: a classical token circulates for a bounded number of hops
# ---------------------------------------------------------------------------

@register_update("token.pass")
def _token_pass(sigma, ext, outcome, params):
    return {**sigma, "has_token": False}, ext


@register_update("token.take")
def _token_take(sigma, ext, outcome, params):
    entry, sigma = _take_from_inbox(sigma, "token")
    return {**sigma, "has_token": True, "hops": entry[1]["hops"]}, ext


class TokenRing(BaseAlgorithm):
    """p0 starts with the token; each holder passes it to the next
    processor on the ring until it has travelled ``max_hops`` hops."""

    name = "token-ring"
    params = {"max_hops": int, "epr_pair": bool, "qubits_per_proc": int}

    def initial(self, cfg):
        procs = proc_names(cfg.procs)
        max_hops = int(cfg.base_params.get("max_hops", cfg.procs))
        sigmas = {
            p: {"inbox": [], "has_token": p == "p0", "hops": 0, "max_hops": max_hops}
            for p in procs
        }
        ids = itertools.count()
        ownership = _local_qubits(cfg, procs, ids)
        epr = cfg.base_params.get("epr_pair", False) and cfg.procs >= 2
        if epr:
            ownership.update({RegisterId(next(ids), 2): p for p in ("p0", "p1")})
        space = RegisterSpace(tuple(ownership))  # checks the cap before allocating
        vec = np.zeros(space.total_dim, complex)
        if epr:  # |0..0> on local qubits, EPR on the last two registers.
            vec[0] = vec[3] = 1 / np.sqrt(2)
        else:
            vec[0] = 1.0
        quantum = DensityMatrix.from_vector(space, vec)
        return _initial(procs, sigmas, quantum, ownership)

    def enabled(self, proc, sigma):
        actions = []
        if sigma.get("has_token") and sigma["hops"] < sigma["max_hops"]:
            actions.append("pass")
        if _inbox_entries(sigma, "token"):
            actions.append("take")
        return actions

    def build(self, state, proc, action, ctx):
        sigma = state.classical[proc]
        if action == "pass":
            procs = state.procs
            dest = procs[(procs.index(proc) + 1) % len(procs)]
            msg = MessageInstance(
                msg_id=ctx.msg_id(), src=proc, dst=dest,
                classical={"kind": "token", "hops": sigma["hops"] + 1},
            )
            return [Send(eid=ctx.eid(), label=proc, msg=msg,
                         update=ClassicalUpdate("token.pass"))]
        if action == "take":
            return [Apply(eid=ctx.eid(), label=proc, name="token.take",
                          outcome=NO_OUTCOME, update=ClassicalUpdate("token.take"))]
        raise UnknownScenario(f"token ring has no action {action!r}")


# ---------------------------------------------------------------------------
# teleport: p0 teleports a data qubit to p1
# ---------------------------------------------------------------------------

@register_update("tp.sent_half")
def _tp_sent_half(sigma, ext, outcome, params):
    return {**sigma, "phase": "measure"}, ext


@register_update("tp.measured")
def _tp_measured(sigma, ext, outcome, params):
    return {**sigma, "meas": outcome, "phase": "send_fix"}, ext


@register_update("tp.sent_fix")
def _tp_sent_fix(sigma, ext, outcome, params):
    return {**sigma, "phase": "done"}, ext


@register_update("tp.got_half")
def _tp_got_half(sigma, ext, outcome, params):
    _, sigma = _take_from_inbox(sigma, "epr-half")
    return {**sigma, "phase": "wait_fix"}, ext


@register_update("tp.fixed")
def _tp_fixed(sigma, ext, outcome, params):
    _, sigma = _take_from_inbox(sigma, "fix")
    return {**sigma, "phase": "done"}, ext


_BELL_VECS = {}
for _a in (0, 1):
    for _b in (0, 1):
        v = np.zeros(4, complex)
        v[_b] = 1 / np.sqrt(2)                     # |0, b>
        v[2 + (1 - _b)] = (-1) ** _a / np.sqrt(2)  # |1, 1-b>
        _BELL_VECS[f"{_a}{_b}"] = v


def bell_measurement() -> qcore.QuantumOperation:
    kraus = {lab: (np.outer(v, v.conj()),) for lab, v in _BELL_VECS.items()}
    return qcore.QuantumOperation(tuple(sorted(kraus)), kraus, (2, 2), (2, 2))


def correction_unitary(bits: str) -> np.ndarray:
    a, b = int(bits[0]), int(bits[1])
    x, z = qcore.PAULIS["X"], qcore.PAULIS["Z"]
    return np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)


_DATA_STATE = [0.6, [0.0, 0.8]]


def _finite_real(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _data_state(amps) -> np.ndarray:
    """The data qubit's state, normalised, from its two amplitudes: each a
    finite real or a [re, im] pair of finite reals, not both zero;
    ConfigError otherwise."""
    what = "base_params: 'data_state'"
    if not (type(amps) is list and len(amps) == 2):
        raise ConfigError(f"{what} is not a list of two amplitudes")
    psi = np.zeros(2, complex)
    for i, a in enumerate(amps):
        if _finite_real(a):
            psi[i] = a
        elif type(a) is list and len(a) == 2 and all(map(_finite_real, a)):
            psi[i] = complex(a[0], a[1])
        else:
            raise ConfigError(f"{what}: amplitude {i} is not a finite real "
                              f"or a [re, im] pair of finite reals")
    if not psi.any():
        raise ConfigError(f"{what} has both amplitudes zero")
    parts = psi.view(float)  # scaled part by part, so no step overflows or underflows
    parts /= np.abs(parts).max()
    return psi / np.linalg.norm(psi)


class Teleport(BaseAlgorithm):
    """Two processors; p0 sends one half of an entangled pair, measures its
    data qubit with that pair in the Bell basis, and sends the correction
    bits; p1 applies the correction to the received half."""

    name = "teleport"
    params = {"data_state": list}

    def check_params(self, params):
        _data_state(params.get("data_state", _DATA_STATE))

    def initial(self, cfg):
        if cfg.procs != 2:
            raise UnknownScenario("teleport needs exactly 2 processors")
        d, e1, e2 = RegisterId(0, 2), RegisterId(1, 2), RegisterId(2, 2)
        psi = _data_state(cfg.base_params.get("data_state", _DATA_STATE))
        epr = np.zeros(4, complex)
        epr[0] = epr[3] = 1 / np.sqrt(2)
        vec = np.kron(psi, epr)
        quantum = DensityMatrix.from_vector(RegisterSpace((d, e1, e2)), vec)
        sigmas = {
            "p0": {"inbox": [], "phase": "send_half"},
            "p1": {"inbox": [], "phase": "wait_half"},
        }
        return _initial(("p0", "p1"), sigmas, quantum, {d: "p0", e1: "p0", e2: "p0"})

    def enabled(self, proc, sigma):
        phase = sigma.get("phase")
        if proc == "p0":
            if phase in ("send_half", "measure", "send_fix"):
                return [phase]
            return []
        if phase == "wait_half" and _inbox_entries(sigma, "epr-half"):
            return ["consume_half"]
        if phase == "wait_fix" and _inbox_entries(sigma, "fix"):
            return ["apply_fix"]
        return []

    def build(self, state, proc, action, ctx):
        sigma = state.classical[proc]
        if action == "send_half":
            regs = state.owned_by("p0")
            half = regs[-1]  # the highest-id register is the shared half
            msg = MessageInstance(
                msg_id=ctx.msg_id(), src="p0", dst="p1",
                classical={"kind": "epr-half"}, quantum_regs=(half,),
            )
            return [Send(eid=ctx.eid(), label="p0", msg=msg,
                         update=ClassicalUpdate("tp.sent_half"))]
        if action == "measure":
            regs = state.owned_by("p0")[:2]
            spec = LocalOpSpec(bell_measurement(), regs, regs)
            outcome = choose_outcome(state, spec, ctx)
            return [Apply(eid=ctx.eid(), label="p0", name="tp.bell",
                          outcome=outcome, qop=spec.qop, in_regs=regs, out_regs=regs,
                          update=ClassicalUpdate("tp.measured"))]
        if action == "send_fix":
            msg = MessageInstance(
                msg_id=ctx.msg_id(), src="p0", dst="p1",
                classical={"kind": "fix", "bits": sigma["meas"]},
            )
            return [Send(eid=ctx.eid(), label="p0", msg=msg,
                         update=ClassicalUpdate("tp.sent_fix"))]
        if action == "consume_half":
            return [Apply(eid=ctx.eid(), label="p1", name="tp.got_half",
                          outcome=NO_OUTCOME, update=ClassicalUpdate("tp.got_half"))]
        if action == "apply_fix":
            bits = _inbox_entries(sigma, "fix")[0][1]["bits"]
            regs = state.owned_by("p1")
            qop = qcore.relabel_outcomes(
                qcore.unitary_channel(correction_unitary(bits), [2]), lambda _: bits
            )
            return [Apply(eid=ctx.eid(), label="p1", name="tp.fix",
                          outcome=bits, qop=qop, in_regs=regs, out_regs=regs,
                          update=ClassicalUpdate("tp.fixed"))]
        raise UnknownScenario(f"teleport has no action {action!r}")


# ---------------------------------------------------------------------------
# ping: a fixed number of one-way classical messages, for tiny executions
# ---------------------------------------------------------------------------

@register_update("pp.sent")
def _pp_sent(sigma, ext, outcome, params):
    return {**sigma, "sent": sigma["sent"] + 1}, ext


class Ping(BaseAlgorithm):
    """p0 sends ``n_msgs`` classical messages to p1, which only receives."""

    name = "ping"
    params = {"n_msgs": int}

    def initial(self, cfg):
        procs = proc_names(cfg.procs)
        sigmas = {p: {"inbox": []} for p in procs}
        sigmas["p0"]["sent"] = 0
        sigmas["p0"]["n_msgs"] = int(cfg.base_params.get("n_msgs", 1))
        return _initial(procs, sigmas, DensityMatrix.empty(), {})

    def enabled(self, proc, sigma):
        if proc == "p0" and sigma["sent"] < sigma["n_msgs"]:
            return ["ping"]
        return []

    def build(self, state, proc, action, ctx):
        sigma = state.classical[proc]
        msg = MessageInstance(
            msg_id=ctx.msg_id(), src="p0", dst="p1",
            classical={"kind": "ping", "i": sigma["sent"]},
        )
        return [Send(eid=ctx.eid(), label="p0", msg=msg,
                     update=ClassicalUpdate("pp.sent"))]


BASE_ALGORITHMS = {
    a.name: a for a in (EmptyAlgorithm(), TokenRing(), Teleport(), Ping())
}


def build_scenario(cfg: ScenarioConfig):
    """Instantiate (initial state, base algorithm, global-op library)."""
    if cfg.base not in BASE_ALGORITHMS:
        raise UnknownScenario(f"unknown base algorithm {cfg.base!r}")
    base = BASE_ALGORITHMS[cfg.base]
    state = base.initial(cfg)
    gids = sorted({inv["gid"] for inv in cfg.invocations})
    library = qgo.global_op_library(gids)
    return state, base, library
