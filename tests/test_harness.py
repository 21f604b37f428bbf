import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgosim import causality, executions, qcore, qgo, sysmodel, verifier
from qgosim.harness import cli, scheduler, traceio
from qgosim.harness.scenarios import (
    BASE_ALGORITHMS,
    MAX_PROCS,
    ConfigError,
    ScenarioConfig,
    build_scenario,
    correction_unitary,
    bell_measurement,
    proc_names,
)
from qgosim.harness.scheduler import SchedulerError, run_simulation
from dense import dense
from test_executions import PURITY_CORPUS, batch_small
from test_qcore import trace_preserving
from test_verifier import (
    FORGED_IN_FLIGHT, FORGED_IN_FLIGHT_CASES, REFUSED_ATOMIC_STEPS, SNAPSHOT_RING,
    break_steps_after_the_replay, forged_apply_in_flight, in_flight_refusal, trace_text,
)


class TestScenarios:
    def test_token_ring_terminates_with_hops(self):
        cfg = ScenarioConfig(base="token-ring", procs=3,
                             base_params={"max_hops": 4}, seed=0)
        res = run_simulation(cfg)
        holders = [p for p in res.final_state.procs
                   if res.final_state.classical[p]["has_token"]]
        assert len(holders) == 1
        assert res.final_state.classical[holders[0]]["hops"] == 4
        # 4 hops on a 3-ring: the token ends one past its start
        assert holders[0] == "p1"

    def test_teleport_transfers_the_data_state(self):
        # the receiver ends up with the data qubit regardless of the
        # sampled Bell outcome
        for seed in range(8):
            cfg = ScenarioConfig(base="teleport", procs=2, seed=seed)
            res = run_simulation(cfg)
            st = res.final_state
            assert st.classical["p0"]["phase"] == "done"
            assert st.classical["p1"]["phase"] == "done"
            (reg,) = st.owned_by("p1")
            others = [r for r in st.quantum.space.registers if r != reg]
            reduced = qcore.partial_trace(st.quantum, others)
            rho = dense(reduced) / dense(reduced).trace()
            psi = np.array([0.6, 0.8j])
            assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-9)

    def test_bell_measurement_is_valid_operation(self):
        assert trace_preserving(bell_measurement())

    def test_correction_unitaries(self):
        # teleporting |b> with Bell outcome ab needs X^b then Z^a
        for bits in ("00", "01", "10", "11"):
            u = correction_unitary(bits)
            assert np.allclose(u @ u.conj().T, np.eye(2))

    def test_empty_algorithm_quiesces_immediately(self):
        cfg = ScenarioConfig(base="empty", procs=2,
                             base_params={"qubits_per_proc": 1}, seed=0)
        res = run_simulation(cfg)
        assert res.execution.events == ()

    def test_config_round_trips_through_its_dict(self):
        cfg = ScenarioConfig(base="ping", procs=3, base_params={"n_msgs": 2},
                             invocations=[{"gid": "record-only", "leader": "p0",
                                           "after_step": 1}], seed=4)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("d, message", [
        ([], "config is not a JSON object"),
        ({"base": "ping", "seed": True}, "config: 'seed' is not an int"),
        ({"base": "ping", "base_params": []}, "config: 'base_params' is not a JSON object"),
        ({"base": "ping", "invocations": {}}, "config: 'invocations' is not a list"),
        ({"base": "ping", "invocations": ["record-only"]},
         "invocation 0 is not a JSON object"),
        ({"base": "ping", "invocations": [{"gid": "record-only"}]},
         "invocation 0 has no 'leader'"),
        ({"base": "ping", "invocations": [{"gid": "record-only", "leader": "p0",
                                           "after": 1}]},
         "invocation 0 has unknown key 'after'"),
        ({"base": "token-ring", "procs": 0}, f"config: 'procs' is not in 1..{MAX_PROCS}"),
        ({"base": "empty", "procs": MAX_PROCS + 1},
         f"config: 'procs' is not in 1..{MAX_PROCS}"),
        ({"base": "ping", "seed": -1}, "config: 'seed' is negative"),
        ({"base": "ping", "fairness": -3}, "config: 'fairness' is negative"),
        ({"base": "ping", "max_steps": -1}, "config: 'max_steps' is negative"),
        ({"base": "token-ring", "procs": 2, "base_params": {"qubit_per_proc": 2}},
         "base_params has unknown key 'qubit_per_proc'"),
        ({"base": "token-ring", "base_params": {"max_hops": "x"}},
         "base_params: 'max_hops' is not an int"),
        ({"base": "token-ring", "base_params": {"epr_pair": 1}},
         "base_params: 'epr_pair' is not a bool"),
        ({"base": "teleport", "base_params": {"n_msgs": 2}},
         "base_params has unknown key 'n_msgs'"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": [1]}},
         "base_params: 'data_state' is not a list of two amplitudes"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": [0, 0]}},
         "base_params: 'data_state' has both amplitudes zero"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": ["a", 1]}},
         "base_params: 'data_state': amplitude 0 is not a finite real or a [re, im] "
         "pair of finite reals"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": [1, [0, True]]}},
         "base_params: 'data_state': amplitude 1 is not a finite real or a [re, im] "
         "pair of finite reals"),
        ({"base": "teleport", "procs": 2,
          "base_params": {"data_state": [float("nan"), 1]}},
         "base_params: 'data_state': amplitude 0 is not a finite real or a [re, im] "
         "pair of finite reals"),
    ], ids=["not-object", "bool-seed", "params-list", "invocations-object",
            "invocation-string", "no-leader", "invocation-key", "no-procs",
            "too-many-procs", "negative-seed", "negative-fairness", "negative-max-steps",
            "misspelt-param", "param-string",
            "param-not-bool", "param-of-another-base",
            "data-state-one-amplitude", "data-state-zero", "data-state-string",
            "data-state-bool", "data-state-nan"])
    def test_malformed_config_rejected(self, d, message):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert str(exc.value) == message

    @pytest.mark.parametrize("amps", [[1e308, 1e308], [[1.7e308, -1.7e308], 1e-320],
                                      [5e-324, 0], [[0, 5e-324], [5e-324, 0]]])
    def test_extreme_data_state_amplitudes_normalise(self, amps):
        cfg = ScenarioConfig.from_dict(
            {"base": "teleport", "procs": 2, "base_params": {"data_state": amps}})
        rho = build_scenario(cfg)[0].quantum
        assert np.isfinite(dense(rho)).all()
        assert abs(rho.trace - 1) < 1e-12

    def test_scheduled_invocation_runs_even_without_base_activity(self):
        cfg = ScenarioConfig(
            base="empty", procs=2, base_params={"qubits_per_proc": 1},
            invocations=[{"gid": "snapshot-measure", "leader": "p0",
                          "after_step": 10}],
            seed=0,
        )
        res = run_simulation(cfg)
        assert any(isinstance(e, executions.Invoke) for e in res.execution.events)
        assert verifier.verify(res.execution).accepted


class TestScheduler:
    def cfg(self, **kw):
        base = dict(base="token-ring", procs=2,
                    base_params={"max_hops": 3, "epr_pair": True},
                    invocations=[{"gid": "record-only", "leader": "p0",
                                  "after_step": 2}],
                    seed=12)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_same_seed_same_run(self):
        cfg = self.cfg()
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        t1 = traceio.serialize_run(a.execution, cfg, a.decisions)
        t2 = traceio.serialize_run(b.execution, cfg, b.decisions)
        assert t1 == t2

    def test_different_seeds_diverge(self):
        a = run_simulation(self.cfg(seed=1))
        b = run_simulation(self.cfg(seed=2))
        assert a.decisions != b.decisions

    def test_all_policies_verify(self):
        for policy in ("uniform-random", "round-robin", "channel-delay-biased"):
            res = run_simulation(self.cfg(policy=policy))
            assert verifier.verify(res.execution).accepted, policy

    def test_replay_policy_reproduces_run(self):
        res = run_simulation(self.cfg())
        cfg = self.cfg(policy="replay")
        again = run_simulation(cfg, res.decisions)
        assert [e.eid for e in again.execution.events] == \
            [e.eid for e in res.execution.events]

    def test_replay_rejects_bad_script(self):
        cfg = self.cfg(policy="replay")
        with pytest.raises(SchedulerError):
            run_simulation(cfg, [["recv", "p0->p1"]])

    def test_replay_refuses_a_script_that_ends_early(self):
        res = run_simulation(self.cfg())
        with pytest.raises(SchedulerError, match="^recorded decisions exhausted$"):
            run_simulation(self.cfg(policy="replay"), res.decisions[:-1])

    def test_unknown_policy(self):
        with pytest.raises(SchedulerError):
            run_simulation(self.cfg(policy="lifo"))

    def test_reused_message_id_refused(self, monkeypatch):
        class ForgedPing(type(BASE_ALGORITHMS["ping"])):
            """Ping whose every message carries the same forged id."""
            name = "forged-ping"

            def build(self, state, proc, action, ctx):
                (send,) = super().build(state, proc, action, ctx)
                return [dataclasses.replace(
                    send, msg=dataclasses.replace(send.msg, msg_id=7))]

        monkeypatch.setitem(BASE_ALGORITHMS, "forged-ping", ForgedPing())
        cfg = ScenarioConfig(base="forged-ping", procs=2, base_params={"n_msgs": 2})
        with pytest.raises(SchedulerError, match="message id 7 reused"):
            run_simulation(cfg)


# The scheduler's reference: the enabled actions and the fairness counters
# enumerated again from the whole state at every step.  The scheduler keeps
# them up to date block by block, and must offer the same lists.

def reference_enabled_actions(state, base, next_inv, cfg, steps):
    """Every non-empty channel's receive by sorted channel, every
    processor's base actions by sorted processor, then the next invocation
    once every processor is idle and its step has come (or nothing else is
    enabled)."""
    actions = [("recv", c) for c in sorted(state.channels) if state.channels[c]]
    for proc in sorted(state.procs):
        actions += [("base", proc, a) for a in base.enabled(proc, state.classical[proc])]
    if next_inv < len(cfg.invocations):
        idle = all(not qgo.is_active(state.ext[p]) for p in state.procs)
        after = int(cfg.invocations[next_inv].get("after_step", 0))
        if idle and (steps >= after or not actions):
            actions.append(("invoke", next_inv))
    return actions


def reference_run(cfg, decisions=None):
    """``run_simulation`` on the reference enumeration: its decisions and
    serialized run, or None and the SchedulerError's message; and the
    number of steps at which a receive was forced."""
    state, base, library = build_scenario(cfg)
    initial = state
    sched_seed, outcome_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    policy = scheduler._Policy(cfg, np.random.default_rng(sched_seed), decisions)
    ctx = qgo.GenContext(np.random.default_rng(outcome_seed))
    events, chosen, seen_ids = [], [], initial.message_ids()
    next_inv, starved, forced = 0, {}, 0
    try:
        for steps in range(cfg.max_steps):
            actions = reference_enabled_actions(state, base, next_inv, cfg, steps)
            if not actions:
                break
            # A receive left enabled for more than ``fairness`` steps is forced.
            recvs = [a for a in actions if a[0] == "recv"]
            starved = {a: starved.get(a, 0) + 1 for a in recvs}
            overdue = [a for a in recvs if starved[a] > cfg.fairness]
            forced += bool(overdue)
            pick = policy.choose(overdue or actions)
            starved.pop(pick, None)
            chosen.append(list(pick))
            block = scheduler._build(state, pick, cfg, base, library, ctx)
            next_inv += pick[0] == "invoke"
            try:
                for ev in block:
                    state = executions.checked_step(state, ev, seen_ids, executions.step)
            except sysmodel.SysmodelError as exc:
                raise SchedulerError(f"step {steps}: {exc}") from exc
            events.extend(block)
        else:
            raise SchedulerError(f"no quiescence within {cfg.max_steps} steps")
        if next_inv < len(cfg.invocations):
            raise SchedulerError("scenario quiesced before all invocations ran")
    except SchedulerError as exc:
        return None, str(exc), forced
    x = executions.Execution(initial, tuple(events))
    return chosen, traceio.serialize_run(x, cfg, chosen), forced


def scheduled_run(cfg, decisions=None):
    """``run_simulation``'s decisions and serialized run, or None and its
    SchedulerError's message."""
    try:
        res = run_simulation(cfg, decisions)
    except SchedulerError as exc:
        return None, str(exc)
    return res.decisions, traceio.serialize_run(res.execution, cfg, res.decisions)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _inv(gid, leader, after_step):
    return {"gid": gid, "leader": leader, "after_step": after_step}


# One small config per base algorithm, each with two invocations.
ORACLE_CONFIGS = {
    "token-ring": dict(base="token-ring", procs=4, base_params={"max_hops": 8},
                       invocations=[_inv("record-only", "p0", 2),
                                    _inv("record-only", "p2", 9)]),
    "token-ring-epr": dict(base="token-ring", procs=2,
                           base_params={"epr_pair": True, "max_hops": 6},
                           invocations=[_inv("snapshot-measure", "p0", 2),
                                        _inv("global-encrypt", "p1", 6)]),
    "teleport": dict(base="teleport", procs=2,
                     invocations=[_inv("snapshot-measure", "p1", 1),
                                  _inv("global-encrypt", "p0", 3)]),
    "ping": dict(base="ping", procs=3, base_params={"n_msgs": 6},
                 invocations=[_inv("record-only", "p2", 2),
                              _inv("snapshot-measure", "p1", 5)]),
    "empty": dict(base="empty", procs=3, base_params={"qubits_per_proc": 1},
                  invocations=[_inv("snapshot-measure", "p1", 0),
                               _inv("record-only", "p0", 0)]),
}
POLICIES = ("uniform-random", "round-robin", "channel-delay-biased")


def assert_scheduler_matches_reference(cfg_dict) -> int:
    """The scheduler and the reference make the same decisions and the same
    trace, under the config's policy and then replaying its decisions; the
    number of steps at which a receive was forced."""
    cfg = ScenarioConfig.from_dict(cfg_dict)
    decisions, text, forced = reference_run(cfg)
    ours = scheduled_run(cfg)
    # Decisions first, and traces by digest: a diff of two long traces
    # takes minutes to print.
    assert ours[0] == decisions
    assert digest(ours[1]) == digest(text)
    if decisions is not None:
        replay = ScenarioConfig.from_dict({**cfg_dict, "policy": "replay"})
        ours, (ref_decisions, ref_text, _) = \
            scheduled_run(replay, decisions), reference_run(replay, decisions)
        assert ours[0] == ref_decisions == decisions
        assert digest(ours[1]) == digest(ref_text)
    return forced


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(sorted(ORACLE_CONFIGS)), policy=st.sampled_from(POLICIES),
       fairness=st.sampled_from([1, 2, 3, 50]), seed=st.integers(0, 2**32 - 1))
def test_scheduler_matches_the_reference_enumeration(base, policy, fairness, seed):
    assert_scheduler_matches_reference(
        {**ORACLE_CONFIGS[base], "policy": policy, "fairness": fairness, "seed": seed})


@pytest.mark.parametrize("policy", POLICIES)
def test_scheduler_forces_an_overdue_receive_as_the_reference_does(policy):
    # Four processors flood 16 channels with markers, twice: with fairness
    # 1 a receive waits at most one step before the policy must take it.
    cfg = {**ORACLE_CONFIGS["token-ring"], "policy": policy, "fairness": 1, "seed": 4}
    assert assert_scheduler_matches_reference(cfg) > 0


class TestTraceIO:
    def any_run(self, seed=0, gid="snapshot-measure"):
        """A generated teleport run and its config."""
        cfg = ScenarioConfig(
            base="teleport", procs=2,
            invocations=[{"gid": gid, "leader": "p1", "after_step": 1}],
            seed=seed,
        )
        return run_simulation(cfg), cfg

    def test_roundtrip_is_byte_identical(self):
        res, cfg = self.any_run()
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
        x, cfg, dec = traceio.parse_run(text)
        assert traceio.serialize_run(x, cfg, dec) == text

    def test_roundtrip_replays_identically(self):
        res, cfg = self.any_run(seed=3, gid="global-encrypt")
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
        x, _, _ = traceio.parse_run(text)
        a = executions.replay(res.execution)[-1]
        b = executions.replay(x)[-1]
        assert a.quantum.space.registers == b.quantum.space.registers
        assert sysmodel.states_equal(a, b, 0.0)

    def test_empty_chan_record_is_no_queue(self):
        """An explicit empty queue parses to the state without it, so the
        trace verifies as the one without that record.  Receiving p0's
        marker to itself deletes the queue of p0->p0, and the specification
        never sends on it, so a state that kept the empty queue would end
        unlike the specification's."""
        cfg = ScenarioConfig(
            base="token-ring", procs=2, base_params={"epr_pair": True, "max_hops": 6},
            invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
            seed=7)
        text = trace_text(cfg)
        lines = text.splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if json.loads(line)["t"] == "quantum")
        lines.insert(k, '{"key": "p0->p0", "msgs": [], "t": "chan"}\n')
        x, cfg_x, dec = traceio.parse_run("".join(lines))
        assert x.initial.channels == {}
        assert traceio.serialize_run(x, cfg_x, dec) == text
        certificate = traceio.serialize_certificate(verifier.verify(x))
        assert certificate == traceio.serialize_certificate(
            verifier.verify(traceio.parse_run(text)[0]))
        assert '"accepted": true' in certificate

    def test_malformed_trace_rejected(self):
        with pytest.raises(traceio.TraceError):
            traceio.parse_run("not json\n")
        with pytest.raises(traceio.TraceError, match="^trace has no header$"):
            traceio.parse_run('{"eid": 0, "gid": "g", "k": "invoke", "label": "p0", "t": "ev"}\n')

    @pytest.mark.parametrize("cfg", PURITY_CORPUS[:2], ids=["scenario-a", "teleport"])
    def test_apply_labelled_with_another_processor_is_refused(self, cfg):
        """Every Apply, of the base algorithm and of the protocol alike,
        relabelled to each other processor.  ``step`` changes the state of
        its ``proc``, but ``causality`` orders it on its label's chain, so
        the record is refused where it is read."""
        cfg = ScenarioConfig.from_dict(cfg)
        lines = trace_text(cfg).splitlines()
        refused = set()
        for k, line in enumerate(lines):
            rec = json.loads(line)
            for other in proc_names(cfg.procs) if rec.get("k") == "apply" else ():
                if other == rec["label"]:
                    continue
                forged = lines[:k] + [json.dumps({**rec, "label": other})] + lines[k + 1:]
                with pytest.raises(traceio.TraceError) as err:
                    traceio.parse_run("\n".join(forged) + "\n")
                assert str(err.value) == (f"line {k + 1}: event {rec['eid']} is labelled "
                                          f"{other!r} but applies on {rec['proc']!r}")
                refused.add(rec["protocol"])
        assert refused == {False, True}

    def test_initial_state_with_messages_in_flight(self):
        """A ping run taken up after both of p0's Sends: its initial state
        holds both messages in flight, in one ``chan`` record."""
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 2}, seed=0)
        x = run_simulation(cfg).execution
        assert [type(e) for e in x.events[:2]] == [executions.Send] * 2
        text = traceio.serialize_run(executions.Execution(executions.replay(x)[2],
                                                          x.events[2:]))
        chans = [d for d in map(json.loads, text.splitlines()) if d["t"] == "chan"]
        assert [(d["key"], len(d["msgs"])) for d in chans] == [("p0->p1", 2)]
        parsed, _, _ = traceio.parse_run(text)
        assert traceio.serialize_run(parsed) == text
        assert verifier.verify(parsed).accepted

    def test_certificate_serializes(self):
        res, _ = self.any_run()
        cert = verifier.verify(res.execution)
        text = traceio.serialize_certificate(cert)
        head = json.loads(text.splitlines()[0])
        assert head["accepted"] is True
        assert head["verdicts"]["spec-replay"] is True


# Token ring of 7 processors with 2 qubits each: D = 2**14, over the default cap.
OVER_DIM_CAP = {"base": "token-ring", "procs": 7, "base_params": {"qubits_per_proc": 2}}


@pytest.mark.parametrize("config, error", [
    ({"base": "empty", "procs": 2, "base_params": {"qubits_per_proc": 40000}},
     qcore.CapacityError),
    ({"base": "empty", "procs": MAX_PROCS + 1}, ConfigError),
], ids=["qubits", "procs"])
def test_oversized_config_is_refused_before_allocating(config, error):
    """Too many qubits or processors are refused before a register, a
    processor name or a channel is built.  Building the 80,000 registers
    first peaks at about 20 MB traced; the 66,049 channels of 257
    processors at about 7 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            run_simulation(ScenarioConfig.from_dict(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "qgosim.harness.cli", *args],
            capture_output=True, text=True,
        )

    def test_run_verify_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "base": "token-ring", "procs": 2,
            "base_params": {"max_hops": 3, "epr_pair": True},
            "invocations": [{"gid": "snapshot-measure", "leader": "p0",
                             "after_step": 2}],
            "seed": 3,
        }))
        trace = tmp_path / "t.jsonl"
        r = self.run_cli("run", "--config", str(cfg), "--out", str(trace))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 0
        assert "accepted" in r.stdout

    def test_verify_rejects_tampered_trace(self, tmp_path):
        cfg = ScenarioConfig(
            base="ping", procs=2, base_params={"n_msgs": 1},
            invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}],
            seed=0,
        )
        res = run_simulation(cfg)
        drop = next(e for e in res.execution.events
                    if isinstance(e, executions.Send) and e.protocol)
        bad = executions.Execution(
            res.execution.initial,
            tuple(e for e in res.execution.events if e is not drop),
        )
        trace = tmp_path / "bad.jsonl"
        trace.write_text(traceio.serialize_run(bad, cfg, None))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1

    def test_trace_without_procs_record_exits_2(self, tmp_path):
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 1}, seed=0)
        res = run_simulation(cfg)
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
        trace = tmp_path / "noprocs.jsonl"
        trace.write_text("".join(l for l in text.splitlines(keepends=True)
                                 if '"t": "procs"' not in l))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip() == "error: trace has no procs record"

    def test_atomic_record_in_run_trace_exits_2(self, tmp_path):
        cfg = ScenarioConfig(
            base="ping", procs=2, base_params={"n_msgs": 1},
            invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}],
            seed=0,
        )
        res = run_simulation(cfg)
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
        atomic = executions.AtomicExecute(eid=999, label="p0", gid="record-only")
        trace = tmp_path / "atomic.jsonl"
        trace.write_text(text + json.dumps(
            {"t": "ev", **traceio.encode_event(atomic)}, sort_keys=True) + "\n")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip() == "error: unknown event kind 'atomic'"

    @staticmethod
    def _ping_trace_lines():
        cfg = ScenarioConfig(
            base="ping", procs=2, base_params={"n_msgs": 1},
            invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}],
            seed=0,
        )
        res = run_simulation(cfg)
        return traceio.serialize_run(res.execution, cfg, res.decisions).splitlines()

    def assert_refused_at_line(self, tmp_path, lines, message):
        trace = tmp_path / "pending.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip() == message

    def test_send_with_forged_pending_outcome_rejected(self, tmp_path):
        lines = self._ping_trace_lines()
        k = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("k") == "send"
                 and not json.loads(line)["protocol"])
        rec = json.loads(lines[k])
        rec["msg"]["pending"] = "forged"
        lines[k] = json.dumps(rec, sort_keys=True)
        self.assert_refused_at_line(
            tmp_path, lines, f"error: line {k + 1}: bad event record: message "
                             f"{rec['msg']['id']} carries a pending outcome")

    def test_message_in_flight_with_forged_pending_outcome_rejected(self, tmp_path):
        """The same refusal for a message of a ``chan`` record in the initial state."""
        lines = self._ping_trace_lines()
        msg = {"id": 99, "src": "p0", "dst": "p1", "classical": None,
               "regs": [], "marker": None, "pending": "forged"}
        lines.insert(1, json.dumps({"t": "chan", "key": "p0->p1", "msgs": [msg]}))
        self.assert_refused_at_line(
            tmp_path, lines, "error: line 2: bad chan record: message 99 carries "
                             "a pending outcome")

    @staticmethod
    def _reuse_message_id(text):
        """``text`` with the first message sent after a reception renamed,
        wherever an event names it, to the id of the message received."""
        recs = [json.loads(line) for line in text.splitlines()]
        evs = [d for d in recs if d["t"] == "ev"]
        first = next(i for i, d in enumerate(evs) if d["k"] == "receive")
        reused = evs[first]["msg"]
        later = next(d["msg"]["id"] for d in evs[first:] if d["k"] == "send")
        for d in evs:
            if d["k"] == "send" and d["msg"]["id"] == later:
                d["msg"]["id"] = reused
            elif d["k"] == "receive" and d["msg"] == later:
                d["msg"] = reused
            elif d["k"] == "apply" and d["target"] == later:
                d["target"] = reused
        return "".join(json.dumps(d, sort_keys=True) + "\n" for d in recs), reused

    def test_reused_message_id_exits_1(self, tmp_path):
        cfg = ScenarioConfig(
            base="ping", procs=2, base_params={"n_msgs": 2},
            invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}],
            seed=1,
        )
        text, reused = self._reuse_message_id(trace_text(cfg))
        trace = tmp_path / "reused.jsonl"
        trace.write_text(text)
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert "well-formed: FAIL" in r.stdout
        (reason,) = [l for l in r.stdout.splitlines() if l.startswith("rejected:")]
        assert f"message id {reused} reused" in reason

    @staticmethod
    def _epr_run():
        cfg = ScenarioConfig(base="token-ring", procs=2,
                             base_params={"max_hops": 3, "epr_pair": True}, seed=0)
        res = run_simulation(cfg)
        return res.execution, cfg, res.decisions

    def epr_trace_records(self):
        text = traceio.serialize_run(*self._epr_run())
        return [json.loads(line) for line in text.splitlines()]

    @staticmethod
    def _drop_quantum(recs):
        return [d for d in recs if d["t"] != "quantum"]

    @staticmethod
    def _bad_qrow_value(recs):
        next(d for d in recs if d["t"] == "qrow")["v"][0] = "2 0"
        return recs

    @staticmethod
    def _bool_row_index(recs):
        next(d for d in recs if d["t"] == "qrow" and d["i"] == 1)["i"] = True
        return recs

    @staticmethod
    def _float_row_index(recs):
        next(d for d in recs if d["t"] == "qrow" and d["i"] == 1)["i"] = 1.0
        return recs

    @staticmethod
    def _drop_row(recs):
        return [d for d in recs if not (d["t"] == "qrow" and d["i"] == 1)]

    @staticmethod
    def _unowned_register(recs):
        del next(d for d in recs if d["t"] == "quantum")["own"]["1"]
        return recs

    @staticmethod
    def _owner_of_no_register(recs):
        """An owner for register 77, which the state does not hold; the
        parser dropped it, so the trace verified and re-serialized without it."""
        next(d for d in recs if d["t"] == "quantum")["own"]["77"] = "p0"
        return recs

    @staticmethod
    def _repeated_procs(recs):
        return recs + [{"t": "procs", "names": ["p1", "p0"]}]

    @staticmethod
    def _repeated_header(recs):
        """A later header would win: the trace would parse with seed 999."""
        header = next(d for d in recs if d["t"] == "header")
        return recs + [{**header, "config": {**header["config"], "seed": 999}}]

    @staticmethod
    def _repeated_quantum(recs):
        quantum = next(d for d in recs if d["t"] == "quantum")
        return recs + [{**quantum, "own": {"0": "p1", "1": "p0"}}]

    @staticmethod
    def _stray_row(recs):
        row = next(d for d in recs if d["t"] == "qrow")
        return recs + [{**row, "i": 99}]

    @staticmethod
    def _repeated_row(recs):
        row = next(d for d in recs if d["t"] == "qrow" and d["i"] == 3)
        return recs + [{**row, "v": ["1,0"] * 4}]

    @staticmethod
    def _short_row(recs):
        next(d for d in recs if d["t"] == "qrow" and d["i"] == 2)["v"].pop()
        return recs

    @staticmethod
    def _indefinite_state(recs):
        # Hermitian with trace 1, but eigenvalues {2, -1, 0, 0}
        for d in recs:
            if d["t"] == "qrow":
                d["v"] = ["0,0"] * 4
                d["v"][d["i"]] = {0: "2,0", 1: "-1,0"}.get(d["i"], "0,0")
        return recs

    @staticmethod
    def _sigma_not_object(recs):
        next(d for d in recs if d["t"] == "proc" and d["name"] == "p1")["sigma"] = ["inbox"]
        return recs

    @staticmethod
    def _inbox_not_list(recs):
        next(d for d in recs if d["t"] == "proc" and d["name"] == "p1")["sigma"]["inbox"] = {}
        return recs

    @staticmethod
    def _repeated_proc(recs):
        proc = next(d for d in recs if d["t"] == "proc" and d["name"] == "p0")
        return recs + [{**proc, "sigma": {"inbox": [], "has_token": False}}]

    @staticmethod
    def _unknown_proc(recs):
        proc = next(d for d in recs if d["t"] == "proc" and d["name"] == "p0")
        return recs + [{**proc, "name": "p9"}]

    @staticmethod
    def _drop_proc(recs):
        return [d for d in recs if not (d["t"] == "proc" and d["name"] == "p1")]

    @staticmethod
    def _ext_not_register(recs):
        next(d for d in recs if d["t"] == "proc" and d["name"] == "p1")["ext"] = [1]
        return recs

    @staticmethod
    def _ext_res_list(recs):
        next(d for d in recs if d["t"] == "proc" and d["name"] == "p1")["ext"]["res"] = []
        return recs

    @staticmethod
    def _message_register_owned_by_proc(recs):
        msg = {"id": 99, "src": "p0", "dst": "p1", "classical": None,
               "regs": [[0, 2]], "marker": None, "pending": None}
        k = next(i for i, d in enumerate(recs) if d["t"] == "quantum")
        return recs[:k] + [{"t": "chan", "key": "p0->p1", "msgs": [msg]}] + recs[k:]

    @staticmethod
    def _processor_named_like_a_message(recs):
        """p1 renamed msg:0 everywhere, its events and channels included."""
        return json.loads(json.dumps(recs).replace("p1", "msg:0"))

    @staticmethod
    def _ghost_owner(recs):
        next(d for d in recs if d["t"] == "quantum")["own"]["1"] = "ghost"
        return recs

    @staticmethod
    def _message_on_unknown_channel(recs):
        msg = {"id": 99, "src": "p0", "dst": "p9", "classical": None,
               "regs": [], "marker": None, "pending": None}
        return recs + [{"t": "chan", "key": "p0->p9", "msgs": [msg]}]

    @staticmethod
    def _message_of_another_channel(recs):
        msg = {"id": 99, "src": "p1", "dst": "p0", "classical": None,
               "regs": [], "marker": None, "pending": None}
        return recs + [{"t": "chan", "key": "p0->p1", "msgs": [msg]}]

    @staticmethod
    def _repeated_proc_name(recs):
        next(d for d in recs if d["t"] == "procs")["names"] = ["p0", "p1", "p0"]
        return recs

    @staticmethod
    def _too_many_procs(recs):
        """Refused at the procs record, before its channels (procs squared) are built."""
        names = [f"p{i}" for i in range(MAX_PROCS + 1)]
        next(d for d in recs if d["t"] == "procs")["names"] = names
        return recs

    @staticmethod
    def _bool_version(recs):
        """True == 1, the format's version."""
        next(d for d in recs if d["t"] == "header")["version"] = True
        return recs

    @staticmethod
    def _ping_records():
        """The records of a 2-proc ping trace, which holds no register."""
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 1}, seed=0)
        return [json.loads(line) for line in trace_text(cfg).splitlines()]

    @classmethod
    def _ping_quantum_record(cls, field, value):
        """The ping config's records with one field of the quantum record
        set to ``value``."""
        recs = cls._ping_records()
        next(d for d in recs if d["t"] == "quantum")[field] = value
        return recs

    @classmethod
    def _repeated_chan(cls, recs):
        """Message 900 in flight on p0->p1, then an empty p0->p1 record: a
        later record would win, and the trace would parse with no message
        in flight."""
        recs = cls._ping_records()
        msg = {"id": 900, "src": "p0", "dst": "p1", "classical": None,
               "regs": [], "marker": None, "pending": None}
        k = next(i for i, d in enumerate(recs) if d["t"] == "quantum")
        return recs[:k] + [{"t": "chan", "key": "p0->p1", "msgs": [msg]},
                           {"t": "chan", "key": "p0->p1", "msgs": []}] + recs[k:]

    @classmethod
    def _regs_empty_string(cls, recs):
        return cls._ping_quantum_record("regs", "")

    @classmethod
    def _regs_empty_object(cls, recs):
        return cls._ping_quantum_record("regs", {})

    @classmethod
    def _null_owners_of_no_register(cls, recs):
        return cls._ping_quantum_record("own", None)

    @pytest.mark.parametrize("mutate, message", [
        ("_bool_version", "error: unsupported trace version True"),
        ("_regs_empty_string", "error: bad initial state: ValueError(\"'regs' is not a list\")"),
        ("_regs_empty_object", "error: bad initial state: ValueError(\"'regs' is not a list\")"),
        ("_null_owners_of_no_register", "error: bad initial state: ValueError(\"'own' is "
                                        "not a JSON object\")"),
        ("_drop_quantum", "error: trace has no quantum record"),
        ("_repeated_procs", "error: trace has two procs records"),
        ("_repeated_header", "error: trace has two header records"),
        ("_repeated_chan", "error: trace has two chan records for 'p0->p1'"),
        ("_repeated_quantum", "error: trace has two quantum records"),
        ("_bad_qrow_value", 'error: bad initial state: row 0 holds a value that is not "re,im"'),
        ("_bool_row_index", "error: bad initial state: row index True is not an int"),
        ("_float_row_index", "error: bad initial state: row index 1.0 is not an int"),
        ("_drop_row", "error: quantum state has no row 1"),
        ("_stray_row", "error: bad initial state: row 99 is outside 0..3"),
        ("_repeated_row", "error: bad initial state: row 3 is repeated"),
        ("_short_row", "error: bad initial state: row 2 is not a list of 4 entries"),
        ("_indefinite_state", "error: bad initial state: ShapeError('matrix has eigenvalue -1"),
        ("_unowned_register", "error: register 1 has no owner"),
        ("_owner_of_no_register", "error: register 77 has an owner but is not in the state"),
        ("_message_register_owned_by_proc", "error: bad initial state: OwnershipViolation("),
        ("_processor_named_like_a_message", "error: bad initial state: OwnershipViolation("
                                            "\"processor 'msg:0' is named like a message\")"),
        ("_ghost_owner", "error: bad initial state: OwnershipViolation(\"register "
                         "RegisterId(id=1, dim=2) owned by 'ghost', neither a processor nor "
                         "a message that carries it\")"),
        ("_sigma_not_object", "error: proc record of 'p1': sigma is not a JSON object"),
        ("_inbox_not_list", "error: proc record of 'p1': inbox is not a list"),
        ("_repeated_proc", "error: trace has two proc records for 'p0'"),
        ("_unknown_proc", "error: proc record names unknown processor 'p9'"),
        ("_drop_proc", "error: trace has no proc record for 'p1'"),
        ("_ext_not_register", "error: proc record of 'p1': ext is neither null nor an "
                              "idle protocol register"),
        ("_ext_res_list", "error: proc record of 'p1': ext is neither null nor an "
                          "idle protocol register"),
        ("_message_on_unknown_channel", "error: chan record names unknown channel "
                                        "'p0->p9'"),
        ("_message_of_another_channel", "error: chan record of 'p0->p1' holds message "
                                        "99 of another channel"),
        ("_repeated_proc_name", f"error: procs record: names are not up to {MAX_PROCS} "
                                "distinct strings without '->'"),
        ("_too_many_procs", f"error: procs record: names are not up to {MAX_PROCS} "
                            "distinct strings without '->'"),
    ], ids=["bool-version", "regs-empty-string", "regs-empty-object", "null-owners",
            "no-quantum", "repeated-procs", "repeated-header", "repeated-chan",
            "repeated-quantum", "bad-qrow-value",
            "bool-row-index", "float-row-index", "missing-row", "stray-row", "repeated-row",
            "short-row", "indefinite-state",
            "unowned-register", "owner-of-no-register", "ownership-partition",
            "processor-named-like-a-message",
            "ghost-owner", "sigma-not-object",
            "inbox-not-list", "repeated-proc", "unknown-proc", "missing-proc",
            "ext-not-register", "ext-res-list", "unknown-channel", "another-channel",
            "repeated-proc-name", "too-many-procs"])
    def test_malformed_initial_state_exits_2(self, tmp_path, mutate, message):
        recs = getattr(self, mutate)(self.epr_trace_records())
        trace = tmp_path / "bad.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1
        assert r.stderr.startswith(message)

    @pytest.mark.parametrize("case, message", [
        ("directory", "error: cannot read {path}: [Errno 21] Is a directory"),
        ("not-utf-8", "error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
        ("too-deep", "maximum recursion depth exceeded"),
        pytest.param("long-int", "Exceeds the limit", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"),
            reason="this Python converts ints of any length")),
    ], ids=["directory", "not-utf-8", "too-deep", "long-int"])
    @pytest.mark.parametrize("cmd", ["verify", "inspect", "run", "batch"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, cmd, case, message):
        """A directory, a file that is not UTF-8, JSON nested deeper than
        ``json.loads`` goes, and an int longer than Python converts (a
        plain ``ValueError``): each trace or config is refused with one
        line."""
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf-8":
            path.write_bytes(b'{"t": "\xff"}\n')
        elif case == "long-int":
            path.write_text('{"base": "ping", "seed": ' + "1" * 5_000 + "}\n")
        else:
            path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        argv = [cmd, str(path)] if cmd in ("verify", "inspect") else [cmd, "--config", str(path)]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and message.format(path=path) in out.err
        assert len(out.err.splitlines()) == 1

    @pytest.mark.parametrize("cmd", ["verify", "inspect"])
    def test_event_record_nested_too_deep_exits_2(self, tmp_path, capsys, cmd):
        """``json.loads`` takes update parameters nested 600 deep, but
        turning them into tuples recurses past the limit."""
        lines = traceio.serialize_run(*self._epr_run()).splitlines()
        k = next(i for i, line in enumerate(lines) if json.loads(line).get("update"))
        rec = json.loads(lines[k])
        rec["update"][1] = [json.loads("[" * 600 + "]" * 600)]
        lines[k] = json.dumps(rec, sort_keys=True)
        trace = tmp_path / "deep.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert cli.main([cmd, str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {k + 1}: ")
        assert "maximum recursion depth exceeded" in err and len(err.splitlines()) == 1

    def test_null_eid_on_send_exits_2(self, tmp_path):
        lines = traceio.serialize_run(*self._epr_run()).splitlines()
        k = next(i for i, line in enumerate(lines) if json.loads(line).get("k") == "send")
        rec = json.loads(lines[k])
        rec["eid"] = None
        lines[k] = json.dumps(rec, sort_keys=True)
        trace = tmp_path / "eid.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip() == (
            f"error: line {k + 1}: bad event record: 'eid' is not an int")

    def test_kraus_entry_that_is_not_finite_exits_2(self, tmp_path):
        """Teleport's Bell measurement with NaN in the Kraus matrix of its
        recorded outcome: refused where it is read, not replayed to a NaN
        state."""
        cfg = ScenarioConfig(base="teleport", procs=2, seed=0)
        lines = trace_text(cfg).splitlines()
        k = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("name") == "tp.bell")
        rec = json.loads(lines[k])
        (kraus,) = rec["qop"]["kraus"][rec["outcome"]]
        row = next(r for r in kraus if set(r) != {"0,0"})
        row[next(j for j, v in enumerate(row) if v != "0,0")] = "nan,0"
        lines[k] = json.dumps(rec, sort_keys=True)
        trace = tmp_path / "nan.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli("verify", str(trace))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (f"error: line {k + 1}: bad event record: Kraus matrix of "
                            f"outcome {rec['outcome']!r} has an entry that is not finite\n")

    def test_outcome_listed_twice_exits_2(self, tmp_path, capsys):
        """The first operation of batch-small item 0 (eid 3) with its first
        outcome listed again in ``qop.outs``: refused where it is read."""
        recs = [json.loads(line) for line in trace_text(batch_small(0)).splitlines()]
        qop = self._first_qop(recs)
        qop["outs"].append(qop["outs"][0])
        k = next(n for n, d in enumerate(recs, 1) if d.get("qop") is qop)
        trace = tmp_path / "outs.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        assert cli.main(["verify", str(trace)]) == 2
        out = capsys.readouterr()
        assert (recs[k - 1]["eid"], out.out) == (3, "")
        assert out.err == (f"error: line {k}: bad event record: outcome "
                           f"{qop['outs'][0]!r} is repeated\n")

    @pytest.mark.parametrize("seed, edit, code, printed", [
        (0, "_drop_header", 2, "error: trace has no header\n"),
        (1, "_zero_in_dim", 2, "error: line 17: bad event record: dims [0, 2] are not a "
                               "list of ints >= 1\n"),
        (1, "_outcome_not_a_string", 2, "error: line 17: bad event record: 'outs' holds an "
                                        "outcome that is not a string\n"),
        (1, "_kraus_of_another_shape", 2, "error: line 17: bad event record: Kraus matrix "
                                          "shape (1, 1) incompatible with in dim 2, out dim 2\n"),
        (0, "_marker_not_a_string", 2, "error: line 10: bad event record: a message's "
                                       "'marker' is not a string or null\n"),
        (0, "_message_not_an_object", 2, "error: line 10: bad event record: message 3 is not "
                                         "an object\n"),
        (0, "_marker_of_another_gid", 2, "error: line 14: bad event record: marker message "
                                         "1 does not carry exactly its gid\n"),
        (0, "_message_from_another_sender", 1, "  well-formed: FAIL\nrejected: invalid step "
                                               "at index 0: message src p1 does not match "
                                               "sender p0\n"),
    ], ids=["no-header", "zero-in-dim", "outcome-not-a-string", "kraus-of-another-shape",
            "marker-not-a-string", "message-not-an-object", "marker-of-another-gid",
            "message-from-another-sender"])
    def test_edited_batch_small_trace(self, tmp_path, capsys, seed, edit, code, printed):
        """One edit to a batch-small trace, verified in process: exit 2 and
        one line for a record the parser refuses, exit 1 for a step the
        replay refuses."""
        recs = [json.loads(line) for line in trace_text(batch_small(seed)).splitlines()]
        getattr(self, edit)(recs)
        trace = tmp_path / "edited.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        assert cli.main(["verify", str(trace)]) == code
        out = capsys.readouterr()
        assert out.out + out.err == printed

    @staticmethod
    def _first_qop(recs):
        return next(d for d in recs if d.get("k") == "apply" and d["qop"])["qop"]

    @staticmethod
    def _first_send(recs):
        return next(d for d in recs if d.get("k") == "send")

    @staticmethod
    def _drop_header(recs):
        recs.remove(next(d for d in recs if d["t"] == "header"))

    @classmethod
    def _zero_in_dim(cls, recs):
        cls._first_qop(recs)["in_dims"] = [0, 2]

    @classmethod
    def _outcome_not_a_string(cls, recs):
        cls._first_qop(recs)["outs"][0] = 1

    @classmethod
    def _kraus_of_another_shape(cls, recs):
        qop = cls._first_qop(recs)
        qop["kraus"][qop["outs"][0]] = [[["1,0"]]]

    @classmethod
    def _marker_not_a_string(cls, recs):
        cls._first_send(recs)["msg"]["marker"] = 3

    @staticmethod
    def _marker_of_another_gid(recs):
        """A marker's gid is stored once: its classical part only repeats it."""
        msg = next(d["msg"] for d in recs if d.get("k") == "send" and d["msg"]["marker"])
        msg["classical"]["gid"] = "record-only"

    @classmethod
    def _message_not_an_object(cls, recs):
        cls._first_send(recs)["msg"] = 3

    @staticmethod
    def _message_from_another_sender(recs):
        next(d for d in recs if d.get("k") == "send" and not d["protocol"])["msg"]["src"] = "p1"

    @pytest.mark.parametrize("kind, path, value, message", [
        ("send", ["label"], "p9", "names unknown processor 'p9'"),
        ("receive", ["label"], "p9", "names unknown processor 'p9'"),
        ("apply", ["proc"], "p9", "names unknown processor 'p9'"),
        ("send", ["msg", "dst"], "p9", "names unknown processor 'p9'"),
        ("receive", ["chan"], "p0->p9", "names unknown channel 'p0->p9'"),
        ("apply", ["proc"], "p0", "is labelled 'p1' but applies on 'p0'"),
    ], ids=["send-label", "receive-label", "apply-proc", "message-dst", "receive-chan",
            "apply-proc-not-label"])
    def test_event_naming_no_processor_or_channel_exits_2(self, tmp_path, kind, path,
                                                          value, message):
        lines = traceio.serialize_run(*self._epr_run()).splitlines()
        k = next(i for i, line in enumerate(lines) if json.loads(line).get("k") == kind)
        rec = json.loads(lines[k])
        functools.reduce(dict.__getitem__, path[:-1], rec)[path[-1]] = value
        lines[k] = json.dumps(rec, sort_keys=True)
        trace = tmp_path / "names.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert r.stderr == f"error: line {k + 1}: event {rec['eid']} {message}\n"

    @pytest.mark.parametrize("null_ext, update, stage", [
        (False, "qgo.marker_close", "spec-replay"),
        (True, "qgo.marker_close", "well-formed"),
        (False, "no.such.update", "well-formed"),
    ], ids=["idle-ext", "null-ext", "unknown-update"])
    def test_failing_classical_update_is_a_rejection(self, tmp_path, null_ext,
                                                     update, stage):
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 1}, seed=0)
        res = run_simulation(cfg)
        recs = [json.loads(line) for line in
                traceio.serialize_run(res.execution, cfg, res.decisions).splitlines()]
        for d in recs:
            if d.get("k") == "receive":
                d["update"] = [update, [d["chan"]]]
            if d["t"] == "proc" and null_ext:
                d["ext"] = None
        trace = tmp_path / "update.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert f"{stage}: FAIL" in r.stdout
        (reason,) = [l for l in r.stdout.splitlines() if l.startswith("rejected:")]
        assert repr(update) in reason

    @pytest.mark.parametrize("config, message", [
        ({}, "error: config has no 'base'"),
        ({"base": "token-ring", "procs": "2"}, "error: config: 'procs' is not an int"),
        ({"base": "ping", "invocatons": [{"gid": "record-only", "leader": "p0"}]},
         "error: config has unknown key 'invocatons'"),
        ({"base": "ping", "invocations": [{"gid": "record-only", "leader": "p0",
                                           "after_step": "1"}]},
         "error: invocation 0: 'after_step' is not an int"),
        ({"base": "token-ring", "procs": 0},
         f"error: config: 'procs' is not in 1..{MAX_PROCS}"),
        ({"base": "empty", "procs": MAX_PROCS + 1},
         f"error: config: 'procs' is not in 1..{MAX_PROCS}"),
        ({"base": "token-ring", "procs": 2, "base_params": {"qubit_per_proc": 2}},
         "error: base_params has unknown key 'qubit_per_proc'"),
        ({"base": "token-ring", "base_params": {"max_hops": "x"}},
         "error: base_params: 'max_hops' is not an int"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": [1]}},
         "error: base_params: 'data_state' is not a list of two amplitudes"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": [0, 0]}},
         "error: base_params: 'data_state' has both amplitudes zero"),
        ({"base": "teleport", "procs": 2, "base_params": {"data_state": ["a", 1]}},
         "error: base_params: 'data_state': amplitude 0 is not a finite real or a "
         "[re, im] pair of finite reals"),
        (OVER_DIM_CAP, "error: total dimension 16384 exceeds cap 4096"),
        ({"base": "empty", "procs": 2, "base_params": {"qubits_per_proc": 10000}},
         "error: total dimension at least 2**20000 exceeds cap 4096"),
        ({"base": "ping", "invocations": [{"gid": "record-only", "leader": "p9"}]},
         "error: invocation 0: 'leader' 'p9' is not a processor"),
        ({"base": "token-ring", "base_params": {"qubits_per_proc": -1}},
         "error: base_params: 'qubits_per_proc' is negative"),
        ({"base": "token-ring", "base_params": {"max_hops": -2}},
         "error: base_params: 'max_hops' is negative"),
        ({"base": "ping", "base_params": {"n_msgs": -1}},
         "error: base_params: 'n_msgs' is negative"),
        ({"base": "ping", "seed": -1}, "error: config: 'seed' is negative"),
        ({"base": "ping", "fairness": -3}, "error: config: 'fairness' is negative"),
        ({"base": "ping", "max_steps": -1}, "error: config: 'max_steps' is negative"),
    ], ids=["empty", "procs-string", "misspelt-key", "after-step-string", "no-procs",
            "too-many-procs",
            "misspelt-param", "param-string", "data-state-one-amplitude",
            "data-state-zero", "data-state-string", "over-dim-cap", "far-over-dim-cap",
            "leader-not-a-proc",
            "negative-qubits", "negative-hops", "negative-msgs", "negative-seed",
            "negative-fairness", "negative-max-steps"])
    @pytest.mark.parametrize("cmd", ["run", "batch"])
    def test_malformed_config_exits_2(self, tmp_path, cmd, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        r = self.run_cli(cmd, "--config", str(path))
        assert r.returncode == 2
        assert r.stderr == message + "\n"

    def test_config_over_dim_cap_exits_2_from_batch_workers(self, tmp_path):
        """The cap is exceeded in the worker processes, which pass the error
        back to the parent."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(OVER_DIM_CAP))
        r = self.run_cli("batch", "--config", str(path), "--seeds", "0:2", "--jobs", "2")
        assert r.returncode == 2
        assert r.stderr == "error: total dimension 16384 exceeds cap 4096\n"

    def test_dim_cap_is_no_setting(self, tmp_path, monkeypatch):
        """The cap is a constant: no environment variable raises it."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(OVER_DIM_CAP))
        monkeypatch.setenv("QGO_DIM_CAP", "100000")
        r = self.run_cli("run", "--config", str(path))
        assert r.returncode == 2
        assert r.stderr == "error: total dimension 16384 exceeds cap 4096\n"

    @pytest.mark.parametrize("cmd", ["verify", "inspect"])
    def test_header_config_without_base_exits_2(self, tmp_path, cmd):
        lines = traceio.serialize_run(*self._epr_run()).splitlines()
        header = json.loads(lines[0])
        del header["config"]["base"]
        lines[0] = json.dumps(header, sort_keys=True)
        trace = tmp_path / "nobase.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli(cmd, str(trace))
        assert r.returncode == 2
        assert r.stderr == "error: bad header: config has no 'base'\n"

    def test_record_that_is_not_an_object_exits_2(self, tmp_path):
        trace = tmp_path / "list.jsonl"
        trace.write_text("[1]\n" + traceio.serialize_run(*self._epr_run()))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert r.stderr == "error: line 1: record is not a JSON object\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts ints of any length")
    def test_int_too_long_for_python_exits_2(self, tmp_path):
        """``json.loads`` raises a plain ``ValueError``, not a
        ``JSONDecodeError``, for an int longer than Python converts."""
        digits = sys.get_int_max_str_digits() + 1
        trace = tmp_path / "long.jsonl"
        trace.write_text('{"t": "procs", "names": [' + "1" * digits + "]}\n"
                         + traceio.serialize_run(*self._epr_run()))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert r.stderr.startswith("error: line 1: Exceeds the limit")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("seeds", ["5:2", "5:5", "-1:1", "a:b"],
                             ids=["reversed", "empty", "negative", "not-ints"])
    def test_empty_seed_range_exits_2(self, tmp_path, seeds):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": "ping", "procs": 2}))
        r = self.run_cli("batch", "--config", str(path), f"--seeds={seeds}")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (f"error: bad seed range {seeds!r}, "
                            "expected LO:HI with 0 <= LO < HI\n")

    def test_negative_seed_flag_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": "ping"}))
        r = self.run_cli("run", "--config", str(path), "--seed", "-3")
        assert r.returncode == 2
        assert r.stderr == "error: config: 'seed' is negative\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exits_2(self, tmp_path, jobs):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": "ping", "procs": 2}))
        r = self.run_cli("batch", "--config", str(path), "--jobs", jobs)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("jobs, seeds, cpus, workers", [
        (100000, "0:3", 8, 3),
        (100000, "0:6", 4, 4),
        (2, "0:6", 8, 2),
        (4, "0:1", 8, None),
        (8, "0:3", None, None),
    ])
    def test_jobs_sizes_the_pool(self, tmp_path, monkeypatch, jobs, seeds, cpus,
                                 workers):
        """The pool has min(--jobs, seeds, CPUs) workers, and none when that
        is 1.  A fake pool records its size and maps in this process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": "ping", "procs": 2}))
        assert cli.main(["batch", "--config", str(path), "--seeds", seeds,
                         "--jobs", str(jobs)]) == 0
        assert sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("config, message", [
        ({"base": "ping", "policy": "lifo"}, "error: unknown policy 'lifo'"),
        ({"base": "ping", "invocations": [{"gid": "nonesuch", "leader": "p0"}]},
         "error: unknown global operation 'nonesuch'"),
        ({"base": "ping", "policy": "replay"},
         "error: replay policy needs a recorded decision list"),
        ({"base": "token-ring", "max_steps": 1}, "error: no quiescence within 1 steps"),
        ({"base": "teleport", "procs": 3}, "error: teleport needs exactly 2 processors"),
        ({"base": "nope"}, "error: unknown base algorithm 'nope'"),
    ], ids=["unknown-policy", "unknown-gid", "replay-without-decisions", "no-quiescence",
            "teleport-procs", "unknown-base"])
    def test_config_that_cannot_run_exits_2(self, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        r = self.run_cli("run", "--config", str(path))
        assert r.returncode == 2
        assert r.stderr == message + "\n"

    # Five global-encrypt invocations take the history's probability below
    # qcore.ZERO_TRACE, so generation refuses an outcome of conditional
    # probability 1/4 as having zero probability.  That defect is ROADMAP
    # item 2; its gate turns this config into one that generates and
    # verifies.  Until then generation fails, and says so in one line.
    IMPROBABLE_HISTORY = {
        "base": "token-ring", "procs": 3, "max_steps": 5000,
        "base_params": {"qubits_per_proc": 2, "max_hops": 40},
        "invocations": [{"gid": "global-encrypt", "leader": "p0", "after_step": a}
                        for a in (2, 7, 12, 17, 22)],
    }

    def test_generation_failure_exits_2_with_one_line(self, tmp_path):
        """``run`` reports a history generation cannot continue (ROADMAP
        item 2) as one line naming the step, not a traceback."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.IMPROBABLE_HISTORY))
        r = self.run_cli("run", "--config", str(path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: step ")
        assert "has zero probability" in r.stderr
        assert len(r.stderr.splitlines()) == 1

    def test_batch_reports_a_generation_failure_and_goes_on(self, tmp_path):
        """``batch`` reports each seed generation fails on (ROADMAP item 2)
        and goes on to the next seed."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.IMPROBABLE_HISTORY))
        r = self.run_cli("batch", "--config", str(path), "--seeds", "0:2")
        assert r.returncode == 1
        assert r.stderr == ""
        lines = r.stdout.splitlines()
        assert len(lines) == 3 and lines[2] == "0/2 accepted"
        for seed, line in enumerate(lines[:2]):
            assert line.startswith(f"seed {seed}: error - generation failed: step ")
            assert line.endswith("has zero probability")

    @REFUSED_ATOMIC_STEPS
    def test_atomic_step_the_operation_refuses_exits_1(self, tmp_path, edit, cfg, reason):
        trace = tmp_path / "atomic.jsonl"
        trace.write_text(edit(trace_text(cfg)))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert "spec-replay: FAIL" in r.stdout
        (line,) = [l for l in r.stdout.splitlines() if l.startswith("rejected:")]
        assert reason in line

    def test_failed_class_sort_replay_exits_1(self, tmp_path, monkeypatch, capsys):
        trace = tmp_path / "ring.jsonl"
        trace.write_text(trace_text(SNAPSHOT_RING))
        break_steps_after_the_replay(monkeypatch)
        assert cli.main(["verify", str(trace)]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        assert "sort-classes: FAIL" in out.out
        (line,) = [l for l in out.out.splitlines() if l.startswith("rejected:")]
        assert line.startswith("rejected: sorted window produced invalid step: "
                               "injected failure at event ")

    def test_apply_with_a_repeated_register_exits_1(self, tmp_path):
        """The teleport Bell measurement names its first register twice, as
        input and as output; the replay refuses the step."""
        recs = [json.loads(line) for line in
                trace_text(ScenarioConfig.from_dict(PURITY_CORPUS[1])).splitlines()]
        (bell,) = [d for d in recs if d.get("name") == "tp.bell"]
        bell["in"] = bell["out"] = [bell["in"][0]] * 2
        trace = tmp_path / "repeated.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        r = self.run_cli("verify", str(trace))
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.splitlines() == [
            "  well-formed: FAIL",
            "rejected: invalid step at index 11: register map inputs must be injective"]

    @FORGED_IN_FLIGHT_CASES
    def test_apply_to_a_message_in_flight_exits_1(self, tmp_path, drained):
        x = forged_apply_in_flight(drained)
        trace = tmp_path / "forged.jsonl"
        trace.write_text(traceio.serialize_run(x, FORGED_IN_FLIGHT, None))
        r = self.run_cli("verify", str(trace))
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.splitlines() == ["  well-formed: FAIL",
                                         f"rejected: {in_flight_refusal(x)}"]

    def test_run_without_out_writes_the_trace_to_stdout(self, tmp_path, capsys):
        cfg = batch_small(3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["run", "--config", str(path)]) == 0
        printed = capsys.readouterr()
        assert printed.out == trace_text(cfg)
        n = len(traceio.parse_run(printed.out)[0].events)
        assert printed.err == f"generated {n} events (seed 3, base ping)\n"

    def test_verify_writes_the_certificate(self, tmp_path, capsys):
        text = trace_text(batch_small(1))
        trace, cert = tmp_path / "t.jsonl", tmp_path / "cert.jsonl"
        trace.write_text(text)
        assert cli.main(["verify", str(trace), "--cert", str(cert)]) == 0
        expected = verifier.verify(traceio.parse_run(text)[0])
        assert cert.read_text() == traceio.serialize_certificate(expected)
        assert capsys.readouterr().out.endswith(f"accepted ({expected.swaps} swaps)\n")

    @pytest.mark.parametrize("cmd", ["run", "verify"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, cmd):
        """``run --out`` and ``verify --cert`` that name a directory."""
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 1}, seed=0)
        out = tmp_path / "out"
        out.mkdir()
        if cmd == "run":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg.to_dict()))
            argv = ["run", "--config", str(path), "--out", str(out)]
        else:
            path = tmp_path / "t.jsonl"
            path.write_text(trace_text(cfg))
            argv = ["verify", str(path), "--cert", str(out)]
        assert cli.main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == f"error: [Errno 21] Is a directory: '{out}'\n"

    def test_inspect_of_a_trace_that_does_not_replay_exits_1(self, tmp_path):
        """A ping trace with its first receive moved ahead of its send."""
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 1}, seed=0)
        x = run_simulation(cfg).execution
        events = list(x.events)
        k = next(i for i, e in enumerate(events) if isinstance(e, executions.Receive))
        send = next(i for i, e in enumerate(events) if isinstance(e, executions.Send)
                    and e.msg.msg_id == events[k].msg_id)
        events.insert(send, events.pop(k))
        trace = tmp_path / "t.jsonl"
        trace.write_text(traceio.serialize_run(executions.Execution(x.initial, events),
                                               cfg, None))
        r = self.run_cli("inspect", str(trace))
        assert (r.returncode, r.stderr) == (1, "")
        lines = r.stdout.splitlines()
        assert len(lines) == 2 + len(events) + 1  # header, event list, the reason
        assert lines[-1] == (f"does not replay: invalid step at index {send}: "
                             f"channel {events[send].chan} is empty")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1 and "well-formed: FAIL" in r.stdout

    @pytest.mark.parametrize("flags", [[]], ids=["plain"])
    def test_inspect_of_a_trace_with_a_repeated_event_id_exits_1(self, tmp_path, capsys,
                                                                 flags):
        """A ping trace whose last receive takes the first receive's eid.
        ``verify`` refuses it at ``well-formed``, and ``inspect`` says so too."""
        cfg = ScenarioConfig(base="ping", procs=2, base_params={"n_msgs": 3}, seed=0)
        x = run_simulation(cfg).execution
        events = list(x.events)
        first, *_, last = [i for i, e in enumerate(events)
                           if isinstance(e, executions.Receive)]
        events[last] = dataclasses.replace(events[last], eid=events[first].eid)
        trace = tmp_path / "t.jsonl"
        trace.write_text(traceio.serialize_run(executions.Execution(x.initial, tuple(events)),
                                               cfg, None))
        assert cli.main(["inspect", str(trace), *flags]) == 1
        printed = capsys.readouterr()
        lines = printed.out.splitlines()
        assert (printed.err, len(lines)) == ("", 2 + len(events) + 1)
        assert lines[-1] == "event ids are not unique"
        assert cli.main(["verify", str(trace)]) == 1
        assert capsys.readouterr().out.endswith("rejected: event ids are not unique\n")

    def test_bad_input_exit_code(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("definitely not a trace\n")
        assert self.run_cli("verify", str(junk)).returncode == 2
        assert self.run_cli("run", "--config", "/no/such/file").returncode == 2

    def test_inspect_and_batch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "base": "ping", "procs": 2, "base_params": {"n_msgs": 1},
            "invocations": [{"gid": "record-only", "leader": "p0",
                             "after_step": 1}],
        }))
        trace = tmp_path / "t.jsonl"
        assert self.run_cli("run", "--config", str(cfg), "--out",
                            str(trace)).returncode == 0
        r = self.run_cli("inspect", str(trace))
        assert r.returncode == 0 and "events" in r.stdout
        r = self.run_cli("batch", "--config", str(cfg), "--seeds", "0:4")
        assert r.returncode == 0
        assert "4/4 accepted" in r.stdout


# sha256 of ``serialize_run`` for pinned configurations.  The kernels may
# change how they compute a state, but never which outcomes a seed draws:
# the same seed must give a byte-identical trace.
GOLDEN_TRACES = {
    # ROADMAP scenario (c): 1,540 classical events.
    "ring-classical-long": (
        dict(base="token-ring", procs=12, base_params={"max_hops": 96},
             invocations=[{"gid": "record-only", "leader": "p0", "after_step": a}
                          for a in (2, 7, 12, 17)],
             seed=3, max_steps=20000),
        "416d44f5f4801d889c38a68358e62b6b3f552212007fe8811b8950973de4ef5b",
    ),
    # ROADMAP scenario (a): 44 events, D=4.
    "scenario-a": (
        dict(base="token-ring", procs=2,
             base_params={"epr_pair": True, "max_hops": 6},
             invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2},
                          {"gid": "snapshot-measure", "leader": "p0", "after_step": 6}],
             seed=0),
        "459a3c4efab440a2a06acc69c05e752559d7c42b56b53a1c7e7d8b3bf40e7b1b",
    ),
    # D=64, 16 outcomes per global-encrypt component.
    "global-encrypt-d64": (
        dict(base="token-ring", procs=3,
             base_params={"qubits_per_proc": 2, "max_hops": 6},
             invocations=[{"gid": "global-encrypt", "leader": "p0", "after_step": 2}],
             seed=0),
        "116623447b9381fe8341776df3030d03fcbeb2bc134db4c5a6e70c5eeb11abae",
    ),
    # ROADMAP scenario (d): 91 events, D=1024; its initial state is all
    # "0,0" but one entry.
    "ring-quantum-wide": (
        dict(base="token-ring", procs=5,
             base_params={"qubits_per_proc": 2, "max_hops": 10},
             invocations=[{"gid": "snapshot-measure", "leader": "p0", "after_step": 2}],
             seed=1),
        "8e642da8520d03b949852f4800aa83285ae447f6aca17f3e9c360b31729104a2",
    ),
    # Teleport, seed 17: the move applies p1's snapshot measurement of
    # register 2 to the teleported qubit while it is in flight (28 swaps).
    "teleport-in-flight": (
        dict(base="teleport", procs=2,
             invocations=[{"gid": "snapshot-measure", "leader": "p1", "after_step": 1},
                          {"gid": "global-encrypt", "leader": "p0", "after_step": 3}],
             seed=17),
        "fece2ebf36ab4ce3a93f5e03c2ab69a18d93f5948a1ed419bcffd6629de0b284",
    ),
}


@functools.cache
def _golden_trace_text(name):
    cfg, _ = GOLDEN_TRACES[name]
    cfg = ScenarioConfig.from_dict(cfg)
    res = run_simulation(cfg)
    return traceio.serialize_run(res.execution, cfg, res.decisions)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_trace(name):
    text = _golden_trace_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TRACES[name][1]


# sha256 of ``serialize_certificate`` for the golden traces, each parsed back
# and verified: they pin the verdicts, swap counts, event orders and
# specification events, whatever representation the quantum state has.
GOLDEN_CERTIFICATES = {
    "ring-classical-long":
        "2b5a8d4c221039df412c5316172a9b972e69cfdbfb7c6af845d43c7fc8611ea5",
    "scenario-a": "15aae863b151575092b4cdd2e007846b53299b53f2658a44872bcb973256a854",
    "global-encrypt-d64":
        "3f0ce22269ea942108fb12d862b74d7afd91afdb3c7ec3d207bf44b24568d1ed",
    "ring-quantum-wide":
        "49aeabe1047e233491f8d3d44d302b5e44f9c0e91f6267a4ba8daf6452d9c646",
    "teleport-in-flight":
        "852d6177e7e1de2bad0b188f9ad8647f84473207fc4a79faa50717aea924a8ac",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFICATES))
def test_golden_certificate(name):
    x, _, _ = traceio.parse_run(_golden_trace_text(name))
    cert = traceio.serialize_certificate(verifier.verify(x))
    assert hashlib.sha256(cert.encode()).hexdigest() == GOLDEN_CERTIFICATES[name]


# sha256 over each batch-small item's trace, the trace parsed and written
# back, and its certificate, for items 0..399.  A change that keeps traces
# and certificates byte-identical keeps it; one that changes certificates
# on purpose re-pins it.
BATCH_SMALL_DIGEST = "08b1e93aaee3d2cf3c2bc75b175d6389f653c5b6a487fa0cdfdb46c6c3542b66"


def test_batch_small_traces_and_certificates_are_byte_identical():
    h = hashlib.sha256()
    for seed in range(400):
        cfg = batch_small(seed)
        res = run_simulation(cfg)
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
        parsed = traceio.parse_run(text)
        cert = verifier.verify(parsed[0])
        for part in (text, traceio.serialize_run(*parsed),
                     traceio.serialize_certificate(cert)):
            h.update(part.encode())
    assert h.hexdigest() == BATCH_SMALL_DIGEST


# Calls of ``executions.step`` one ``verify`` makes, as (events, swaps,
# window steps, message operations, specification steps, inverting
# windows): the one full replay takes one step per event; each sorted window
# with an inversion (a fragment's class sort, or the move of its message
# operations to the end of its snapshot region) replays only the span from
# the first to the last position the sort changes, one step per event in
# it; the specification replay takes one per base event.
STEP_BUDGETS = {
    "scenario-a": (44, 8, 10, 0, 18, 1),  # 44 + 10 + 18 = 72
    "global-encrypt-d64": (43, 15, 17, 0, 18, 1),  # 43 + 17 + 18 = 78
    "ring-quantum-wide": (91, 14, 9, 0, 30, 1),  # 91 + 9 + 30 = 130
    # Teleport, seed 5: p1's snapshot measures the teleported qubit in flight.
    # Its fragments' class sorts change spans of 13 and 5 events; the moved
    # operation's one inversion is the swap with its reception, a span of 2.
    "moved-message-op": (34, 25, 20, 1, 7, 3),  # 34 + 20 + 7 = 61
    "ring-classical-long": (1540, 2968, 504, 0, 288, 4),  # 1540 + 504 + 288 = 2332
}
MOVED_MESSAGE_OP = dict(
    base="teleport", procs=2,
    invocations=[{"gid": "snapshot-measure", "leader": "p1", "after_step": 1},
                 {"gid": "global-encrypt", "leader": "p0", "after_step": 3}],
    seed=5)


def counting_calls(monkeypatch, owner, name) -> list:
    """Count each call of ``owner.name`` (``owner`` a module or a class), at
    every binding of it: in ``owner`` and in the qgosim modules.  The
    returned list grows by one per call."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qgosim") and \
                getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(STEP_BUDGETS))
def test_verify_step_budget(monkeypatch, name):
    if name in GOLDEN_TRACES:
        text = _golden_trace_text(name)
    else:
        cfg = ScenarioConfig.from_dict(MOVED_MESSAGE_OP)
        res = run_simulation(cfg)
        text = traceio.serialize_run(res.execution, cfg, res.decisions)
    x, _, _ = traceio.parse_run(text)
    n, swaps, window_steps, msg_ops, spec_steps, windows = STEP_BUDGETS[name]
    calls = counting_calls(monkeypatch, executions, "step")
    replays = counting_calls(monkeypatch, executions, "replay")
    relations = counting_calls(monkeypatch, causality, "compute_causality")
    equicausal = counting_calls(monkeypatch, causality, "equicausal")
    checked_swaps = counting_calls(monkeypatch, causality, "swap_adjacent_cached")
    compares = counting_calls(monkeypatch, sysmodel, "states_equal")
    cert = verifier.verify(x)
    assert cert.accepted and (cert.z is cert.y) == (msg_ops == 0)
    assert (len(x.events), cert.swaps) == (n, swaps)
    base_events = [e for e in cert.spec.events
                   if isinstance(e, (executions.Apply, executions.Send, executions.Receive))
                   and not e.protocol]
    assert len(base_events) == spec_steps
    assert len(calls) == n + window_steps + spec_steps
    # Two replays, of x and of the specification execution; no causal
    # relation, no equicausality check and no adjacent swap.  One state
    # comparison per sorted window with an inversion, and one of the
    # specification's final state.
    assert [args[0] for args in replays] == [x, cert.spec]
    assert relations == [] and equicausal == []
    assert checked_swaps == []
    assert len(compares) == windows + 1


def test_verify_message_ids_budget(monkeypatch):
    """``SystemState.message_ids`` builds a set of every message in flight.
    ``verify`` may build it once per replay (its initial id set) and once
    per AtomicExecute, never once per Send."""
    x, _, _ = traceio.parse_run(_golden_trace_text("ring-classical-long"))
    calls = counting_calls(monkeypatch, sysmodel.SystemState, "message_ids")
    replays = counting_calls(monkeypatch, executions, "replay")
    cert = verifier.verify(x)
    assert cert.accepted and cert.swaps == 2968
    atomics = sum(isinstance(e, executions.AtomicExecute) for e in cert.spec.events)
    sends = sum(isinstance(e, executions.Send) for e in x.events)
    assert len(calls) <= len(replays) + atomics < sends


def test_generation_enabled_budget(monkeypatch):
    """The scheduler asks the base algorithm for a processor's actions once
    per processor at the start, then only for a processor whose classical
    state a block replaced: on scenario (c), 12 calls plus one per base
    event (a token pass, take or receive).  Enumerating them at every step
    took 12 calls per step, 10,428 over the 869 steps (the last one finds
    no action)."""
    cfg = ScenarioConfig.from_dict(GOLDEN_TRACES["ring-classical-long"][0])
    calls = counting_calls(monkeypatch, type(BASE_ALGORITHMS["token-ring"]), "enabled")
    res = run_simulation(cfg)
    base_events = sum(not e.protocol for e in res.execution.events
                      if isinstance(e, (executions.Apply, executions.Send,
                                        executions.Receive)))
    assert (len(res.decisions), cfg.procs, base_events) == (868, 12, 288)
    assert len(calls) == cfg.procs + base_events == 300


def test_trace_codec_work_budget(monkeypatch):
    """The trace codec does per-entry work only for entries other than "0,0".
    On scenario (d), D=1024 with one nonzero initial entry, ``parse_run``
    calls ``json.loads`` at most once per line that is not a qrow plus once
    per qrow holding an entry other than "0,0"; ``_parse_c`` runs once per
    such entry, and ``serialize_run`` calls ``_c`` once per nonzero entry.
    Its 1,023 all-zero rows, lines 10 to 1,032, are one run: ``_records``
    calls the all-zero row recogniser once for the run and once for each
    stretch of other lines (lines 1-8, the nonzero row 0 on line 9, the
    events), and ``_decode_state`` gets one record for the run, nine in all
    (procs, five proc, quantum, row 0, the run)."""
    text = _golden_trace_text("ring-quantum-wide")
    recs = [json.loads(line) for line in text.splitlines()]
    qrows = [d["v"] for d in recs if d["t"] == "qrow"]
    kraus = [m for d in recs if d["t"] == "ev" and d.get("qop")
             for ms in d["qop"]["kraus"].values() for m in ms]
    nonzero = sum(s != "0,0" for row in qrows + [r for m in kraus for r in m]
                  for s in row)
    loads_budget = len(recs) - len(qrows) + sum(row.count("0,0") < len(row)
                                                for row in qrows)
    assert len(qrows) == 1024 and loads_budget < len(recs) - 1000

    loads = counting_calls(monkeypatch, json, "loads")
    parse_c = counting_calls(monkeypatch, traceio, "_parse_c")
    recogniser = counting_calls(monkeypatch, traceio, "_zero_qrow")
    decoded = counting_calls(monkeypatch, traceio, "_decode_state")
    x, config, decisions = traceio.parse_run(text)
    assert len(loads) <= loads_budget
    assert len(parse_c) == nonzero
    assert len(recogniser) == 4
    ((state_recs,),) = decoded
    assert [(lineno, d["i"]) for lineno, d in state_recs if d["t"] == "qrow"] == [
        (9, 0), (10, range(1, 1024))]
    assert len(state_recs) == 9
    c = counting_calls(monkeypatch, traceio, "_c")
    assert traceio.serialize_run(x, config, decisions) == text
    assert len(c) == nonzero


def test_serializing_a_generated_wide_state_formats_its_distinct_rows(monkeypatch):
    """Scenario (d)'s generated initial state is a D=1024 basis vector, so
    its 1,024 rows are two distinct rows: the one holding its 1, and zero.
    Serializing the generated execution passes those two rows to
    ``_matrix``, not 1,024, and writes the golden trace."""
    cfg, digest = GOLDEN_TRACES["ring-quantum-wide"]
    cfg = ScenarioConfig.from_dict(cfg)
    res = run_simulation(cfg)
    matrices = counting_calls(monkeypatch, traceio, "_matrix")
    text = traceio.serialize_run(res.execution, cfg, res.decisions)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert sum(len(m) for m, in matrices if m.shape[1] == 1024) == 2


def test_verifying_a_wide_trace_builds_no_dense_derived_state():
    """On scenario (d), D=1024, only the parsed initial state has a D×D
    matrix (its rows).  Every state verify derives stays a factor: no
    V·V† is formed, whole (``_gram``) or a block of rows at a time
    (``_row_blocks``, the exact branch of ``states_close``)."""
    x, _, _ = traceio.parse_run(_golden_trace_text("ring-quantum-wide"))
    with mock.patch.object(qcore, "_gram", side_effect=AssertionError("V·V†")), \
            mock.patch.object(qcore, "_row_blocks", side_effect=AssertionError("rows")):
        assert verifier.verify(x).accepted


def test_parsing_a_wide_trace_builds_no_dense_temporary():
    """Checking the parsed initial state reads only its nonzero rows.
    Parsing scenario (d) never calls ``eigh``, and making its initial state,
    a D=1024 basis state whose matrix is 16 MB, from its rows (which checks
    it) peaks below 1 MB."""
    text = _golden_trace_text("ring-quantum-wide")
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh")):
        x, _, _ = traceio.parse_run(text)
    parsed = x.initial.quantum
    m = dense(parsed)
    assert m.nbytes == 16 << 20
    assert np.count_nonzero(m) == 1
    held = np.flatnonzero(m.view(np.int64).any(axis=1))  # as ``dense_state`` holds it
    block = m[held]
    tracemalloc.start()
    try:
        rho = qcore.DensityMatrix.from_rows(parsed.space, held, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(rho.factor, parsed.factor)


def test_generating_and_parsing_a_wide_trace_hold_no_dense_matrix():
    """On scenario (d), where one D×D matrix is 16 MB, no D×D matrix is
    made: generation allocates below 1 MB at its peak, parsing the 7 MB
    trace below 1 MB (no copy of its lines), and writing it back below 4 MB
    more than the text (no line per row).  The parsed state holds only its
    one nonzero row, and writes the same rows back."""
    cfg = ScenarioConfig.from_dict(GOLDEN_TRACES["ring-quantum-wide"][0])
    text = _golden_trace_text("ring-quantum-wide")

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _, run_peak = peak(lambda: run_simulation(cfg))
    (x, config, decisions), parse_peak = peak(lambda: traceio.parse_run(text))
    written, serialize_peak = peak(lambda: traceio.serialize_run(x, config, decisions))
    assert run_peak < 1 << 20
    assert parse_peak < 1 << 20
    assert serialize_peak < len(text) + (4 << 20)
    assert len(x.initial.quantum._rows[0]) == 1
    assert written == text


# ---------------------------------------------------------------------------
# Hostile initial states: any edit of the state records parses and is
# verified, or is refused with an exit code; nothing escapes.
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 99) | st.floats(allow_nan=False)
    | st.sampled_from(["p0", "p1", "0,0", "1,0", "-0,0", "nan,0", "inf,inf", "2 0"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "p0"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def hostile_traces(draw, kinds=("procs", "proc", "quantum", "qrow")):
    """Scenario (a) or the D=64 trace, whose rows 1-63 are one run of
    all-zero rows, with up to three edits inside its records of the given
    kinds (by default procs, proc (name, sigma and ext), quantum (regs and
    own) and qrow): a value replaced, an entry deleted, or a record repeated
    or dropped.  With qrow among the kinds, a qrow may also get an ``i`` that
    is a bool, a float or a string."""
    name = draw(st.sampled_from(["scenario-a", "global-encrypt-d64"]))
    recs = [json.loads(line) for line in _golden_trace_text(name).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        targets = [k for k, d in enumerate(recs) if d["t"] in kinds and len(d) > 1]
        if not targets:
            break
        k = draw(st.sampled_from(targets))
        action = draw(st.sampled_from(["replace", "replace", "delete", "repeat", "drop"]))
        if action == "repeat":
            recs.append(json.loads(json.dumps(recs[k])))
        elif action == "drop":
            del recs[k]
        else:
            node, key = recs[k], draw(st.sampled_from(sorted(set(recs[k]) - {"t"})))
            while isinstance(node[key], (list, dict)) and node[key] and draw(st.booleans()):
                node = node[key]
                key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                           else range(len(node))))
            if action == "delete":
                del node[key]
            else:
                node[key] = draw(_json_values)
    qrows = [d for d in recs if d["t"] == "qrow"]
    if "qrow" in kinds and qrows and draw(st.booleans()):
        # a row index that is a bool, a float or a string
        draw(st.sampled_from(qrows))["i"] = draw(
            st.booleans() | st.floats(-1, 4) | st.sampled_from(["0", "1", "1.0", ""]))
    # qrow lines as json.dumps writes them take the all-zero row recogniser
    # and the run scanner; compact ones take json.loads
    qrow_separators = draw(st.sampled_from([None, (",", ":")]))
    return "".join(json.dumps(d, sort_keys=True,
                              separators=qrow_separators if d["t"] == "qrow" else None)
                   + "\n" for d in recs)


@given(hostile_traces())
@settings(max_examples=200, deadline=None)
def test_hostile_state_records_exit_0_1_or_2(tmp_path_factory, text):
    trace = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    trace.write_text(text)
    assert cli.main(["verify", str(trace)]) in (0, 1, 2)


@given(hostile_traces(kinds=("ev",)))
@settings(max_examples=200, deadline=None)
def test_hostile_event_records_exit_0_1_or_2(tmp_path_factory, text):
    trace = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    trace.write_text(text)
    assert cli.main(["verify", str(trace)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# The all-zero qrow recogniser equals json.loads wherever it answers
# ---------------------------------------------------------------------------

_QROW_EDITS = ["compact", "extra-space", "trailing-space", "leading-zero-i",
               "negative-i", "exponent-i", "string-i", "non-ascii-digit-i",
               "escaped-entry", "negative-zero-entry", "wider", "narrower",
               "repeated-key", "unclosed"]


@st.composite
def qrow_lines(draw, i=st.integers(0, 12), width=st.integers(1, 5)):
    """A canonical all-zero qrow line, as ``json.dumps(..., sort_keys=True)``
    writes it, with up to two edits from ``_QROW_EDITS``."""
    i, width = draw(i), draw(width)
    key_text, entries = str(i), ['"0,0"'] * width
    item_sep, key_sep, extra = ", ", ": ", ""
    edits = draw(st.lists(st.sampled_from(_QROW_EDITS), max_size=2, unique=True))
    for edit in edits:
        if edit == "compact":
            item_sep, key_sep = ",", ":"
        elif edit == "leading-zero-i":
            key_text = "0" + key_text
        elif edit == "negative-i":
            key_text = "-1"
        elif edit == "exponent-i":
            key_text = "1e0"
        elif edit == "string-i":
            key_text = json.dumps(key_text)
        elif edit == "non-ascii-digit-i":
            key_text = "\u0661"
        elif edit in ("escaped-entry", "negative-zero-entry") and entries:
            k = draw(st.integers(0, len(entries) - 1))
            entries[k] = '"\\u0030,0"' if edit == "escaped-entry" else '"-0,0"'
        elif edit == "wider":
            entries.append('"0,0"')
        elif edit == "narrower" and entries:
            entries.pop()
        elif edit == "repeated-key":
            key, value = draw(st.sampled_from([("i", str(i + 1)), ("t", '"qrow"'),
                                               ("v", '["0,0"]')]))
            extra = f'{item_sep}"{key}"{key_sep}{value}'
    line = (f'{{"i"{key_sep}{key_text}{item_sep}"t"{key_sep}"qrow"{item_sep}'
            f'"v"{key_sep}[{item_sep.join(entries)}]{extra}}}')
    for edit in edits:
        if edit == "extra-space":
            k = draw(st.integers(0, len(line)))
            line = line[:k] + " " + line[k:]
        elif edit == "trailing-space":
            line += " "
        elif edit == "unclosed":
            line = line[:-1] + draw(st.sampled_from([" ", "]", ","]))
    return line


def _loads_or_none(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


@given(qrow_lines(), qrow_lines(), qrow_lines())
@settings(max_examples=300, deadline=None)
def test_zero_qrow_recogniser_equals_json_loads_or_none(line, before, after):
    """On the line alone, and in place between two other lines with the
    bounds of that line."""
    got, want = traceio._zero_qrow(line, 0, len(line)), _loads_or_none(line)
    if got is not None:
        assert repr(got) == repr(want)
    canonical = (type(want) is dict and want.keys() == {"i", "t", "v"}
                 and type(want["i"]) is int and want["i"] >= 0 and want["t"] == "qrow"
                 and len(want["v"]) >= 1 and all(s == "0,0" for s in want["v"])
                 and json.dumps(want, sort_keys=True) == line)
    assert (got is not None) == canonical
    text = f"{before}\n{line}\n{after}"
    pos = len(before) + 1
    assert repr(traceio._zero_qrow(text, pos, pos + len(line))) == repr(got)


@pytest.mark.parametrize("digits,matched", [(18, True), (19, False)])
def test_zero_qrow_takes_an_index_of_at_most_18_digits(digits, matched):
    """A longer index is left to ``json.loads``, which reads the same record."""
    line = json.dumps({"i": int("9" * digits), "t": "qrow", "v": ["0,0"] * 3},
                      sort_keys=True)
    got = traceio._zero_qrow(line, 0, len(line))
    assert (got is not None) == matched
    if matched:
        assert got == json.loads(line)


def _reference_parse_run(text):
    """``parse_run`` calling ``json.loads`` on every line, as it did before
    the all-zero row recogniser."""
    with mock.patch.object(traceio, "_zero_qrow", lambda text, pos, end: None):
        return _parse_outcome(text)


def _parse_outcome(text):
    """The trace ``parse_run`` makes of ``text``, written back, or the
    message of the ``TraceError`` it raises."""
    try:
        return traceio.serialize_run(*traceio.parse_run(text))
    except traceio.TraceError as exc:
        return f"TraceError: {exc}"


def test_without_the_recogniser_no_line_is_read_as_a_run():
    """The reference patches the all-zero row recogniser to None, and that
    turns the run scanner off: every line is read by ``json.loads``."""
    text = _golden_trace_text("global-encrypt-d64")
    with mock.patch.object(traceio, "_zero_qrow", lambda text, pos, end: None):
        assert list(traceio._records(text)) == list(_splitlines_records(text))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_run_with_an_edited_zero_row_matches_the_reference(data):
    """Scenario (a), D=4, and the D=64 trace, whose rows 1-63 are one run of
    all-zero rows, with one of those qrow lines edited by ``qrow_lines``,
    given another index (out of order, repeated or outside the state),
    ended by "\\r\\n", or made the last line, with no line feed; or with
    that row and every zero row after it moved two indices up, or one entry
    narrower: the same execution or the same error as the reference."""
    name = data.draw(st.sampled_from(["scenario-a", "global-encrypt-d64"]))
    lines = _golden_trace_text(name).splitlines()
    zero_rows = [k for k, line in enumerate(lines)
                 if traceio._zero_qrow(line, 0, len(line)) is not None]
    assert len(zero_rows) == {"scenario-a": 2, "global-encrypt-d64": 63}[name]
    k = data.draw(st.sampled_from(zero_rows))
    row, ending = json.loads(lines[k]), "\n"
    edit = data.draw(st.sampled_from(["qrow_lines", "qrow_lines", "index", "crlf",
                                      "last", "shift", "narrow"]))
    if edit == "qrow_lines":
        lines[k] = data.draw(qrow_lines(i=st.just(row["i"]), width=st.just(len(row["v"]))))
    elif edit == "index":
        row["i"] = data.draw(st.integers(-1, len(row["v"]) + 2))
        lines[k] = json.dumps(row, sort_keys=True)
    elif edit == "crlf":
        lines[k] += "\r"
    elif edit == "last":
        del lines[k + 1:]
        ending = ""
    else:
        for j in zero_rows[zero_rows.index(k):]:
            row = json.loads(lines[j])
            if edit == "shift":
                row["i"] += 2
            else:
                row["v"].pop()
            lines[j] = json.dumps(row, sort_keys=True)
    text = "\n".join(lines) + ending
    assert _parse_outcome(text) == _reference_parse_run(text)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_zero_row_run_takes_only_canonical_lines(data):
    """A canonical all-zero qrow line, then lines for the next row indices,
    each canonical or edited by ``qrow_lines``, some given the index before
    or after or a wider row, ended by "\\n" or "\\r\\n", the last maybe by
    nothing.  Each line a run takes is ``json.loads`` of that line, exactly
    as ``json.dumps`` writes it, ended by a line feed (or, for its first
    line, by the end of the text).  The run stops at the first line that is
    not the next one, and leaves it to the general path: expanded row by
    row, the records are those of a parse of every line."""
    width, first = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 12))
    lines = [json.dumps({"i": first, "t": "qrow", "v": ["0,0"] * width}, sort_keys=True)]
    for j in range(1, data.draw(st.integers(1, 6))):
        i = first + j + data.draw(st.sampled_from([0] * 6 + [-1, 1]))
        w = data.draw(st.sampled_from([width] * 5 + [width + 1]))
        lines.append(data.draw(st.just(json.dumps({"i": i, "t": "qrow", "v": ["0,0"] * w},
                                                  sort_keys=True))
                               | qrow_lines(i=st.just(i), width=st.just(w))))
    endings = [data.draw(st.sampled_from(["\n"] * 4 + ["\r\n"])) for _ in lines]
    endings[-1] = data.draw(st.sampled_from(["\n", "\r\n", ""]))
    text = "".join(line + end for line, end in zip(lines, endings))

    def expanded():
        for lineno, d in traceio._records(text):
            if type(d.get("i")) is not range:
                yield lineno, d
                continue
            runs.append((lineno, d["i"], len(d["v"])))
            for k, i in enumerate(d["i"]):
                yield lineno + k, {"i": i, "t": "qrow", "v": d["v"]}

    def outcome(records):
        try:
            return list(records)
        except traceio.TraceError as exc:
            return f"TraceError: {exc}"

    runs = []
    assert outcome(expanded()) == outcome(_splitlines_records(text))
    ended = text.splitlines(keepends=True)
    for lineno, span, w in runs:
        canonical = [json.dumps({"i": i, "t": "qrow", "v": ["0,0"] * w}, sort_keys=True)
                     for i in range(span.start, span.stop + 1)]
        taken = ended[lineno - 1:lineno - 1 + len(span)]
        assert taken[0] in (canonical[0] + "\n", canonical[0])
        assert taken[1:] == [line + "\n" for line in canonical[1:-1]]
        assert ended[lineno - 1 + len(span):][:1] != [canonical[-1] + "\n"]


# Every character ``str.splitlines`` ends a line at, alone or as "\r\n", and
# line feeds that make blank lines.
_LINE_BOUNDARIES = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                    "\u2028", "\u2029", "\n", "\n\n"]


def _splitlines_records(text):
    """``traceio._records`` as the loop it replaced: every line of
    ``enumerate(text.splitlines(), 1)`` that is not blank, read by
    ``json.loads``."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise traceio.TraceError(f"line {lineno}: {exc}") from exc
        yield lineno, d


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_run_with_line_boundaries_numbers_lines_as_splitlines(data):
    """Scenario (a) and the D=64 trace, with line boundaries inserted, all
    zero rows included, and their lines ended by line feeds, CRLFs or
    carriage returns: the same execution, or the same error with the same
    line number, as a parse of ``text.splitlines()``."""
    lines = _golden_trace_text(data.draw(st.sampled_from(
        ["scenario-a", "global-encrypt-d64"]))).splitlines()
    zero_rows = [k for k, line in enumerate(lines)
                 if traceio._zero_qrow(line, 0, len(line)) is not None]
    assert zero_rows
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.sampled_from(zero_rows) | st.integers(0, len(lines) - 1))
        at = data.draw(st.sampled_from([0, len(lines[k])]) | st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + data.draw(st.sampled_from(_LINE_BOUNDARIES)) + lines[k][at:]
    ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
    want = _parse_outcome(text)
    with mock.patch.object(traceio, "_records", _splitlines_records):
        assert _parse_outcome(text) == want
