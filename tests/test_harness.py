import functools
import hashlib
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgosim import executions, qcore, verifier
from qgosim.harness import cli, traceio
from qgosim.harness.scenarios import (
    BASE_ALGORITHMS,
    ConfigError,
    ScenarioConfig,
    build_scenario,
    correction_unitary,
    bell_measurement,
)
from qgosim.harness.scheduler import SchedulerError, run_simulation
from test_verifier import REFUSED_ATOMIC_STEPS, trace_text


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
            rho = reduced.entries / reduced.entries.trace()
            psi = np.array([0.6, 0.8j])
            assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-9)

    def test_bell_measurement_is_valid_operation(self):
        assert qcore.validate_operation(bell_measurement()).valid

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
        ({"base": "token-ring", "procs": 0}, "config: 'procs' is less than 1"),
        ({"base": "token-ring", "procs": 2, "base_params": {"qubit_per_proc": 2}},
         "base_params has unknown key 'qubit_per_proc'"),
        ({"base": "token-ring", "base_params": {"max_hops": "x"}},
         "base_params: 'max_hops' is not an int"),
        ({"base": "token-ring", "base_params": {"epr_pair": 1}},
         "base_params: 'epr_pair' is not a bool"),
        ({"base": "teleport", "base_params": {"n_msgs": 2}},
         "base_params has unknown key 'n_msgs'"),
    ], ids=["not-object", "bool-seed", "params-list", "invocations-object",
            "invocation-string", "no-leader", "invocation-key", "no-procs",
            "misspelt-param", "param-string", "param-not-bool", "param-of-another-base"])
    def test_malformed_config_rejected(self, d, message):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert str(exc.value) == message

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
        a = run_simulation(self.cfg())
        b = run_simulation(self.cfg())
        t1 = traceio.serialize_run(a.execution, a.config, a.decisions)
        t2 = traceio.serialize_run(b.execution, b.config, b.decisions)
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

    def test_unknown_policy(self):
        with pytest.raises(SchedulerError):
            run_simulation(self.cfg(policy="lifo"))


class TestTraceIO:
    def any_run(self, seed=0, gid="snapshot-measure"):
        cfg = ScenarioConfig(
            base="teleport", procs=2,
            invocations=[{"gid": gid, "leader": "p1", "after_step": 1}],
            seed=seed,
        )
        return run_simulation(cfg)

    def test_roundtrip_is_byte_identical(self):
        res = self.any_run()
        text = traceio.serialize_run(res.execution, res.config, res.decisions)
        x, cfg, dec = traceio.parse_run(text)
        assert traceio.serialize_run(x, cfg, dec) == text

    def test_roundtrip_replays_identically(self):
        res = self.any_run(seed=3, gid="global-encrypt")
        text = traceio.serialize_run(res.execution, res.config, res.decisions)
        x, _, _ = traceio.parse_run(text)
        a = executions.replay(res.execution)[-1]
        b = executions.replay(x)[-1]
        from qgosim import sysmodel
        assert sysmodel.states_identical(a, b)

    def test_malformed_trace_rejected(self):
        with pytest.raises(traceio.TraceError):
            traceio.parse_run("not json\n")
        with pytest.raises(traceio.TraceError):
            traceio.parse_run('{"t": "ev", "k": "invoke"}\n')  # no header

    def test_certificate_serializes(self):
        res = self.any_run()
        cert = verifier.verify(res.execution)
        text = traceio.serialize_certificate(cert)
        head = json.loads(text.splitlines()[0])
        assert head["accepted"] is True
        assert head["verdicts"]["spec-replay"] is True


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
        text = traceio.serialize_run(res.execution, res.config, res.decisions)
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

    def test_send_with_forged_pending_outcome_rejected(self, tmp_path):
        cfg = ScenarioConfig(
            base="ping", procs=2, base_params={"n_msgs": 1},
            invocations=[{"gid": "record-only", "leader": "p0", "after_step": 1}],
            seed=0,
        )
        res = run_simulation(cfg)
        lines = traceio.serialize_run(res.execution, cfg, res.decisions).splitlines()
        k = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("k") == "send"
                 and not json.loads(line)["protocol"])
        rec = json.loads(lines[k])
        rec["msg"]["pending"] = "forged"
        lines[k] = json.dumps(rec, sort_keys=True)
        trace = tmp_path / "pending.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert "well-formed: FAIL" in r.stdout
        (reason,) = [l for l in r.stdout.splitlines() if l.startswith("rejected:")]
        assert "sent with a pending outcome" in reason

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
    def _drop_row(recs):
        return [d for d in recs if not (d["t"] == "qrow" and d["i"] == 1)]

    @staticmethod
    def _unowned_register(recs):
        del next(d for d in recs if d["t"] == "quantum")["own"]["1"]
        return recs

    @staticmethod
    def _repeated_procs(recs):
        return recs + [{"t": "procs", "names": ["p1", "p0"]}]

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

    @pytest.mark.parametrize("mutate, message", [
        ("_drop_quantum", "error: trace has no quantum record"),
        ("_repeated_procs", "error: trace has two procs records"),
        ("_repeated_quantum", "error: trace has two quantum records"),
        ("_bad_qrow_value", 'error: bad initial state: row 0 holds a value that is not "re,im"'),
        ("_drop_row", "error: quantum state has no row 1"),
        ("_stray_row", "error: bad initial state: row 99 is outside 0..3"),
        ("_repeated_row", "error: bad initial state: row 3 is repeated"),
        ("_short_row", "error: bad initial state: row 2 is not a list of 4 entries"),
        ("_indefinite_state", "error: bad initial state: ShapeError('matrix has eigenvalue -1"),
        ("_unowned_register", "error: register 1 has no owner"),
        ("_message_register_owned_by_proc", "error: bad initial state: OwnershipViolation("),
        ("_sigma_not_object", "error: proc record of 'p1': sigma is not a JSON object"),
        ("_inbox_not_list", "error: proc record of 'p1': inbox is not a list"),
        ("_repeated_proc", "error: trace has two proc records for 'p0'"),
        ("_unknown_proc", "error: proc record names unknown processor 'p9'"),
        ("_drop_proc", "error: trace has no proc record for 'p1'"),
        ("_ext_not_register", "error: proc record of 'p1': ext is neither null nor an "
                              "idle protocol register"),
        ("_ext_res_list", "error: proc record of 'p1': ext is neither null nor an "
                          "idle protocol register"),
    ], ids=["no-quantum", "repeated-procs", "repeated-quantum", "bad-qrow-value",
            "missing-row", "stray-row", "repeated-row", "short-row", "indefinite-state",
            "unowned-register", "ownership-partition", "sigma-not-object",
            "inbox-not-list", "repeated-proc", "unknown-proc", "missing-proc",
            "ext-not-register", "ext-res-list"])
    def test_malformed_initial_state_exits_2(self, tmp_path, mutate, message):
        recs = getattr(self, mutate)(self.epr_trace_records())
        trace = tmp_path / "bad.jsonl"
        trace.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in recs))
        r = self.run_cli("verify", str(trace))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1
        assert r.stderr.startswith(message)

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
        ({"base": "token-ring", "procs": 0}, "error: config: 'procs' is less than 1"),
        ({"base": "token-ring", "procs": 2, "base_params": {"qubit_per_proc": 2}},
         "error: base_params has unknown key 'qubit_per_proc'"),
        ({"base": "token-ring", "base_params": {"max_hops": "x"}},
         "error: base_params: 'max_hops' is not an int"),
    ], ids=["empty", "procs-string", "misspelt-key", "after-step-string", "no-procs",
            "misspelt-param", "param-string"])
    @pytest.mark.parametrize("cmd", ["run", "batch"])
    def test_malformed_config_exits_2(self, tmp_path, cmd, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        r = self.run_cli(cmd, "--config", str(path))
        assert r.returncode == 2
        assert r.stderr == message + "\n"

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

    @pytest.mark.parametrize("seeds", ["5:2", "5:5"], ids=["reversed", "empty"])
    def test_empty_seed_range_exits_2(self, tmp_path, seeds):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": "ping", "procs": 2}))
        r = self.run_cli("batch", "--config", str(path), "--seeds", seeds)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (f"error: bad seed range {seeds!r}, "
                            "expected LO:HI with LO < HI\n")

    @pytest.mark.parametrize("config, message", [
        ({"base": "ping", "policy": "lifo"}, "error: unknown policy 'lifo'"),
        ({"base": "ping", "invocations": [{"gid": "nonesuch", "leader": "p0"}]},
         "error: unknown global operation 'nonesuch'"),
    ], ids=["unknown-policy", "unknown-gid"])
    def test_config_that_cannot_run_exits_2(self, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        r = self.run_cli("run", "--config", str(path))
        assert r.returncode == 2
        assert r.stderr == message + "\n"

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
        r = self.run_cli("inspect", str(trace), "--causality")
        assert r.returncode == 0 and "events" in r.stdout
        r = self.run_cli("batch", "--config", str(cfg), "--seeds", "0:4")
        assert r.returncode == 0
        assert "4/4 accepted" in r.stdout


# sha256 of ``serialize_run`` for pinned configurations.  The kernels may
# change how they compute a state, but never which outcomes a seed draws:
# the same seed must give a byte-identical trace.
GOLDEN_TRACES = {
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
}


@functools.cache
def _golden_trace_text(name):
    cfg, _ = GOLDEN_TRACES[name]
    res = run_simulation(ScenarioConfig.from_dict(cfg))
    return traceio.serialize_run(res.execution, res.config, res.decisions)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_trace(name):
    text = _golden_trace_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TRACES[name][1]


# sha256 of ``serialize_certificate`` for the golden traces, each parsed back
# and verified: they pin the verdicts, swap counts, event orders and
# specification events, whatever representation the quantum state has.
GOLDEN_CERTIFICATES = {
    "scenario-a": "15aae863b151575092b4cdd2e007846b53299b53f2658a44872bcb973256a854",
    "global-encrypt-d64":
        "3f0ce22269ea942108fb12d862b74d7afd91afdb3c7ec3d207bf44b24568d1ed",
    "ring-quantum-wide":
        "49aeabe1047e233491f8d3d44d302b5e44f9c0e91f6267a4ba8daf6452d9c646",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFICATES))
def test_golden_certificate(name):
    x, _, _ = traceio.parse_run(_golden_trace_text(name))
    cert = traceio.serialize_certificate(verifier.verify(x))
    assert hashlib.sha256(cert.encode()).hexdigest() == GOLDEN_CERTIFICATES[name]


def test_verifying_a_wide_trace_builds_no_dense_derived_state():
    """On scenario (d), D=1024, only the parsed initial state has a D×D
    matrix (its rows).  Every state verify derives stays a factor: no
    V·V† is formed, whole (``_gram``) or a block of rows at a time
    (``_row_blocks``, the exact branch of ``states_close``)."""
    x, _, _ = traceio.parse_run(_golden_trace_text("ring-quantum-wide"))
    with mock.patch.object(qcore, "_gram", side_effect=AssertionError("V·V†")), \
            mock.patch.object(qcore, "_row_blocks", side_effect=AssertionError("rows")):
        assert verifier.verify(x).accepted


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
    """Scenario (a) with up to three edits inside its records of the given
    kinds (by default procs, proc (name, sigma and ext), quantum (regs and
    own) and qrow): a value replaced, an entry deleted, or a record repeated
    or dropped."""
    recs = [json.loads(line) for line in _golden_trace_text("scenario-a").splitlines()]
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
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in recs)


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
