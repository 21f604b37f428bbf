"""Command line: run scenarios, verify traces, batch over seeds, inspect.

Exit codes: 0 success (verification accepted), 1 verification rejected,
2 malformed input, a path that cannot be read or written, or usage error.
A trace naming an unknown classical update, or one that fails on its state,
does not replay: a rejection (exit 1), from ``verify`` and ``inspect`` alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .. import executions, qcore, qgo, verifier
from . import scenarios, scheduler, traceio

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2


def _read_text(path: str, error: type[Exception]) -> str:
    """The text of the UTF-8 file ``path``; one that cannot be read raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _load_config(path: str) -> scenarios.ScenarioConfig:
    text = _read_text(path, scenarios.ConfigError)
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, long int, deep nesting
        raise scenarios.ConfigError(f"config: {exc}") from None
    return scenarios.ScenarioConfig.from_dict(d)


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:  # checked as the config's own seed is
        cfg = scenarios.ScenarioConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    res = scheduler.run_simulation(cfg)
    text = traceio.serialize_run(res.execution, cfg, res.decisions)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"generated {len(res.execution.events)} events "
          f"(seed {cfg.seed}, base {cfg.base})", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    x, _, _ = traceio.parse_run(_read_text(args.trace, traceio.TraceError))
    cert = verifier.verify(x)
    if args.cert:
        with open(args.cert, "w") as fh:
            fh.write(traceio.serialize_certificate(cert))
    for stage, ok in cert.verdicts.items():
        print(f"  {stage}: {'ok' if ok else 'FAIL'}")
    if cert.accepted:
        print(f"accepted ({cert.swaps} swaps)")
        return EXIT_OK
    print(f"rejected: {cert.reason}")
    return EXIT_REJECTED


def _batch_one(arg):
    cfg_dict, seed = arg
    cfg = scenarios.ScenarioConfig.from_dict({**cfg_dict, "seed": seed})
    try:
        res = scheduler.run_simulation(cfg)
    except scheduler.SchedulerError as exc:
        return seed, None, f"generation failed: {exc}"
    cert = verifier.verify(res.execution)
    return seed, cert.accepted, cert.reason


def cmd_batch(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_BAD_INPUT
    cfg = _load_config(args.config)
    try:
        lo, hi = (int(v) for v in args.seeds.split(":"))
    except ValueError:
        lo = hi = 0
    if not 0 <= lo < hi:
        print(f"error: bad seed range {args.seeds!r}, expected LO:HI with 0 <= LO < HI",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    work = [(cfg.to_dict(), s) for s in range(lo, hi)]
    workers = min(args.jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_one, work))
    else:
        results = [_batch_one(w) for w in work]
    bad = 0
    for seed, accepted, reason in results:
        if accepted is not True:
            bad += 1
            print(f"seed {seed}: {'rejected' if accepted is False else 'error'} "
                  f"- {reason}")
    print(f"{len(results) - bad}/{len(results)} accepted")
    return EXIT_OK if bad == 0 else EXIT_REJECTED


def cmd_inspect(args) -> int:
    x, cfg, _ = traceio.parse_run(_read_text(args.trace, traceio.TraceError))
    if cfg is not None:
        print(f"scenario: {cfg.base} procs={cfg.procs} seed={cfg.seed}")
    print(f"{len(x.events)} events, "
          f"{len(x.initial.quantum.space.registers)} quantum registers")
    for i, ev in enumerate(x.events):
        kind = type(ev).__name__
        extra = ""
        if isinstance(ev, executions.Apply):
            extra = f"{ev.name} -> {ev.outcome!r}"
        elif isinstance(ev, executions.Send):
            extra = f"msg {ev.msg.msg_id} on {ev.msg.channel}"
            if ev.msg.marker:
                extra += f" (marker {ev.msg.marker})"
        elif isinstance(ev, executions.Receive):
            extra = f"msg {ev.msg_id} on {ev.chan}"
        elif isinstance(ev, executions.Invoke):
            extra = ev.gid
        print(f"  {i:4d} eid={ev.eid:<4d} {ev.label:<8s} {kind:<8s} {extra}")
    if len({ev.eid for ev in x.events}) != len(x.events):  # refused at verify's well-formed
        print("event ids are not unique")
        return EXIT_REJECTED
    try:
        states = executions.replay(x)
    except executions.ReplayError as exc:
        print(f"does not replay: {exc}")
        return EXIT_REJECTED
    print(f"final trace: {states[-1].quantum.trace:.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgosim",
        description="simulate and verify marker-based global operations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="generate one execution")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="verify a trace against the atomic spec")
    p.add_argument("trace")
    p.add_argument("--cert", default=None, help="write the certificate here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("batch", help="run and verify a range of seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0:20", help="seed range LO:HI")
    p.add_argument("--jobs", type=int, default=1, help="capped at seeds and CPUs")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("inspect", help="print a human-readable trace summary")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, traceio.TraceError,
            scenarios.UnknownScenario, scenarios.ConfigError, scheduler.SchedulerError,
            qgo.UnknownGlobalOp, qcore.CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
