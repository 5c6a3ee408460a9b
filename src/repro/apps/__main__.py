"""CLI: run any benchmark app from the command line.

Examples::

    python -m repro.apps queens --machine ipsc2 -P 16 --set n=8 grainsize=3
    python -m repro.apps tree --balancer acwn --queueing lifo
    python -m repro.apps tsp --set n=10 propagation=lazy --timeline
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.serving import SERVING_TRACE_KINDS
from repro.bench.harness import APPS
from repro.machine.presets import MACHINE_PRESETS, make_machine
from repro.trace.timeline import Timeline


def _parse_value(text: str):
    """Best-effort literal parsing for --set key=value pairs."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run one benchmark application on a simulated machine.",
    )
    parser.add_argument("app", choices=sorted(APPS), help="application name")
    parser.add_argument("--machine", default="ipsc2",
                        choices=sorted(MACHINE_PRESETS))
    parser.add_argument("-P", "--pes", type=int, default=8)
    parser.add_argument("--queueing", default=None)
    parser.add_argument("--balancer", default="random")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sparse", action="store_true",
                        help="sparse-PE mode: skip the init broadcast and "
                             "materialize only touched ranks (large P)")
    parser.add_argument("--timeline", action="store_true",
                        help="print an ASCII execution timeline")
    parser.add_argument("--set", nargs="*", default=[], metavar="K=V",
                        help="override app parameters (e.g. n=9 grain=4)")
    args = parser.parse_args(argv)

    spec = APPS[args.app]
    params = dict(spec.defaults)
    for pair in args.set:
        if "=" not in pair:
            parser.error(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = _parse_value(value)
    if args.queueing:
        params["queueing"] = args.queueing
    params.setdefault("balancer", args.balancer)
    if args.timeline:
        # exec_begin/exec_end rows for the timeline view, plus the sends
        # and deliveries serving's latency digest reads.
        params["trace_events"] = SERVING_TRACE_KINDS

    machine = make_machine(args.machine, args.pes, sparse=args.sparse)
    answer, result = spec.runner(machine, seed=args.seed, **params)

    print(f"app={args.app} machine={args.machine} P={args.pes} "
          f"queueing={params.get('queueing', 'fifo')} "
          f"balancer={params.get('balancer', '-')}")
    print(f"answer    : {str(answer)[:200]}")
    print(f"virtual   : {result.time * 1e3:.3f} ms")
    print(f"host      : {result.host_seconds:.3f} s "
          f"({result.events} events)")
    print(result.stats.summary())
    if args.timeline:
        print(Timeline(result.kernel.events).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
