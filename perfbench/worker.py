"""One round of a workload, in a fresh process (started by run.py).

Setup runs from interpreter start until sbmchroma is imported and the
workload's config is parsed and validated; the parent reads the end of that
span from `ready` (CLOCK_MONOTONIC, shared by all processes).  Then the
experiment runs once with `workers: 1`, and wall time, CPU time and peak RSS
are taken before anything else happens.  The host's speed is gauged by the
fixed reference computation of reference.py: right after setup, and then
all through the experiment, whose times (and spans) exclude the samples'
own.  run.py states the times at a fixed host speed.  With --trace the tracer's wrappers are installed around the
experiment and the traced calls are checked after it; networkx and the
checks load only then.

Prints one JSON object on its last line of standard output.
"""

import time  # first, so that setup covers every other import

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="report path (omit to stop after setup)")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import sbmchroma
    from sbmchroma import experiment
    from workloads import WORKLOADS

    if not os.path.abspath(sbmchroma.__file__).startswith(SRC + os.sep):
        print(f"sbmchroma imported from {sbmchroma.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    config = WORKLOADS[args.workload](args.seed)
    cfg = experiment.ExperimentConfig.from_dict(config)
    result = {"ready": time.monotonic(), "backend": sbmchroma.KERNEL_BACKEND}
    from reference import BUFFER_MB, Sampler, time_chunks
    setup_ref = time_chunks()
    result["setup_ref_s"] = setup_ref[0]
    if args.out is None:
        print(json.dumps(result))
        return 0

    # The host's speed is sampled all through the experiment.  A traced
    # round's spans run on a clock that stops while a sample runs.
    sampler = Sampler()
    sampler.install()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.wall_s)
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    experiment.run_experiment(cfg, args.out)
    t1, cpu1 = time.perf_counter(), time.process_time()
    sampler.uninstall()
    result.update(
        experiment_s=t1 - t0 - sampler.wall_s,
        cpu_s=cpu1 - cpu0 - sampler.cpu_s,
        # less the gauge's buffer, which stays resident all through the round
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - BUFFER_MB,
        samples=sampler.count,
        ref_wall_s=sampler.wall_s / sampler.count,
        ref_cpu_s=sampler.cpu_s / sampler.count,
    )
    if tracer is not None:
        tracer.uninstall()
        from checks import check_traced_calls
        layers = tracer.layer_times()
        result.update(
            root_s=tracer.root_seconds(),
            self_sum_s=sum(self_s for _, _, self_s in layers.values()),
            layers=layers,
            counts=tracer.counts,
            failed=[[list(row) if row else None, problems] for row, problems
                    in check_traced_calls(config, tracer.calls).items()],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
