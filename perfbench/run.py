#!/usr/bin/env python3
"""Benchmark launcher for the wsdelay delay pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload strip-maps --seed 1 --seconds 20 --trace 0

The launcher imports nothing numeric. It fixes the BLAS thread count in the
environment it passes on, starts PROBES probe workers that set up and run
the workload's first job alone, then the worker that runs the workload
(bench.py). Set-up is timed from process start to a worker's READY line.
setup_s and first_job_s are medians over every process started, since both
are paid once per process. The last line of standard output is the result
JSON. Any worker failure exits with code 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "bench.py")
WORKLOADS = ("strip-maps", "cavity-sweep", "sphere-routes")

# One BLAS thread: the OpenBLAS default of one thread per core made a single
# hard-cavity solve 2.5x slower on a shared 2-core machine, and let other
# tenants' load leak into every LU and matrix product.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES = 3
# The run deadline grows with --seconds. Each process gets PROCESS_S for its
# set-up and first job (measured: at most 5 s); the main worker also gets
# ROUND_S to finish the round it is in when --seconds have passed and to run
# its once-per-run checks (a round takes 8-16 s). With --seconds 20 the
# deadline is 160 s.
PROCESS_S = 20.0
ROUND_S = 60.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, probe, deadline):
    """Run one worker; return (set-up seconds, stdout after READY)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
            raise WorkerError(f"worker set-up failed (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, rest


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + (PROBES + 1) * PROCESS_S + args.seconds + ROUND_S
    try:
        setups, firsts = [], []
        for _ in range(0 if args.trace else PROBES):
            setup_s, out = start_worker(args, True, deadline)
            setups.append(setup_s)
            firsts.append(last_json(out)["first_job_s"])
        setup_s, out = start_worker(args, False, deadline)
        result = last_json(out)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = result["metrics"]
        firsts.append(metrics["first_job_s"]["value"])
        metrics["first_job_s"]["value"] = statistics.median(firsts)
        metrics["setup_s"] = {"value": statistics.median(setups + [setup_s]), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
