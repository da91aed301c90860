"""Benchmark worker: one workload as a closed loop in one process.

Started by run.py, which fixes the BLAS thread count before this process
loads numpy. The worker imports wsdelay from the checkout's src/ directory,
builds the workload's inputs, prints READY, then runs whole rounds of jobs
(every input once per round) until --seconds have passed. The first job of
the first round is always the same input; the seed orders the others. After
each job the outputs are checked; a job whose check misses counts as a
failed operation. The last line printed is the result JSON.

    --trace 0: end-to-end metrics (first_job_s, job_s, jobs_per_s, peak_rss_mb)
    --trace 1: per-layer metrics from spans around each layer (tracing.py)
    --probe:   set up, time the first job alone, print {"first_job_s": t}
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import wsdelay  # noqa: E402
import wsdelay.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

if not os.path.abspath(wsdelay.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"wsdelay imported from {wsdelay.__file__}, not from {SRC}")

SOFT, HARD = wsdelay.BoundaryCondition.SOUND_SOFT, wsdelay.BoundaryCondition.SOUND_HARD


def quiet_cli(argv):
    """cli.main with its console output discarded; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return wsdelay.cli.main(argv)


def write_config(path, **keys):
    with open(path, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in keys.items())
    return path


# ---------------------------------------------------------------------------
# workloads: inputs(workdir) -> jobs, first first; run(job, out) -> result;
# check(job, result, out) -> problems
# ---------------------------------------------------------------------------
class StripMaps:
    """The paper's strip scenarios through cli.main, field maps included.

    The field grid is 101 x 101 instead of the CLI's default 301 x 301: a
    default-grid job takes 21-30 s on a shared 2-core machine, so only two
    fit in a run and their times spread by 19 % between runs. Field maps
    still take 70 % of a job.
    """

    EXPORTS = "1,2,56,111"
    GRID = 101

    def __init__(self):
        self.soft_range = None      # ballistic range of the last soft job
        self.radius = max(np.hypot(*c) for c in wsdelay.make_strip().corners)

    def inputs(self, workdir):
        return [
            (bc, write_config(os.path.join(workdir, f"strip_{bc}.cfg"),
                              scenario="strip", bc=bc, k=1.0, modes=111,
                              grid_nx=self.GRID, grid_ny=self.GRID))
            for bc in ("soft", "hard")
        ]

    def run(self, job, out):
        return quiet_cli(["--config", job[1], "--out", out, "--modes", self.EXPORTS])

    def check(self, job, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        delays = checks.read_spectrum(os.path.join(out, "spectrum.csv"))
        cls = checks.read_classification(os.path.join(out, "classification.csv"))
        problems = checks.causality(delays, self.radius)
        problems += checks.decomposition(
            checks.read_matrix(os.path.join(out, "wmatrix.csv")), delays,
            checks.read_matrix(os.path.join(out, "qmatrix.csv")))
        for idx in self.EXPORTS.split(","):
            problems += checks.masked_zero(os.path.join(out, f"mode_{int(idx):03d}_field.csv"))
        if job[0] == "soft":
            problems += checks.soft_strip(delays, cls)
            self.soft_range = checks.ballistic_range(cls)
        else:
            problems += checks.hard_strip(cls)
            problems += checks.ballistic_match(checks.ballistic_range(cls), self.soft_range)
        return problems


class CavitySweep:
    """Delay spectra of the acceptance cavities through the library API."""

    K_GRID = (0.7, 0.8, 1.0)
    CAVITIES = ((HARD, 3.0), (SOFT, 3.0), (SOFT, 5.0))
    N_MAX = 35          # M = 71 ports

    def inputs(self, workdir):
        jobs = [(bc, w, k) for bc, w in self.CAVITIES for k in self.K_GRID]
        first = (HARD, 3.0, 0.8)
        return [first] + [j for j in jobs if j != first]

    def run(self, job, out):
        bc, w, k = job
        geom = wsdelay.make_cavity(w)
        mesh = wsdelay.mesh_geometry(geom, k)
        s = wsdelay.bem_smatrix(geom, bc, k, wsdelay.ModeSet.angular(self.N_MAX, k),
                                mesh=mesh, gate=None)

        def provider(kp):
            return wsdelay.bem_smatrix(geom, bc, kp, wsdelay.ModeSet.angular(self.N_MAX, kp),
                                       mesh=mesh, gate=None)

        sprime = wsdelay.smatrix_fd_derivative(provider, k)
        q = wsdelay.q_matrix(s, sprime, provenance="finite-difference")
        dec = wsdelay.ws_decompose(q, s)
        gates = wsdelay.validate_smatrix(s)
        radius = max(np.hypot(*c) for c in geom.corners)
        return s.matrix, sprime.matrix, q.matrix, dec, gates, radius

    def check(self, job, result, out):
        s, sprime, q, dec, gates, radius = result
        problems = checks.smatrix_gates(s)
        if gates.passed != (not problems):
            problems.append(f"program gate verdict {gates.passed} disagrees with the check")
        problems += checks.presymmetry(s, sprime)
        problems += checks.causality(dec.delays, radius)
        problems += checks.decomposition(dec.w, dec.delays, q)
        return problems

    def validate(self):
        """BEM circular cylinder (a=2) against the closed-form S and S'."""
        k, a, n = 1.0, 2.0, 7
        geom = wsdelay.make_circle(a)
        mesh = wsdelay.mesh_geometry(geom, k)
        problems = []
        for bc in (SOFT, HARD):
            def provider(kp):
                return wsdelay.bem_smatrix(geom, bc, kp, wsdelay.ModeSet.angular(n, kp),
                                           mesh=mesh, gate=None)

            modes = wsdelay.ModeSet.angular(n, k)
            problems += checks.cylinder_agreement(
                provider(k).matrix,
                wsdelay.smatrix_fd_derivative(provider, k).matrix,
                wsdelay.mie_smatrix(2, bc, k, a, modes).matrix,
                wsdelay.mie_smatrix_deriv(2, bc, k, a, modes).matrix)
        return problems


class SphereRoutes:
    """Sphere scenarios through cli.main with the volume-q and appendix-b checks."""

    K, A = 1.0, 2.0
    # an odd number of sizes puts the median job mid-size, not between two
    # size groups of different cost
    L_MAX = range(3, 10)

    def inputs(self, workdir):
        jobs = []
        for bc in ("soft", "hard"):
            for lmax in self.L_MAX:
                kr = 200 + round(200 * (lmax - 3) / 6)   # kR from 200 to 400
                cfg = write_config(os.path.join(workdir, f"sphere_{bc}_{lmax}.cfg"),
                                   scenario="sphere", bc=bc, k=self.K, a=self.A,
                                   modes=(lmax + 1) ** 2, vol_kr=kr)
                jobs.append((bc, lmax, cfg))
        first = jobs[self.L_MAX.index(9)]      # soft, lmax 9, kR 400
        return [first] + [j for j in jobs if j is not first]

    def run(self, job, out):
        return quiet_cli(["--config", job[2], "--out", out,
                          "--check", "volume-q,appendix-b"])

    def check(self, job, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        bc, lmax, _ = job
        delays = checks.read_spectrum(os.path.join(out, "spectrum.csv"))
        q = checks.read_matrix(os.path.join(out, "qmatrix.csv"))
        problems = checks.causality(delays, self.A)
        problems += checks.decomposition(
            checks.read_matrix(os.path.join(out, "wmatrix.csv")), delays, q)
        modes = wsdelay.ModeSet.spherical(lmax, self.K)
        bcond = SOFT if bc == "soft" else HARD
        q_closed, _ = checks.q_from(
            wsdelay.mie_smatrix(3, bcond, self.K, self.A, modes).matrix,
            wsdelay.mie_smatrix_deriv(3, bcond, self.K, self.A, modes).matrix)
        problems += checks.volume_routes(
            checks.read_volume_diagonals(os.path.join(out, "volumeq_residuals.csv")), q_closed)
        if bc == "soft":
            problems += checks.monopole(delays, self.A)
        problems += checks.gate_limits(checks.read_gates(os.path.join(out, "report.txt")),
                                       checks.APPENDIX_B_LIMITS)
        return problems


WORKLOADS = {"strip-maps": StripMaps, "cavity-sweep": CavitySweep,
             "sphere-routes": SphereRoutes}


def dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_loop(workload, jobs, seed, seconds, tracer, workdir):
    """Whole rounds of jobs until `seconds` have passed; returns job times
    and the failures, one entry per failed job."""
    rng = random.Random(seed)
    order = jobs[:1] + rng.sample(jobs[1:], len(jobs) - 1)
    times, failures = [], []
    start = time.perf_counter()
    while True:
        for job in order:
            out = os.path.join(workdir, f"job{len(times)}")
            span = tracer.begin("job") if tracer else None
            t0 = time.perf_counter()
            try:
                result = workload.run(job, out)
            except wsdelay.WsdelayError as exc:
                result = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.end(span)
                tracer.spans[span][4]["write_bytes"] = dir_bytes(out)
            times.append(t1 - t0)
            if isinstance(result, Exception):
                problems = [f"{type(result).__name__}: {result}"]
            else:
                problems = workload.check(job, result, out)
            if problems:
                failures.append((job, problems))
            shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - start >= seconds:
            return times, failures
        order = rng.sample(jobs, len(jobs))


def job_label(job):
    return " ".join(getattr(x, "value", os.path.basename(str(x))) for x in job)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        jobs = workload.inputs(workdir)
        print("READY", flush=True)
        if args.probe:
            t0 = time.perf_counter()
            try:
                workload.run(jobs[0], os.path.join(workdir, "probe"))
            except wsdelay.WsdelayError:
                pass        # the main worker runs, checks and counts this job
            print(json.dumps({"first_job_s": time.perf_counter() - t0}))
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        times, failures = run_loop(workload, jobs, args.seed, args.seconds, tracer, workdir)
        validation = workload.validate() if hasattr(workload, "validate") else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    seen = set()
    for job, problems in failures:
        if job_label(job) not in seen:
            seen.add(job_label(job))
            print(f"failed: {job_label(job)}: {'; '.join(problems)}", file=sys.stderr)
    for problem in validation:
        print(f"validation: {problem}", file=sys.stderr)

    if tracer:
        metrics = tracing.layer_metrics(tracer.spans)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    else:
        metrics = {
            "first_job_s": {"value": times[0], "unit": "s"},
            "job_s": {"value": statistics.median(times[1:] or times), "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    print(json.dumps({"correct": not validation, "attempted": len(times),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
