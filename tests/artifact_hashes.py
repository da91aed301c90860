"""Hash every artifact of a fixed set of scenario runs, for refactors that
must keep the outputs byte-identical.

    OPENBLAS_NUM_THREADS=1 python tests/artifact_hashes.py [RUN ...]

Each run goes through cli.main into a temporary directory. The script
prints one `sha256  run/file` line per artifact, one for the run's stdout
(with the output directory replaced by <out>) and one `exit N  run` line,
all sorted. Diff the listing of two trees to compare them; the package is
imported from the src/ directory next to this file. Named RUNs restrict the
listing to those runs. The runs are the five acceptance configs on the
default 301 x 301 grid, the two strip configs of the strip-maps benchmark
(101 x 101, four exported modes), the a = 2 cylinder soft and hard, the
fourteen sphere configs of the sphere-routes benchmark (soft and hard,
l_max 3 to 9 at kR 200 to 400, with both sphere checks), and the a = 1
sphere soft and hard at l_max 18, whose volume routes take the boundary
condition's terms from degree 7 on, and one custom scenario: a convex
pentagon off the origin (101 x 101, one exported mode), read from a vertex
file beside its config. Not collected by pytest; the whole listing takes
about 20 s on 2 cores.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from wsdelay import cli  # noqa: E402

# name -> (config keys, extra command-line arguments)
RUNS = {
    "strip_soft": (dict(scenario="strip", bc="soft", k=1.0, modes=111), ["--modes", "1,2"]),
    "strip_hard": (dict(scenario="strip", bc="hard", k=1.0, modes=111), ["--modes", "1,2"]),
    **{
        f"cavity_{bc}_w{w}": (dict(scenario="cavity", bc=bc, k=1.0, w=w, modes=71),
                              ["--modes", "1,2"])
        for bc, w in (("hard", 3), ("soft", 3), ("soft", 5))
    },
    **{
        f"strip_{bc}_101": (dict(scenario="strip", bc=bc, k=1.0, modes=111,
                                 grid_nx=101, grid_ny=101), ["--modes", "1,2,56,111"])
        for bc in ("soft", "hard")
    },
    **{
        f"cylinder_{bc}": (dict(scenario="cylinder", bc=bc, k=1.0, a=2.0), ["--modes", "1"])
        for bc in ("soft", "hard")
    },
    **{
        f"sphere_{bc}_l{lmax}": (dict(scenario="sphere", bc=bc, k=1.0, a=2.0,
                                      modes=(lmax + 1) ** 2, vol_kr=kr),
                                 ["--check", "volume-q,appendix-b"])
        for bc in ("soft", "hard")
        for lmax, kr in ((l, 200 + round(200 * (l - 3) / 6)) for l in range(3, 10))
    },
    **{
        f"sphere_{bc}_a1_l18": (dict(scenario="sphere", bc=bc, k=1.0, a=1.0,
                                     modes=19 ** 2, vol_kr=300),
                                ["--check", "volume-q,appendix-b"])
        for bc in ("soft", "hard")
    },
    "custom": (dict(scenario="custom", bc="soft", k=1.0, grid_nx=101, grid_ny=101),
               ["--modes", "1"]),
}

# vertex files of the custom runs, written beside their configs: a convex
# pentagon that holds neither the origin nor a void
POLYLINES = {"custom": "0.5,-0.5\n2.5,-0.5\n3,1\n1.5,2\n0,1\n"}


def run(name, workdir):
    """Listing lines of one run."""
    keys, extra = RUNS[name]
    if name in POLYLINES:
        keys = {**keys, "polyline": os.path.join(workdir, f"{name}.csv")}
        with open(keys["polyline"], "w") as fh:
            fh.write(POLYLINES[name])
    cfg = os.path.join(workdir, f"{name}.cfg")
    with open(cfg, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in keys.items())
    out = os.path.join(workdir, name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--config", cfg, "--out", out, *extra])
    lines = [f"exit {code}  {name}"]
    blobs = {"stdout": stdout.getvalue().replace(out, "<out>").encode()}
    if os.path.isdir(out):
        for file in os.listdir(out):
            with open(os.path.join(out, file), "rb") as fh:
                blobs[file] = fh.read()
    lines += [f"{hashlib.sha256(b).hexdigest()}  {name}/{f}" for f, b in blobs.items()]
    return lines


def main(argv):
    names = argv or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"unknown runs {unknown}; known: {', '.join(RUNS)}")
    with tempfile.TemporaryDirectory() as workdir:
        lines = [line for name in names for line in run(name, workdir)]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main(sys.argv[1:])
