"""Output checks for the benchmark jobs.

Each check returns a list of problems; an empty list means the output
passed. The checks use properties of the method (causality, unitarity, the
anti-Hermitian S^dag S' of a unitary S, exact zeros at masked grid points)
or a computation independent of the route under test (closed-form sphere
and cylinder matrices), never a stored copy of an earlier output. Every
tolerance is fixed here.
"""

import csv
import os

import numpy as np

SMATRIX_GATE = 1e-3       # the program's own unitarity/symmetry gate
PRESYM_LIMIT = 1e-3       # S unitary => S^dag S' anti-Hermitian
W_LIMIT = 1e-10           # W unitary and W diag(tau) W^dag = Q
CAUSAL_SLACK = 1e-8       # relative slack on the -2R causality bound
MONOPOLE_TOL = 1e-8
VOLUME_ROUTE_LIMIT = 1e-3
APPENDIX_B_LIMITS = {"appendix_b_algebraic": 1e-12, "appendix_b_numeric": 1e-2}
CYLINDER_S_LIMIT = 1e-4
CYLINDER_DELAY_LIMIT = 1e-5


# ---------------------------------------------------------------------------
# readers for the CLI's CSV outputs (kept apart from wsdelay.io on purpose)
# ---------------------------------------------------------------------------
def read_matrix(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows, cols = data[:, 0].astype(int), data[:, 1].astype(int)
    out = np.zeros((rows.max() + 1, cols.max() + 1), dtype=complex)
    out[rows, cols] = data[:, 2] + 1j * data[:, 3]
    return out


def read_spectrum(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def read_classification(path):
    with open(path, newline="") as fh:
        return [
            (row["label"], float(row["delay"]), row["warning"] == "1")
            for row in csv.DictReader(fh)
        ]


def read_gates(path):
    """gate name -> value from the [gates] section of report.txt."""
    gates = {}
    with open(path) as fh:
        lines = fh.read().split("[gates]", 1)[-1].split()
    for token in lines:
        name, sep, value = token.partition("=")
        if sep and name not in ("limit", "pass", "overall_pass"):
            gates[name] = float(value)
    return gates


def read_volume_diagonals(path):
    """route -> {index: value} from volumeq_residuals.csv."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            val = complex(float(row["value_re"]), float(row["value_im"]))
            out.setdefault(row["route"], {})[int(row["p"])] = val
    return out


# ---------------------------------------------------------------------------
# checks shared by every workload
# ---------------------------------------------------------------------------
def causality(delays, circumradius):
    bound = -2.0 * circumradius * (1.0 + CAUSAL_SLACK)
    low = float(np.min(delays))
    return [] if low >= bound else [f"delay {low:.6g} below -2R = {bound:.6g}"]


def decomposition(w, delays, q):
    problems = []
    m = w.shape[0]
    orth = float(np.linalg.norm(w.conj().T @ w - np.eye(m)))
    if not orth <= W_LIMIT:
        problems.append(f"W not unitary: {orth:.2e}")
    rebuilt = (w * delays) @ w.conj().T
    recon = float(np.linalg.norm(rebuilt - q) / max(np.linalg.norm(q), 1e-300))
    if not recon <= W_LIMIT:
        problems.append(f"W diag(tau) W^dag != Q: {recon:.2e}")
    return problems


def smatrix_gates(s):
    m = s.shape[0]
    unit = float(np.linalg.norm(s.conj().T @ s - np.eye(m)) / np.sqrt(m))
    sym = float(np.linalg.norm(s - s.T) / max(np.linalg.norm(s), 1e-300))
    problems = []
    if not unit <= SMATRIX_GATE:
        problems.append(f"S unitarity {unit:.2e} > {SMATRIX_GATE:g}")
    if not sym <= SMATRIX_GATE:
        problems.append(f"S symmetry {sym:.2e} > {SMATRIX_GATE:g}")
    return problems


def q_from(s, sprime):
    """j S^dag S', Hermitian part, and the relative anti-Hermitian residual."""
    raw = 1j * s.conj().T @ sprime
    presym = float(np.linalg.norm(raw - raw.conj().T) / max(np.linalg.norm(raw), 1e-300))
    return 0.5 * (raw + raw.conj().T), presym


def presymmetry(s, sprime):
    _, presym = q_from(s, sprime)
    if presym <= PRESYM_LIMIT:
        return []
    return [f"Q pre-symmetrization residual {presym:.2e} > {PRESYM_LIMIT:g}"]


# ---------------------------------------------------------------------------
# strip-maps
# ---------------------------------------------------------------------------
def soft_strip(delays, classification):
    """Acceptance criterion 6: corner, ballistic and near-zero families."""
    d = np.asarray(delays)
    problems = []
    corner = d[d < -5.0]
    if corner.size != 4 or np.any(corner < -40.0):
        problems.append(f"corner delays {np.round(corner, 2).tolist()} not 4 in [-40,-5]")
    window = int(np.sum((d >= -3.0) & (d <= -0.05)))
    if abs(window - 35) > 3:
        problems.append(f"{window} delays in [-3,-0.05], expected 35+-3")
    rest = d[~((d < -5.0) | ((d >= -3.0) & (d <= -0.05)))]
    if rest.size and np.max(np.abs(rest)) > 0.5:
        problems.append(f"other delay of size {np.max(np.abs(rest)):.3g} > 0.5")
    counts = {}
    for label, _, _ in classification:
        counts[label] = counts.get(label, 0) + 1
    for label, want in (("corner", 4), ("ballistic", 35), ("non-propagating", 72)):
        if abs(counts.get(label, 0) - want) > 3:
            problems.append(f"{counts.get(label, 0)} {label} modes, expected {want}+-3")
    return problems


def hard_strip(classification):
    surface = [d for label, d, warn in classification
               if label == "surface-wave" and d > 2.0 and not warn]
    if len(surface) >= 4:
        return []
    return [f"{len(surface)} warning-free surface-wave modes with delay > 2, need 4"]


def ballistic_range(classification):
    delays = [d for label, d, _ in classification if label == "ballistic"]
    return (min(delays), max(delays)) if delays else None


def ballistic_match(hard_range, soft_range):
    """Acceptance criterion 7: the hard ballistic range matches the soft one."""
    if hard_range is None or soft_range is None:
        return ["no ballistic modes to compare"]
    gap = max(abs(hard_range[0] - soft_range[0]), abs(hard_range[1] - soft_range[1]))
    return [] if gap <= 0.5 else [f"ballistic ranges differ by {gap:.3f} s > 0.5"]


def masked_zero(path):
    """Every masked grid point of an exported field holds exactly 0."""
    name = os.path.basename(path)
    masked = bad = total = 0
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,y,re,im,masked":
            return [f"{name}: unexpected header {header!r}"]
        for line in fh:
            total += 1
            _, _, re, im, flag = line.rstrip("\n").split(",")
            if flag == "1":
                masked += 1
                if float(re) != 0.0 or float(im) != 0.0:
                    bad += 1
    if masked == 0:
        return [f"{name}: no masked points among {total}"]
    return [] if bad == 0 else [f"{name}: {bad} of {masked} masked points nonzero"]


# ---------------------------------------------------------------------------
# sphere-routes
# ---------------------------------------------------------------------------
def volume_routes(diagonals, q_closed):
    """Exported volume-route diagonals against the closed-form j S^dag S'."""
    ref = np.diag(q_closed)
    scale = float(np.max(np.abs(ref)))
    problems = []
    for route in ("symmetric", "a", "b"):
        vals = diagonals.get(route)
        if not vals or len(vals) != len(ref):
            problems.append(f"volume route {route}: missing diagonal entries")
            continue
        err = max(abs(v - ref[i]) for i, v in vals.items()) / scale
        if not err <= VOLUME_ROUTE_LIMIT:
            problems.append(f"volume route {route} off by {err:.2e} > {VOLUME_ROUTE_LIMIT:g}")
    return problems


def monopole(delays, radius):
    gap = float(np.min(np.abs(np.asarray(delays) + 2.0 * radius)))
    return [] if gap <= MONOPOLE_TOL else [f"no delay within {MONOPOLE_TOL:g} of -2a (gap {gap:.2e})"]


def gate_limits(gates, limits):
    problems = []
    for name, limit in limits.items():
        if name not in gates:
            problems.append(f"gate {name} missing from report")
        elif not gates[name] <= limit:
            problems.append(f"{name} = {gates[name]:.2e} > {limit:g}")
    return problems


# ---------------------------------------------------------------------------
# cavity-sweep, once per run: BEM circular cylinder against closed form
# ---------------------------------------------------------------------------
def cylinder_agreement(s_bem, sprime_bem, s_closed, sprime_closed):
    entry = float(np.max(np.abs(s_bem - s_closed)))
    tau_bem = np.linalg.eigvalsh(q_from(s_bem, sprime_bem)[0])
    tau_ref = np.linalg.eigvalsh(q_from(s_closed, sprime_closed)[0])
    delay = float(np.max(np.abs(tau_bem - tau_ref)))
    problems = []
    if not entry <= CYLINDER_S_LIMIT:
        problems.append(f"cylinder S off closed form by {entry:.2e}")
    if not delay <= CYLINDER_DELAY_LIMIT:
        problems.append(f"cylinder delays off closed form by {delay:.2e}")
    return problems
