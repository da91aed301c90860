"""Acceptance suite: every criterion at its stated tolerance.

Heavy scenarios run once per session through the scenario runner; each test
prints one PASS/FAIL line. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from wsdelay.bem import bem_smatrix
from wsdelay.cli import run_scenario
from wsdelay.geometry import make_circle, mesh_geometry
from wsdelay.io import ScenarioConfig
from wsdelay.mie import (
    free_space_smatrix,
    mie_smatrix,
    mie_smatrix_deriv,
)
from wsdelay.modal import ModeIndex, ModeSet
from wsdelay.smatrix import BoundaryCondition, SMatrix
from wsdelay.volumeq import (
    STYLES,
    surface_identity_check,
    volume_q_matrix,
)
from wsdelay.wigner import q_matrix, smatrix_fd_derivative, ws_decompose
from test_volumeq import qtilde_infinity

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy scenario runs
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def strip_soft(tmp_path_factory):
    cfg = ScenarioConfig(scenario="strip", bc="soft", k=1.0, mode_count=111)
    t0 = time.perf_counter()
    out = run_scenario(cfg, str(tmp_path_factory.mktemp("strip_soft")))
    out["runtime"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def strip_hard(tmp_path_factory):
    cfg = ScenarioConfig(scenario="strip", bc="hard", k=1.0, mode_count=111)
    return run_scenario(cfg, str(tmp_path_factory.mktemp("strip_hard")))


@pytest.fixture(scope="module")
def cavity_hard(tmp_path_factory):
    cfg = ScenarioConfig(scenario="cavity", bc="hard", k=1.0, w=3.0, mode_count=71)
    return run_scenario(cfg, str(tmp_path_factory.mktemp("cavity_hard")))


@pytest.fixture(scope="module")
def cavity_soft_w3(tmp_path_factory):
    cfg = ScenarioConfig(scenario="cavity", bc="soft", k=1.0, w=3.0, mode_count=71)
    return run_scenario(cfg, str(tmp_path_factory.mktemp("cavity_s3")))


@pytest.fixture(scope="module")
def cavity_soft_w5(tmp_path_factory):
    cfg = ScenarioConfig(scenario="cavity", bc="soft", k=1.0, w=5.0, mode_count=71)
    return run_scenario(cfg, str(tmp_path_factory.mktemp("cavity_s5")))


def _mie_bundle(bc, k=1.0, a=2.0, lmax=3):
    modes = ModeSet.spherical(lmax, k)
    s = mie_smatrix(3, bc, k, a, modes)
    sp = mie_smatrix_deriv(3, bc, k, a, modes)
    q = q_matrix(s, sp)
    return s, q, ws_decompose(q, s)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------
def test_criterion_1_ws_identity_closed_form():
    """Soft sphere: l=0 delay is -2a exactly; real spectrum with 2l+1 blocks."""
    t0 = time.perf_counter()
    a, lmax = 1.0, 6
    ok = True
    for k in (0.5, 1.0, 2.0):
        modes = ModeSet.spherical(lmax, k)
        q = q_matrix(
            mie_smatrix(3, SOFT, k, a, modes), mie_smatrix_deriv(3, SOFT, k, a, modes)
        )
        delays, _ = np.linalg.eigh(q.matrix)
        ok &= bool(np.min(np.abs(delays - (-2.0 * a))) < 1e-8)
        # multiplicity per degree: group the sorted spectrum by unique values
        expected = []
        for l in range(lmax + 1):
            block = q.matrix[
                [modes.position(ModeIndex.spherical(l, m)) for m in range(-l, l + 1)], :
            ]
            vals = np.diag(
                block[:, [modes.position(ModeIndex.spherical(l, m)) for m in range(-l, l + 1)]]
            ).real
            expected.extend(vals.tolist())
        ok &= bool(np.allclose(sorted(expected), delays, atol=1e-8))
        for l in range(lmax + 1):
            idx = [modes.position(ModeIndex.spherical(l, m)) for m in range(-l, l + 1)]
            tau = q.matrix[idx[0], idx[0]].real
            matches = np.sum(np.abs(delays - tau) < 1e-8)
            ok &= bool(matches >= 2 * l + 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"l=0 delay -2a within 1e-8, multiplicities 2l+1, {elapsed:.2f}s")


def test_criterion_2_route_equivalence():
    """Volume-integral Q (all styles, both bcs, R -> inf) matches jS'S."""
    t0 = time.perf_counter()
    k, a = 1.0, 2.0  # ka = 2
    ok = True
    worst = tight = 0.0
    for bc in (SOFT, HARD):
        modes = ModeSet.spherical(3, k)
        s = mie_smatrix(3, bc, k, a, modes)
        qref = q_matrix(s, mie_smatrix_deriv(3, bc, k, a, modes))
        routes, _ = volume_q_matrix(s, a, bc)
        for l in range(4):
            p = ModeIndex.spherical(l, 0)
            i = modes.position(p)
            ref = qref.matrix[i, i].real
            for style in STYLES:
                rel = abs(routes[style].matrix[i, i] - ref) / abs(ref)
                worst = max(worst, rel)
                ok &= bool(rel < 1e-3)
        # closed-form radial integrals: every style tight on the whole matrix
        scale = np.max(np.abs(np.diag(qref.matrix)))
        for qv in routes.values():
            tight = max(tight, np.max(np.abs(qv.matrix - qref.matrix)) / scale)
    ok &= bool(tight <= 1e-12)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(2, ok, f"worst style residual {worst:.2e} (<1e-3), matrix residual {tight:.1e} (<=1e-12), {elapsed:.1f}s")


def test_criterion_3_surface_integral_identity():
    """Closed forms reproduce the WS identity exactly; quadrature to 1%."""
    t0 = time.perf_counter()
    k, a = 1.0, 2.0
    modes = ModeSet.spherical(2, k)
    s, sp = mie_smatrix(3, SOFT, k, a, modes), mie_smatrix_deriv(3, SOFT, k, a, modes)
    ok = True
    alg_worst = 0.0
    pairs = [
        (ModeIndex.spherical(0, 0), ModeIndex.spherical(0, 0)),
        (ModeIndex.spherical(2, 1), ModeIndex.spherical(2, 1)),
        (ModeIndex.spherical(1, 0), ModeIndex.spherical(2, 0)),
    ]
    for rep in surface_identity_check(s, sp, pairs, 200.0):
        alg_worst = max(alg_worst, rep.algebraic_residual)
        ok &= bool(rep.algebraic_residual < 1e-12)
    p = ModeIndex.spherical(2, 1)
    e1, e2 = (surface_identity_check(s, sp, [(p, p)], r)[0].numeric_rel_error
              for r in (200.0, 400.0))
    ok &= bool(e1 < 0.01)
    ok &= bool(e2 < 0.7 * e1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, ok, f"algebraic {alg_worst:.1e} (<1e-12), numeric {e1:.1e}->{e2:.1e} with R doubling, {elapsed:.1f}s")


def test_criterion_4_free_space():
    """No scatterer: Q vanishes; the normalizer integral equals 2R delta."""
    modes = ModeSet.spherical(3, 1.0)
    s = free_space_smatrix(modes)
    sp = SMatrix(modes=modes, k=1.0, matrix=np.zeros_like(s.matrix))
    q = q_matrix(s, sp)
    ok = bool(np.max(np.abs(q.matrix)) <= 1e-12)
    radius = 100.0
    p0 = ModeIndex.spherical(0, 0)
    p1 = ModeIndex.spherical(1, 0)
    v_diag = qtilde_infinity(p0, p0, 1.0, radius)
    v_off = qtilde_infinity(p1, ModeIndex.spherical(2, 0), 1.0, radius)
    ok &= bool(abs(v_diag - 200.0) / 200.0 < 0.005)
    ok &= bool(abs(qtilde_infinity(p1, p1, 1.0, radius) - 200.0) / 200.0 < 0.005)
    ok &= bool(abs(v_off) < 1e-6 * radius)
    report(4, ok, f"free-space Q = 0, normalizer {v_diag.real:.4f} vs 200 at kR=100")


def test_criterion_5_bem_validity():
    """Circular cylinder: BEM matches the closed-form S entrywise to 1e-4."""
    t0 = time.perf_counter()
    k, a = 1.0, 2.0
    modes = ModeSet.angular(7, k)
    ok = True
    worst = 0.0
    geom = make_circle(a)
    mesh = mesh_geometry(geom, k)
    for bc in (SOFT, HARD):
        ref = mie_smatrix(2, bc, k, a, modes)
        s = bem_smatrix(geom, bc, k, modes, mesh=mesh, gate=None)
        entry = float(np.max(np.abs(s.matrix - ref.matrix)))
        worst = max(worst, entry)
        ok &= bool(entry <= 1e-4)
        ok &= bool(s.unitarity_residual() <= 1e-4)
        ok &= bool(s.symmetry_residual() <= 1e-4)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(5, ok, f"worst entry error {worst:.2e} (<=1e-4), both bcs, {elapsed:.1f}s")


def test_criterion_6_strip_sound_soft(strip_soft):
    """Strip delay families: corner, ballistic, and non-propagating modes."""
    d = strip_soft["delays"]
    corner = d[d < -5.0]
    ok = bool(corner.size == 4)
    ok &= bool(np.all(corner >= -40.0) and np.all(corner <= -5.0))
    window = np.sum((d >= -3.0) & (d <= -0.05))
    ok &= bool(abs(int(window) - 35) <= 3)
    rest = d[~((d < -5.0) | ((d >= -3.0) & (d <= -0.05)))]
    ok &= bool(np.max(np.abs(rest)) <= 0.5)
    counts = {}
    for c in strip_soft["classification"]:
        counts[c.label] = counts.get(c.label, 0) + 1
    ok &= bool(abs(counts.get("corner", 0) - 4) <= 3)
    ok &= bool(abs(counts.get("ballistic", 0) - 35) <= 3)
    ok &= bool(abs(counts.get("non-propagating", 0) - 72) <= 3)
    ok &= bool(strip_soft["passed"])  # every scenario gate, unitarity included
    ok &= bool(strip_soft["runtime"] < 600.0)
    report(
        6,
        ok,
        f"4 corner modes in [{corner.min():.1f},{corner.max():.1f}], "
        f"{window} ballistic-window modes, groups "
        f"{counts.get('corner',0)}/{counts.get('ballistic',0)}/{counts.get('non-propagating',0)}, "
        f"{strip_soft['runtime']:.0f}s",
    )


def test_criterion_7_strip_sound_hard(strip_soft, strip_hard):
    """Surface waves along the hard strip; ballistic family matches the soft one."""
    cls_h = strip_hard["classification"]
    surface = [c for c in cls_h if c.delay > 2.0 and c.label == "surface-wave" and not c.warning]
    ok = bool(len(surface) >= 4)
    bal_h = [c.delay for c in cls_h if c.label == "ballistic"]
    bal_s = [c.delay for c in strip_soft["classification"] if c.label == "ballistic"]
    ok &= bool(abs(min(bal_h) - min(bal_s)) <= 0.5)
    ok &= bool(abs(max(bal_h) - max(bal_s)) <= 0.5)
    report(
        7,
        ok,
        f"{len(surface)} edge-dominant modes with delay>2 "
        f"(max {max(c.delay for c in cls_h):.1f}s), ballistic ranges "
        f"[{min(bal_h):.2f},{max(bal_h):.2f}] vs [{min(bal_s):.2f},{max(bal_s):.2f}]",
    )


def test_criterion_8_cavity(cavity_hard, cavity_soft_w3, cavity_soft_w5):
    """Trapped modes: hard cavity tags the two largest delays; soft traps at w=5;
    every cavity run passes its own gates."""
    runs = (cavity_hard, cavity_soft_w3, cavity_soft_w5)
    cls = cavity_hard["classification"]
    d = cavity_hard["delays"]
    top_two = cls[-2:]
    ok = bool(all(c.label == "cavity" for c in top_two))
    ok &= bool(all(c.delay > 0 for c in top_two))
    ok &= bool(d[-2] > np.max(d[:-2]))
    f5 = cavity_soft_w5["classification"][-1].interior_fraction
    f3 = cavity_soft_w3["classification"][-1].interior_fraction
    ok &= bool(f5 >= 10.0 * f3)
    ok &= all(run["passed"] for run in runs)
    report(
        8,
        ok,
        f"hard cavity delays {d[-2]:.0f}s/{d[-1]:.0f}s tagged cavity; "
        f"soft interior fraction ratio w5/w3 = {f5 / max(f3, 1e-300):.1f}; "
        f"gates passed {[bool(run['passed']) for run in runs]}",
    )


def test_criterion_9_structural_suite(strip_soft, strip_hard, cavity_hard):
    """Hermiticity, real diagonal, delay identity, simultaneous diagonalization
    and second-order FD convergence across every produced Q."""
    bundles = [
        ("mie-soft", *_mie_bundle(SOFT), 1e-11),
        ("mie-hard", *_mie_bundle(HARD), 1e-11),
        ("strip-soft", strip_soft["smatrix"], strip_soft["qmatrix"], strip_soft["decomposition"], 1e-2),
        ("strip-hard", strip_hard["smatrix"], strip_hard["qmatrix"], strip_hard["decomposition"], 1e-2),
        ("cavity-hard", cavity_hard["smatrix"], cavity_hard["qmatrix"], cavity_hard["decomposition"], 1e-2),
    ]
    ok = True
    details = []
    for name, s, q, dec, simdiag_limit in bundles:
        diag_imag = float(np.max(np.abs(np.diag(q.matrix).imag)))
        ident = dec.diagonal_delay_identity_residual(q)
        simdiag = dec.simdiag_offdiag_residual()
        scale = max(1.0, float(np.max(np.abs(dec.delays))))
        ok &= bool(np.array_equal(q.matrix, q.matrix.conj().T))
        ok &= bool(diag_imag == 0.0)
        ok &= bool(ident <= 1e-10 * scale)
        ok &= bool(simdiag <= simdiag_limit)
        details.append(f"{name}: simdiag {simdiag:.1e}")
    # the strip's pre-symmetrization residual is bounded by the S gate
    ok &= bool(strip_soft["qmatrix"].presym_residual <= 1e-3)
    # second-order convergence of the finite-difference derivative
    def provider(kp):
        return mie_smatrix(3, SOFT, kp, 2.0, ModeSet.spherical(3, kp))

    ana = mie_smatrix_deriv(3, SOFT, 1.0, 2.0, ModeSet.spherical(3, 1.0)).matrix
    errs = [
        np.linalg.norm(smatrix_fd_derivative(provider, 1.0, dk=dk).matrix - ana)
        for dk in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    ok &= bool(2.5 < ratio < 6.0)
    report(9, ok, "; ".join(details) + f"; FD order ratio {ratio:.2f}")


def test_classification_stability(strip_soft, cavity_hard):
    """Group counts move by at most 2 under +-20% of any single threshold."""
    from wsdelay.fields import ClassificationThresholds, classify_modes, group_counts

    worst = 0
    for bundle in (strip_soft, cavity_hard):
        cls = bundle["classification"]
        delays = np.array([c.delay for c in cls])
        baselines = bundle["baselines"]
        fractions = np.array(
            [[c.boundary_fraction, c.corner_fraction, c.interior_fraction] for c in cls]
        ).T
        base = ClassificationThresholds(tau_ballistic=2.0 * bundle["circumradius"])
        counts0 = group_counts(classify_modes(delays, fractions, baselines, base))
        for knob in (
            "tau0",
            "tau_ballistic",
            "boundary_factor",
            "corner_factor",
            "interior_factor",
        ):
            for f in (0.8, 1.2):
                th = ClassificationThresholds(
                    **{**base.__dict__, knob: getattr(base, knob) * f}
                )
                counts = group_counts(classify_modes(delays, fractions, baselines, th))
                worst = max(worst, max(abs(counts[k] - counts0[k]) for k in counts0))
    assert worst <= 2, f"count change {worst} under single-threshold perturbation"
