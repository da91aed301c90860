"""Every benchmark check passes a correct result and fails a deliberately
wrong one. Run from the checkout root:

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from wsdelay import BoundaryCondition, ModeSet, mie_smatrix, mie_smatrix_deriv  # noqa: E402
from wsdelay import io as wio  # noqa: E402

RNG = np.random.default_rng(7)


def unitary(m):
    z = RNG.normal(size=(m, m)) + 1j * RNG.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def physical(m=9):
    """Symmetric unitary S, S' with j S^dag S' Hermitian, and its Q, W, delays."""
    u = unitary(m)
    s = u @ u.T
    h = RNG.normal(size=(m, m)) + 1j * RNG.normal(size=(m, m))
    h = 0.5 * (h + h.conj().T)
    sprime = -1j * s @ h
    delays, w = np.linalg.eigh(h)
    return s, sprime, h, w, delays


def test_causality():
    assert checks.causality(np.array([-4.0, 1.0]), 2.0) == []
    assert checks.causality(np.array([-4.001, 1.0]), 2.0)


def test_decomposition():
    _, _, q, w, delays = physical()
    assert checks.decomposition(w, delays, q) == []
    assert checks.decomposition(w * 1.001, delays, q)          # W not unitary
    assert checks.decomposition(w, delays + 1e-6, q)            # wrong spectrum


def test_smatrix_gates_and_presymmetry():
    s, sprime, *_ = physical()
    assert checks.smatrix_gates(s) == []
    assert checks.presymmetry(s, sprime) == []
    assert checks.smatrix_gates(1.01 * s)                       # not unitary
    skew = s.copy()
    skew[0, 1] += 0.1
    assert any("symmetry" in p for p in checks.smatrix_gates(skew))
    assert checks.presymmetry(s, sprime + 0.1 * s)               # S^dag S' not anti-Hermitian


def strip_classification(corner=4, ballistic=35, nonprop=72):
    return ([("corner", -20.0, False)] * corner + [("ballistic", -1.0, False)] * ballistic
            + [("non-propagating", 0.0, False)] * nonprop)


def strip_delays(corner=4, window=35, rest=72, rest_value=0.1):
    return np.concatenate([np.linspace(-31, -7, corner), np.linspace(-2.9, -0.1, window),
                           np.full(rest, rest_value)])


def test_soft_strip():
    assert checks.soft_strip(strip_delays(), strip_classification()) == []
    assert checks.soft_strip(strip_delays(corner=5), strip_classification())
    assert checks.soft_strip(strip_delays(window=30), strip_classification())
    assert checks.soft_strip(strip_delays(rest_value=0.7), strip_classification())
    assert checks.soft_strip(np.append(strip_delays(corner=3), -45.0), strip_classification())
    assert checks.soft_strip(strip_delays(), strip_classification(nonprop=60))


def test_hard_strip_and_ballistic_match():
    good = [("surface-wave", 3.0, False)] * 4 + [("ballistic", -1.5, False), ("ballistic", -0.1, False)]
    assert checks.hard_strip(good) == []
    assert checks.hard_strip(good[1:])
    assert checks.hard_strip([("surface-wave", 3.0, True)] * 4)
    assert checks.hard_strip([("surface-wave", 1.5, False)] * 4)
    rng = checks.ballistic_range(good)
    assert rng == (-1.5, -0.1)
    assert checks.ballistic_match(rng, (-1.2, -0.2)) == []
    assert checks.ballistic_match(rng, (-2.1, -0.1))
    assert checks.ballistic_match(None, rng)


def test_masked_zero(tmp_path):
    def field(rows):
        path = tmp_path / "f.csv"
        path.write_text("x,y,re,im,masked\n" + "".join(f"0,0,{r},{i},{m}\n" for r, i, m in rows))
        return str(path)

    assert checks.masked_zero(field([(0, 0, 1), (0.5, 0.1, 0)])) == []
    assert checks.masked_zero(field([(0, 1e-300, 1), (0.5, 0.1, 0)]))
    assert checks.masked_zero(field([(0.5, 0.1, 0)]))


def sphere_q(bc, lmax=3, k=1.0, a=2.0):
    modes = ModeSet.spherical(lmax, k)
    q, _ = checks.q_from(mie_smatrix(3, bc, k, a, modes).matrix,
                         mie_smatrix_deriv(3, bc, k, a, modes).matrix)
    return q


def test_volume_routes_and_monopole():
    q = sphere_q(BoundaryCondition.SOUND_SOFT)
    diag = {i: v for i, v in enumerate(np.diag(q))}
    routes = {r: dict(diag) for r in ("symmetric", "a", "b")}
    assert checks.volume_routes(routes, q) == []
    routes["b"][3] += 0.01 * abs(diag[3])
    assert checks.volume_routes(routes, q)
    assert checks.volume_routes({"symmetric": diag, "a": diag}, q)
    delays = np.linalg.eigvalsh(q)
    assert checks.monopole(delays, 2.0) == []
    assert checks.monopole(delays[delays > -3.9], 2.0)


def test_gate_limits_and_report(tmp_path):
    report = tmp_path / "report.txt"
    report.write_text("scenario=sphere bc=soft k=1\n\n[gates]\n"
                      "appendix_b_algebraic=1.0e-19 limit=1.0e-12 pass=1\n"
                      "appendix_b_numeric=2.0e-02 limit=1.0e-02 pass=0\noverall_pass=0\n")
    gates = checks.read_gates(str(report))
    assert gates == {"appendix_b_algebraic": 1e-19, "appendix_b_numeric": 2e-2}
    assert checks.gate_limits(gates, {"appendix_b_algebraic": 1e-12}) == []
    assert checks.gate_limits(gates, checks.APPENDIX_B_LIMITS)
    assert checks.gate_limits({}, {"appendix_b_algebraic": 1e-12})


def test_cylinder_agreement():
    k, a = 1.0, 2.0
    modes = ModeSet.angular(7, k)
    bc = BoundaryCondition.SOUND_HARD
    s, sp = mie_smatrix(2, bc, k, a, modes).matrix, mie_smatrix_deriv(2, bc, k, a, modes).matrix
    assert checks.cylinder_agreement(s, sp, s, sp) == []
    assert checks.cylinder_agreement(s + 1e-3, sp, s, sp)
    assert checks.cylinder_agreement(s, sp * (1 + 1e-4), s, sp)


def test_readers_round_trip(tmp_path):
    s, _, q, _, delays = physical()
    wio.write_complex_matrix(str(tmp_path / "m.csv"), s)
    wio.write_spectrum(str(tmp_path / "d.csv"), delays)
    assert np.array_equal(checks.read_matrix(str(tmp_path / "m.csv")), s)
    assert np.array_equal(checks.read_spectrum(str(tmp_path / "d.csv")), delays)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
