"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with pytest -s) and then
asserts, so plain pytest -v still shows one line per criterion.
"""
import json
import math
import time

import numpy as np

from rbnl.bell import (McConfig, nmax_numeric, nmax_werner, nvol_mc,
                       nvol_quadrature, nvol_werner_analytic)
from rbnl.cli import main as cli_main
from rbnl.linalg import von_neumann_entropy
from rbnl.nonlocality import (OptimizerConfig, _nrb_search, entanglement_entropy,
                              nrb_pure, nrb_two_qubit, nrb_werner_closed_form,
                              werner_dephased_spectra)
from rbnl.realism import (LocalPVM, RealityComponents, dephase,
                          delta_irreality, irreality, is_reality_state,
                          make_reality_state)
from rbnl.states import (PVM, BlochVector, bloch_pvm, qutrit_family,
                         random_density, random_pure, werner)

SQRT2 = math.sqrt(2.0)


def report(num: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def random_unit(rng):
    n = rng.normal(size=3)
    return BlochVector(n / np.linalg.norm(n))


def random_basis_pvm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return PVM(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(d)))


def test_criterion_1_pure_state_value_equals_entanglement():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(theta_points=10, phi_points=20, restarts=4)
    worst_qubit = 0.0
    for i in range(200):
        psi = random_pure(2, 2, seed=i)
        ent = entanglement_entropy(psi)
        # nrb_two_qubit takes the Schmidt pair; the search is the second route
        for res in (nrb_two_qubit(psi.density(), cfg), _nrb_search(psi.density(), cfg)):
            worst_qubit = max(worst_qubit, abs(res.value - ent))
    worst_qutrit = 0.0
    for i in range(50):
        psi = random_pure(3, 3, seed=1000 + i)
        res = nrb_pure(psi)
        di = delta_irreality(LocalPVM(res.pvm_a, "A"),
                             LocalPVM(res.pvm_b, "B"), psi.density())
        worst_qutrit = max(worst_qutrit, abs(di - entanglement_entropy(psi)))
    elapsed = time.perf_counter() - t0
    ok = worst_qubit <= 1e-4 and worst_qutrit <= 1e-10 and elapsed <= 60.0
    report(1, "pure-state value equals entanglement", ok,
           f"qubit worst {worst_qubit:.2e} <= 1e-4, "
           f"qutrit worst {worst_qutrit:.2e} <= 1e-10, {elapsed:.1f}s <= 60s")


def test_criterion_2_maximally_entangled_qutrit_is_the_maximum():
    gammas = [round(0.2 * k, 1) for k in range(1, 11)]
    values = [nrb_pure(qutrit_family(g)).value for g in gammas]
    top = max(range(len(values)), key=lambda i: values[i])
    dev = abs(values[gammas.index(1.0)] - math.log(3))
    ok = gammas[top] == 1.0 and dev <= 1e-10
    report(2, "no anomaly over the qutrit family", ok,
           f"argmax gamma {gammas[top]}, |value - ln 3| = {dev:.2e}")


def test_criterion_3_werner_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    min_eta = 1.0
    for k in range(1, 11):
        mu = k / 10
        res = nrb_two_qubit(werner(mu))
        worst = max(worst, abs(res.value - nrb_werner_closed_form(mu)))
        min_eta = min(min_eta, res.eta)
    ln2_dev = abs(nrb_werner_closed_form(1.0) - math.log(2))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-5 and ln2_dev <= 1e-12 and min_eta >= 1 - 1e-4
          and elapsed <= 120.0)
    report(3, "Werner closed form", ok,
           f"worst |opt - closed| {worst:.2e} <= 1e-5, "
           f"|closed(1) - ln 2| {ln2_dev:.1e} <= 1e-12, "
           f"min eta {min_eta:.6f} >= 1-1e-4, {elapsed:.1f}s <= 120s")


def test_criterion_4_werner_dephased_spectra():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        mu = float(rng.random())
        u, v = random_unit(rng), random_unit(rng)
        rho = werner(mu)
        da = dephase(rho, LocalPVM(bloch_pvm(u), "A"))
        db = dephase(rho, LocalPVM(bloch_pvm(v), "B"))
        dab = dephase(da, LocalPVM(bloch_pvm(v), "B"))
        fa, fb, fab = werner_dephased_spectra(mu, u, v)
        rho_spec = np.sort(np.r_[np.full(3, (1 - mu) / 4), (1 + 3 * mu) / 4])[::-1]
        pairs = [
            (np.linalg.eigvalsh(rho.matrix), rho_spec),
            (np.linalg.eigvalsh(da.matrix), fa),
            (np.linalg.eigvalsh(db.matrix), fb),
            (np.linalg.eigvalsh(dab.matrix), fab),
        ]
        for numeric, formula in pairs:
            worst = max(worst, float(np.max(np.abs(np.sort(numeric)[::-1] - formula))))
    ok = worst <= 1e-10
    report(4, "Werner dephased spectra", ok, f"worst deviation {worst:.2e} <= 1e-10")


def test_criterion_5_chsh_maximum_formula():
    worst = 0.0
    zeros_exact = True
    for mu in np.linspace(0.0, 1.0, 11):
        mu = float(mu)
        n = nmax_numeric(werner(mu))
        worst = max(worst, abs(n - nmax_werner(mu)))
        if mu <= 1 / SQRT2 and n != 0.0:
            zeros_exact = False
    ok = worst <= 1e-5 and zeros_exact
    report(5, "CHSH maximum formula", ok,
           f"worst |numeric - formula| {worst:.2e} <= 1e-5, "
           f"exact zeros below threshold: {zeros_exact}")


def test_criterion_6_violation_volume_triple_agreement():
    t0 = time.perf_counter()
    quad_worst = 0.0
    mc_worst_z = 0.0
    for mu in (0.75, 0.8, 0.9, 1.0):
        analytic = nvol_werner_analytic(mu)
        quad_worst = max(quad_worst, abs(nvol_quadrature(mu, 1000) - analytic))
        for method in ("angles", "xyz"):
            est = nvol_mc(mu, McConfig(n=10**6, seed=606, method=method))
            mc_worst_z = max(mc_worst_z, abs(est.fraction - analytic) / est.std_error)
    stray = 0
    for mu in (0.5, 0.7, 1 / SQRT2):
        for method in ("angles", "xyz"):
            est = nvol_mc(mu, McConfig(n=10**6, seed=606, method=method))
            stray += round(est.fraction * est.n)
    elapsed = time.perf_counter() - t0
    ok = (quad_worst <= 1e-4 and mc_worst_z <= 4.0 and stray == 0
          and elapsed <= 120.0)
    report(6, "violation volume triple agreement", ok,
           f"analytic vs quadrature worst {quad_worst:.2e} <= 1e-4, "
           f"MC worst |z| {mc_worst_z:.2f} <= 4, "
           f"{stray} violating samples below threshold, {elapsed:.1f}s <= 120s")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(707)
    dims_cycle = [(2, 2), (2, 3), (3, 2), (3, 3)]
    n_draws = 1000
    worst = {"irr": 0.0, "di": 0.0, "routes": 0.0, "sym": 0.0,
             "idem": 0.0, "comm": 0.0, "klein": 0.0}
    for k in range(n_draws):
        dims = dims_cycle[k % 4]
        rho = random_density(*dims, rank=(k % (dims[0] * dims[1])) + 1, seed=rng)
        ma = LocalPVM(random_basis_pvm(rng, dims[0]), "A")
        mb = LocalPVM(random_basis_pvm(rng, dims[1]), "B")
        s = von_neumann_entropy(rho.matrix)
        ra, rb = dephase(rho, ma), dephase(rho, mb)
        rab = dephase(ra, mb)
        rba = dephase(rb, ma)
        s_a, s_b = von_neumann_entropy(ra.matrix), von_neumann_entropy(rb.matrix)
        s_ab = von_neumann_entropy(rab.matrix)

        irr = irreality(ma, rho)
        di = delta_irreality(ma, mb, rho)
        worst["irr"] = max(worst["irr"], -irr)
        worst["di"] = max(worst["di"], -di)
        worst["routes"] = max(worst["routes"], abs(di - (s_a + s_b - s_ab - s)))
        worst["sym"] = max(worst["sym"], abs(di - delta_irreality(mb, ma, rho)))
        worst["idem"] = max(worst["idem"],
                            float(np.max(np.abs(dephase(ra, ma).matrix - ra.matrix))))
        worst["comm"] = max(worst["comm"],
                            float(np.max(np.abs(rab.matrix - rba.matrix))))
        worst["klein"] = max(worst["klein"], s - s_a)

    fixed_ok = True
    irr_fixed_worst = 0.0
    for k in range(n_draws):
        dims = dims_cycle[k % 4]
        m = random_basis_pvm(rng, dims[0])
        w = rng.random(3)
        w /= w.sum()
        comps = RealityComponents(
            tuple(w),
            tuple(random_density(dims[0], 1, rank=dims[0], seed=rng).matrix
                  for _ in range(3)),
            tuple(random_density(dims[1], 1, rank=dims[1], seed=rng).matrix
                  for _ in range(3)))
        rho = make_reality_state(comps, m)
        lm = LocalPVM(m, "A")
        fixed_ok = fixed_ok and is_reality_state(rho, lm)
        irr_fixed_worst = max(irr_fixed_worst, abs(irreality(lm, rho)))

    ok = (worst["irr"] <= 1e-10 and worst["di"] <= 1e-10
          and worst["routes"] <= 1e-10 and worst["sym"] <= 1e-10
          and worst["idem"] <= 1e-12 and worst["comm"] <= 1e-12
          and worst["klein"] <= 1e-10 and fixed_ok
          and irr_fixed_worst <= 1e-10)
    report(7, "property suites", ok,
           f"min irreality -{worst['irr']:.1e}, min drop -{worst['di']:.1e}, "
           f"route gap {worst['routes']:.1e}, asymmetry {worst['sym']:.1e}, "
           f"idempotence {worst['idem']:.1e}, commutation {worst['comm']:.1e}, "
           f"Klein deficit {worst['klein']:.1e}, "
           f"reality fixed points {fixed_ok} (irreality {irr_fixed_worst:.1e}), "
           f"{n_draws} draws per property")


def test_criterion_8_sweep_curve_shape(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--mu-start", "0", "--mu-end", "1",
                     "--steps", "101", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    table = np.array([[float(x) for x in row] for row in rows])
    mu, norm_rb, norm_vol, norm_max = table[:, 0], table[:, 4], table[:, 5], table[:, 6]

    below = mu <= 1 / SQRT2
    zeros_ok = bool(np.all(norm_vol[below] == 0.0) and np.all(norm_max[below] == 0.0))
    rb_pos_ok = bool(np.all(norm_rb[mu > 0] > 0.0))
    above = mu > 1 / SQRT2
    mono_ok = all(bool(np.all(np.diff(col[above]) >= -1e-12))
                  for col in (norm_rb, norm_vol, norm_max))
    # the entropic curve is monotone over the whole range as well
    mono_ok = mono_ok and bool(np.all(np.diff(norm_rb) >= -1e-12))
    end_ok = bool(np.all(table[-1, 4:] == 1.0)) and table[-1, 0] == 1.0
    ok = zeros_ok and rb_pos_ok and mono_ok and end_ok
    report(8, "sweep curve shape", ok,
           f"Bell quantifiers zero up to the threshold: {zeros_ok}, "
           f"entropic quantifier positive for mu > 0: {rb_pos_ok}, "
           f"monotone beyond threshold: {mono_ok}, endpoint all ones: {end_ok}")


def test_criterion_9_worker_determinism(capsys):
    fractions = []
    for workers in (1, 4, 8):
        code = cli_main(["vol", "--mu", "0.85", "--samples", "300000",
                         "--seed", "99", "--workers", str(workers)])
        out = capsys.readouterr().out
        assert code == 0
        fractions.append(json.loads(out)["fraction"])
    ok = fractions[0] == fractions[1] == fractions[2]
    report(9, "worker determinism", ok,
           f"fractions {fractions[0]!r} identical across workers 1/4/8: {ok}")
