"""Acceptance suite: every criterion as one test, each printing a
PASS/FAIL line (run with -s to see them live).

The benchmark criteria run on deterministic synthetic stand-ins for the
published datasets (the originals are not redistributable); shapes, class
balance, and difficulty match, and the asserted windows come from the
criteria, not from the stand-ins.
"""

import itertools
import time

import numpy as np
import pytest

from advreject.attacks import AttackSpec, pgd
from advreject.bench import ProtocolConfig, run_protocol
from advreject.bounds import (
    BoundConfig,
    clipped_adv_risk,
    rademacher_exhaustive,
    generalization_bound,
    weight_bound,
)
from advreject.data import Dataset
from advreject.evaluate import adv_risk_01c
from advreject.losses import (
    SurrogateParams,
    adv_loss_mh_linear,
    loss_01c,
    loss_mh,
    surrogate_conv,
)
from advreject.model import RejectionModel
from advreject.neural import NeuralTrainConfig, adv_risk_01c_net, grad_input, grad_params, loss_batch, train_neural
from advreject.synth import clinical_surrogate, credit_surrogate, two_clusters
from advreject.train import TrainConfig, train
from conftest import random_linear_model
from oracles import LinearMHOracle, central_difference, rel_err


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="session")
def aus_results():
    pc = ProtocolConfig(
        methods=(("mh", 0.2), ("atro", 0.2)),
        attack_eps=(0.0, 0.001, 0.01),
        eps_train=0.001,
        trials=10,
        train_size=500,
        rff_dim=200,
        seed=7,
    )
    rows, trials = run_protocol(credit_surrogate(seed=0), pc)
    return rows, trials, pc


@pytest.fixture(scope="session")
def dia_results():
    pc = ProtocolConfig(
        methods=(("mh", 0.2), ("atro", 0.2)),
        attack_eps=(0.0, 0.001, 0.01),
        eps_train=0.001,
        trials=10,
        train_size=500,
        rff_dim=100,
        seed=7,
    )
    rows, trials = run_protocol(clinical_surrogate(seed=0), pc)
    return rows, trials, pc


def _cells(rows):
    return {(r.method, r.attack_eps): r for r in rows}


def test_criterion_1_closed_form_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240601)
    grids = {d: np.array(list(itertools.product(*[np.linspace(-1, 1, 21)] * d))) for d in (1, 2, 3, 4)}
    corners = {d: np.array(list(itertools.product((-1.0, 1.0), repeat=d))) for d in range(1, 7)}
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        m = random_linear_model(rng, d, scale=2.0)
        z = rng.standard_normal(d)
        y = 1 if rng.random() < 0.5 else -1
        eps = float(rng.choice([0.01, 0.1, 1.0]))
        p = SurrogateParams(rng.uniform(0.3, 3), rng.uniform(0.3, 3), rng.uniform(0.05, 0.45))
        got = adv_loss_mh_linear(m, z, y, eps, p)
        # brute force: every corner of the box; each MH branch is affine in
        # the input so the true max sits at a corner; a dense 21-point grid
        # cross-checks that up to d = 4
        pts = corners[d] * eps
        if d <= 4:
            pts = np.vstack([pts, grids[d] * eps])
        f = (z + pts) @ m.gamma + m.bias_gamma
        r = (z + pts) @ m.theta + m.bias_theta
        brute = float(np.max(loss_mh(f, r, np.full_like(f, y), p)))
        worst = max(worst, abs(got - brute))
    dt = time.time() - t0
    report(1, worst <= 1e-6 and dt < 30, f"max |closed-form - brute force| = {worst:.2e} over 1000 models in {dt:.1f}s")


def test_criterion_2_surrogate_dominance():
    rng = np.random.default_rng(77)
    n = 100_000
    f = 8 * rng.standard_normal(n)
    r = 8 * rng.standard_normal(n)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    p = SurrogateParams(float(rng.uniform(0.2, 4)), float(rng.uniform(0.2, 4)), float(rng.uniform(0.05, 0.45)))
    l01 = loss_01c(f, r, y, p.cost)
    viol_mh = int(np.sum(loss_mh(f, r, y, p) < l01))
    viol_conv = int(np.sum(surrogate_conv(f, r, y, p) < l01))
    report(2, viol_mh == 0 and viol_conv == 0, f"violations over {n} draws: MH {viol_mh}, additive {viol_conv}")


def test_criterion_3_reduction_identities(rng):
    # (a) eps = 0 reproduces the clean MH loss exactly
    exact_a = True
    for _ in range(2000):
        m = random_linear_model(rng, 3)
        z = rng.standard_normal(3)
        y = 1 if rng.random() < 0.5 else -1
        p = SurrogateParams(1.3, 0.7, 0.2)
        f, r = m.scores_features(z)
        if adv_loss_mh_linear(m, z, y, 0.0, p) != loss_mh(float(f), float(r), y, p):
            exact_a = False
            break
    # (b) atro at eps_train = 0 is trace-identical to mh
    ds = Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1, -1))
    _, t_atro = train(ds, TrainConfig(mode="atro", eps_train=0.0, epochs=150))
    _, t_mh = train(ds, TrainConfig(mode="mh", epochs=150))
    exact_b = np.array_equal(t_atro.objective, t_mh.objective)
    # (c) pgd at eps = 0 returns the zero perturbation
    m = random_linear_model(rng, 4)
    pert = pgd(LinearMHOracle(m, SurrogateParams()), rng.standard_normal(4), 1, AttackSpec(method="pgd", eps=0.0))
    exact_c = bool(np.all(pert.delta == 0.0))
    report(3, exact_a and exact_b and exact_c, f"eps0-loss {exact_a}, atro==mh traces {exact_b}, pgd eps0 {exact_c}")


def test_criterion_4_neural_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst_p, worst_i = 0.0, 0.0
    for _ in range(50):
        hidden = tuple(rng.integers(3, 7, size=int(rng.integers(1, 3))))
        act = "tanh" if rng.random() < 0.5 else "relu"
        from advreject.neural import ToyNet

        net = ToyNet.init(3, hidden, act, seed=int(rng.integers(0, 2**31)))
        x = rng.standard_normal(3)
        y = 1 if rng.random() < 0.5 else -1
        cfg = NeuralTrainConfig(params=SurrogateParams(1.5, 0.8, 0.25), lam_w=0.01)
        gp = grad_params(net, x, y, cfg)
        np_num = central_difference(lambda th: loss_batch(net.unpack(th), x, np.array([y]), cfg), net.pack())
        worst_p = max(worst_p, float(np.max(rel_err(gp, np_num))))
        gi = grad_input(net, x, y, cfg)
        ni = central_difference(lambda xv: loss_batch(net, xv, np.array([y]), cfg), x.copy())
        worst_i = max(worst_i, float(np.max(rel_err(gi, ni))))
    dt = time.time() - t0
    report(4, worst_p <= 1e-4 and worst_i <= 1e-4 and dt < 60,
           f"max rel err: params {worst_p:.2e}, input {worst_i:.2e} over 50 draws in {dt:.1f}s")


def test_criterion_5_rademacher_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        ds = Dataset(rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, 1, -1))
        q = float(rng.choice([1.0, 2.0, np.inf]))
        w = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.0, 0.5))
        std = rademacher_exhaustive(ds, "standard_linear", w, q)
        adv = rademacher_exhaustive(ds, "adversarial_linear", w, q, eps=eps)
        d_pow = 1.0 if q == np.inf else d ** (1.0 / q)
        upper = std + eps * w * d_pow / np.sqrt(n)
        if not (std - 1e-3 <= adv <= upper + 1e-3):
            violations += 1
    dt = time.time() - t0
    report(5, violations == 0 and dt < 120, f"{violations} sandwich violations over 100 instances in {dt:.1f}s")


def test_criterion_6_credit_benchmark(aus_results):
    t0 = time.time()
    rows, _, _ = aus_results
    c = _cells(rows)
    atro = c[("atro", 0.001)].err_mean
    mh = c[("mh", 0.001)].err_mean
    ok = 0.06 <= atro <= 0.20 and atro < mh
    report(6, ok, f"credit surrogate @eps=0.001: ATRO err {atro:.4f} (window [0.06, 0.20], ref 0.130), "
                  f"MH err {mh:.4f} (ref 0.209); fixture+check {time.time() - t0:.1f}s")


def test_criterion_7_clinical_benchmark(dia_results):
    rows, _, _ = dia_results
    c = _cells(rows)
    atro = c[("atro", 0.01)]
    mh = c[("mh", 0.01)]
    ok = atro.err_mean <= 0.30 and atro.rej_mean >= 0.30 and atro.err_mean < mh.err_mean
    report(7, ok, f"clinical surrogate @eps=0.01: ATRO err {atro.err_mean:.4f} (<= 0.30, ref 0.168), "
                  f"rej {atro.rej_mean:.4f} (>= 0.30, ref 0.549), MH err {mh.err_mean:.4f} (ref 0.400)")


def test_criterion_8_attack_loss_monotonicity(aus_results, dia_results):
    checked, violations = 0, 0
    for rows, trials, pc in (aus_results, dia_results):
        params02 = SurrogateParams(pc.alpha, pc.beta, 0.2)
        for models, test_ds in trials:
            for (mode, cost), model in models.items():
                z = model.featurize(test_ds.x)
                f, r = model.scores_features(z)
                clean = float(np.mean(loss_01c(f, r, test_ds.y, 0.2)))
                for eps in pc.attack_eps:
                    spec = AttackSpec(method="analytic_linear" if eps > 0 else "none", eps=eps)
                    attacked = adv_risk_01c(model, test_ds, spec, params02)
                    checked += 1
                    if attacked < clean:
                        violations += 1
    report(8, violations == 0, f"{violations} violations over {checked} (model, dataset, eps) evaluations")


def test_criterion_9_neural_defense_trend():
    t0 = time.time()
    params = SurrogateParams(2.0, 2.0, 0.2)
    nodef, atro = [], []
    for seed in (0, 1, 2):
        ds = two_clusters(400, seed=seed)
        base = dict(params=params, epochs=400, lr=0.05, hidden=(32, 32), seed=seed)
        net_c, _ = train_neural(ds, NeuralTrainConfig(attack=AttackSpec(method="none"), **base))
        net_a, _ = train_neural(ds, NeuralTrainConfig(attack=AttackSpec(method="pgd", eps=0.1, steps=10), **base))
        nodef.append(adv_risk_01c_net(net_c, ds.x, ds.y, params, eps=0.1, steps=20))
        atro.append(adv_risk_01c_net(net_a, ds.x, ds.y, params, eps=0.1, steps=20))
    dt = time.time() - t0
    ok = float(np.mean(atro)) < float(np.mean(nodef)) and dt < 300
    report(9, ok, f"attacked 0-1-c risk over 3 seeds: defended {np.mean(atro):.4f} {[f'{v:.3f}' for v in atro]} "
                  f"vs undefended {np.mean(nodef):.4f} {[f'{v:.3f}' for v in nodef]} in {dt:.1f}s")


def test_criterion_10_bound_sanity(aus_results):
    _, trials, pc = aus_results
    params = SurrogateParams(pc.alpha, pc.beta, 0.2)
    checked, violations = 0, 0
    for models, test_ds in trials[:3]:
        for model in models.values():
            feats = Dataset(model.featurize(test_ds.x), test_ds.y)
            risk = clipped_adv_risk(model, test_ds, pc.eps_train, params)
            cfg = BoundConfig(
                w_bound=weight_bound(model, 2.0), p=2.0, delta=0.05,
                eps=pc.eps_train, params=params, mc_draws=400,
            )
            rep = generalization_bound(feats, risk, cfg, seed=13)
            checked += 1
            if rep.total < risk or min(rep.rad_zeta, rep.rad_gamma, rep.eps_term, rep.conf_term) < 0:
                violations += 1
    conf = generalization_bound(
        Dataset(np.zeros((50, 2)), np.ones(50, dtype=int)), 0.0,
        BoundConfig(w_bound=1.0, delta=0.01, params=params, mc_draws=10), seed=0,
    ).conf_term
    conf_ok = abs(conf - 0.2146) <= 5e-5
    report(10, violations == 0 and conf_ok,
           f"{violations} bound violations over {checked} models; conf term(n=50, delta=0.01) = {conf:.6f}")
