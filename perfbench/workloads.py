"""The four workloads: each a fixed list of operations with its output checks.

An operation is one library call or one CLI invocation.  ``build`` makes the
inputs (the set-up that ``setup_s`` times); ``Workload.prepare`` then computes
the references the checks compare against, outside every timer.  Every input
that varies is drawn from the workload seed.  Monte Carlo draws whose check is
a two-sided agreement within 4 standard errors use fixed seeds instead: with
30 batch means such a check fails by chance about once in 2,500 draws, and a
benchmark run must not fail on an unlucky seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs

Q, BH, GAMMA, M_SQ = 3, 2.0, 1.0, 1.0  # the bundled model: q = 3, beta_hat = 2
LOW_ESS = 10.0
MC_N = 100_000


class CheckError(AssertionError):
    """An operation's output failed its check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def finite(*values) -> None:
    for v in values:
        expect(v is not None and math.isfinite(v), f"non-finite value {v!r}")


def close(value: float, ref: float, rel: float, what: str = "value") -> None:
    finite(value)
    expect(abs(value - ref) <= rel * abs(ref),
           f"{what} {value!r} differs from reference {ref!r} by more than {rel:g} relative")


def within_se(est, ref: float, k: float = 4.0) -> None:
    finite(est.value, est.std_error)
    expect(abs(est.value - ref) <= k * est.std_error,
           f"estimate {est.value!r} is {abs(est.value - ref) / est.std_error:.2f} se from {ref!r}")


def healthy_ess(est) -> None:
    finite(est.value, est.ess)
    expect(est.ess > LOW_ESS, f"ess {est.ess} not above {LOW_ESS}")


def passed(report) -> None:
    finite(report.worst_margin)
    expect(report.passed, f"{report.check} failed: {report.violations}")


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]  # round context -> result
    check: Callable[[Any, Any], None]  # (result, reference) -> None or CheckError
    ref: Callable[[], Any] | None = None
    ref_value: Any = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    expected_failures: frozenset = frozenset()
    cleanup: Callable[[], None] = lambda: None
    meta: dict = field(default_factory=dict)

    def prepare(self) -> None:
        for op in self.ops:
            if op.ref is not None:
                op.ref_value = op.ref()


def _pair(rng: random.Random, eta: int) -> tuple[int, int]:
    i, j = sorted(rng.randrange(eta) for _ in range(2))
    return i, j


# -- quadrature ---------------------------------------------------------------


def quadrature(seed: int, root: Path) -> Workload:
    from padicqft import lattice, model, sampler, wick
    from padicqft.ultrametric import BallAddress, Region, refine

    params = model.FieldParams(p=Q, n=1, alpha=Fraction(1), m_sq=M_SQ, gamma_const=GAMMA)
    var = model.free_cell_variance(params, 0)
    rng = random.Random(seed)

    def chain(nu):
        return Region(q=Q, ambient_level=1, ball_level=0,
                      balls=tuple(BallAddress(1, 0, (i,)) for i in range(nu)))

    cov = {eta: lattice.covariance_matrix(lattice.precision_matrix(refine(chain(eta), 0), params))
           for eta in (1, 2, 3)}
    ref_cov = {eta: refs.covariance_dense([(i,) for i in range(eta)], 1, 0, Q, BH, GAMMA, M_SQ)
               for eta in (1, 2, 3)}
    e = {eta: np.eye(eta) for eta in (1, 2, 3)}

    @functools.cache
    def gh(coeffs, g, eta, h_idx, order):
        return refs.gauss_hermite(ref_cov[eta], var, coeffs, np.full(eta, g),
                                  [e[eta][i] for i in h_idx], order)

    ref_order = {1: 160, 2: 160, 3: 100}
    ops = []
    for lam in (0.0, 0.5):
        coeffs = (0.0, -lam, 0.0, 0.0, 1.0)
        P = wick.WickPolynomial(coeffs)
        for g in (0.1, 0.5):
            tag = f"lam{lam:g}_g{g:g}"
            etas = (1, 2, 3) if g == 0.1 else (1, 2)
            for eta in etas:
                order = 128 if eta < 3 else 32
                h_idx = (0, 0) if eta == 1 else _pair(rng, eta)
                src = sampler.SourceSpec(g=np.full(eta, g), h_list=tuple(e[eta][i] for i in h_idx))
                src0 = sampler.SourceSpec(g=np.full(eta, g))
                M = cov[eta]
                if eta == 1:
                    m11 = ref_cov[1][0, 0]
                    moment_ref = (lambda m11=m11, c=coeffs, g=g: refs.moment_1d(m11, var, c, g, 2))
                    z_ref = (lambda m11=m11, c=coeffs, g=g: refs.partition_1d(m11, var, c, g))
                    rel = 1e-8
                else:
                    moment_ref = (lambda c=coeffs, g=g, eta=eta, h=h_idx:
                                  gh(c, g, eta, h, ref_order[eta])[0])
                    z_ref = (lambda c=coeffs, g=g, eta=eta, h=h_idx:
                             gh(c, g, eta, h, ref_order[eta])[1])
                    rel = 1e-6
                ops += [
                    Op(f"schwinger_quadrature_{tag}_eta{eta}",
                       lambda ctx, M=M, P=P, s=src, o=order:
                           sampler.schwinger_quadrature(M, P, s, var, o),
                       lambda r, ref, rel=rel: close(r.value, ref, rel), moment_ref),
                    Op(f"partition_function_quadrature_{tag}_eta{eta}",
                       lambda ctx, M=M, P=P, s=src0, o=order:
                           sampler.partition_function_quadrature(M, P, s, var, o),
                       lambda r, ref, rel=rel: close(r.value, ref, rel), z_ref),
                    Op(f"griffiths_quadrature_{tag}_eta{eta}",
                       lambda ctx, M=M, P=P, s=src0, o=order:
                           sampler.griffiths_check(M, P, s, "quadrature", var, order=o, tol=1e-8),
                       lambda r, ref: passed(r)),
                ]
            if g == 0.1:
                h = (e[2][0],) if lam > 0 else (e[2][0], e[2][1])
                src = sampler.SourceSpec(g=np.full(2, g), h_list=h)
                ops.append(Op(
                    f"monotonicity_experiment_{tag}_2in3",
                    lambda ctx, P=P, s=src: sampler.monotonicity_experiment(
                        chain(2), chain(3), 0, params, P, s, "quadrature", order=32, tol=1e-8),
                    lambda r, ref: passed(r.report())))
    # the heaviest pass: three cells at order 64 (the doubled rule has 128^3 nodes)
    src = sampler.SourceSpec(g=np.full(3, 0.5), h_list=(e[3][0], e[3][2]))
    ops.append(Op(
        "schwinger_quadrature_lam0_g0.5_eta3_order64",
        lambda ctx, s=src: sampler.schwinger_quadrature(
            cov[3], wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0)), s, var, 64),
        lambda r, ref: close(r.value, ref, 1e-6),
        lambda: gh((0.0, 0.0, 0.0, 0.0, 1.0), 0.5, 3, (0, 2), ref_order[3])[0]))
    # free field: moments are covariance entries, exact at any order
    for eta in (2, 3):
        i, j = _pair(rng, eta)
        src = sampler.SourceSpec(g=np.zeros(eta), h_list=(e[eta][i], e[eta][j]))
        ops.append(Op(
            f"schwinger_quadrature_free_eta{eta}",
            lambda ctx, eta=eta, s=src: sampler.schwinger_quadrature(
                cov[eta], wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0)), s, var, 8),
            lambda r, ref: close(r.value, ref, 1e-10),
            lambda eta=eta, i=i, j=j: ref_cov[eta][i, j]))
    return Workload("quadrature", ops)


# -- mc -------------------------------------------------------------------------


def mc(seed: int, root: Path) -> Workload:
    from padicqft import lattice, model, sampler, wick
    from padicqft.ultrametric import BallAddress, Region, refine

    params = model.FieldParams(p=Q, n=1, alpha=Fraction(1), m_sq=M_SQ, gamma_const=GAMMA)
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(5)]

    def chain(nu):
        return Region(q=Q, ambient_level=1, ball_level=0,
                      balls=tuple(BallAddress(1, 0, (i,)) for i in range(nu)))

    def cov_of(nu, l):
        return lattice.covariance_matrix(lattice.precision_matrix(refine(chain(nu), l), params))

    m27, m3, m1 = cov_of(1, -3), cov_of(3, 0), cov_of(1, 0)
    v27, v0 = model.free_cell_variance(params, -3), model.free_cell_variance(params, 0)
    e27, e3 = np.eye(27), np.eye(3)
    x4 = wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
    ferro = wick.WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
    g27 = np.full(27, 0.2)
    a, b = _pair(rng, 27)
    src_ab = sampler.SourceSpec(g=g27, h_list=(e27[a], e27[b]))
    src_g27 = sampler.SourceSpec(g=g27)
    src_mono = sampler.SourceSpec(g=g27, h_list=(e27[0], e27[13]))
    cells27 = refs.cell_digits([(0,)], Q, 0, -3)
    ref27 = functools.cache(lambda: refs.covariance_dense(cells27, 1, -3, Q, BH, GAMMA, M_SQ))
    ref3 = refs.covariance_dense([(0,), (1,), (2,)], 1, 0, Q, BH, GAMMA, M_SQ)
    m11 = refs.covariance_dense([(0,)], 1, 0, Q, BH, GAMMA, M_SQ)[0, 0]

    def one_cell(g):
        return sampler.SourceSpec(g=np.full(1, g), h_list=(np.ones(1), np.ones(1)))

    ops = [
        Op("schwinger_mc_eta27", lambda ctx: sampler.schwinger_mc(m27, ferro, src_ab, seeds[0], MC_N, v27),
           lambda r, ref: healthy_ess(r)),
        Op("partition_function_mc_eta27",
           lambda ctx: sampler.partition_function_mc(m27, ferro, src_g27, seeds[1], MC_N, v27),
           lambda r, ref: healthy_ess(r)),
        Op("griffiths_mc_eta27",
           lambda ctx: sampler.griffiths_check(m27, ferro, src_g27, "mc", v27, seed=seeds[2],
                                               n_samples=MC_N),
           lambda r, ref: passed(r)),
        Op("monotonicity_experiment_mc_27in54",
           lambda ctx: sampler.monotonicity_experiment(chain(1), chain(2), -3, params, ferro, src_mono,
                                                       "mc", seed=seeds[3], n_samples=MC_N),
           lambda r, ref: (healthy_ess(r.small), healthy_ess(r.big), passed(r.report()))),
        Op("partition_stability_eta1",
           lambda ctx: sampler.partition_stability(m1, x4, sampler.SourceSpec(g=np.ones(1)), v0,
                                                   rho_list=(1.0, 2.0, 4.0), seed=seeds[4],
                                                   n_samples=60_000),
           lambda r, ref: [healthy_ess(est) for est in r.estimates]),
        # fixed seeds below: two-sided agreement checks (see the module docstring)
        Op("schwinger_mc_eta3_vs_quadrature",
           lambda ctx: sampler.schwinger_mc(
               m3, x4, sampler.SourceSpec(g=np.full(3, 0.1), h_list=(e3[0], e3[1])), 20240801, MC_N, v0),
           lambda r, ref: (healthy_ess(r), within_se(r, ref)),
           lambda: refs.gauss_hermite(ref3, v0, x4.coeffs, np.full(3, 0.1), [e3[0], e3[1]], 100)[0]),
    ]
    for i, j in ((0, 1), (0, 26)):
        ops.append(Op(
            f"schwinger_mc_free_eta27_{i}_{j}",
            lambda ctx, i=i, j=j: sampler.schwinger_mc(
                m27, x4, sampler.SourceSpec(g=np.zeros(27), h_list=(e27[i], e27[j])), 1000 + i + j, MC_N, v27),
            lambda r, ref: within_se(r, ref),
            lambda i=i, j=j: ref27()[i, j]))
    for g in (100.0, 400.0):
        ops.append(Op(
            f"schwinger_mc_eta1_g{g:g}",
            lambda ctx, g=g: sampler.schwinger_mc(m1, x4, one_cell(g), 7, MC_N, v0),
            lambda r, ref: (healthy_ess(r), within_se(r, ref)),
            lambda g=g: refs.moment_1d(m11, v0, x4.coeffs, g, 2)))
    # exp(-:P:) overflows at g = 400, so the estimate is NaN (see README)
    return Workload("mc", ops, expected_failures=frozenset({"schwinger_mc_eta1_g400"}))


# -- lattice --------------------------------------------------------------------


def lattice_workload(seed: int, root: Path) -> Workload:
    from padicqft import lattice, model, ultrametric
    from padicqft.ultrametric import parse_region

    params = model.FieldParams(p=Q, n=1, alpha=Fraction(1), m_sq=M_SQ, gamma_const=GAMMA)
    rng = random.Random(seed)
    oracles = refs.load_oracles(root)

    # regular: three balls of the amb=1 tree refined six levels (3 * 3^6 cells);
    # irregular: nine scattered level-0 balls of an amb=3 tree refined five levels
    addresses = [f"{i}{j}{k}" for i in range(3) for j in range(3) for k in range(3)]
    while True:
        scattered = sorted(rng.sample(addresses, 9))
        if len({s[0] for s in scattered}) > 1:
            break
    nested = sorted(rng.sample(scattered, 4))
    regions = {
        "regular": ("amb=1;k=0;balls=0,1,2", -6),
        "irregular": (f"amb=3;k=0;balls={','.join(scattered)}", -5),
    }
    parsed = {key: parse_region(text, Q) for key, (text, _) in regions.items()}
    small = parse_region(f"amb=3;k=0;balls={','.join(nested)}", Q)

    def reference(key):
        region, l = parsed[key], regions[key][1]
        digits = refs.cell_digits([b.digits for b in region.balls], Q, 0, l)
        amb = region.ambient_level
        dist = refs.distance_exponents(digits, amb)
        dmin = int(dist.min())
        free = np.array([oracles.series_covariance_entry(Q, BH, GAMMA, M_SQ, l, d)
                         for d in range(dmin, int(dist.max()) + 1)])
        diag = oracles.series_covariance_entry(Q, BH, GAMMA, M_SQ, l, oracles.SAME)
        pairs = [(rng.randrange(len(digits)), rng.randrange(len(digits))) for _ in range(64)]
        pairs += [(i, i) for i, _ in pairs[:8]]
        entries = {(i, j): refs.precision_entry(digits[i], digits[j], amb, l, Q, BH, GAMMA, M_SQ)
                   for i, j in pairs}
        rows = sorted(rng.sample(range(len(digits)), 8))
        return {"digits": digits, "dist": dist, "dmin": dmin, "free": free, "free_diag": diag,
                "entries": entries, "rows": rows}

    def check_cells(lat, ref):
        expect([c.digits for c in lat.cells] == ref["digits"], "cells differ from the enumeration")

    def check_precision(N, ref):
        a = np.asarray(N.entries)
        expect(bool(np.all(np.isfinite(a))), "non-finite precision entry")
        expect(bool(np.array_equal(a, a.T)), "precision matrix is not symmetric")
        for (i, j), want in ref["entries"].items():
            close(float(a[i, j]), want, 1e-13, f"N[{i},{j}]")

    def check_covariance(M, ref):
        m, n = np.asarray(M.entries), np.asarray(M.precision.entries)
        expect(bool(np.all(np.isfinite(m))), "non-finite covariance entry")
        expect(float(m.min()) >= 0.0, f"negative covariance entry {float(m.min())!r}")
        rows = ref["rows"]
        product = np.einsum("ij,jk->ik", m[rows], n)  # not the BLAS product the program uses
        product[np.arange(len(rows)), rows] -= 1.0
        residual = float(np.abs(product).max())
        expect(residual <= 1e-9, f"|M N - I| = {residual:.3e} on sampled rows")
        bound = ref["free"][ref["dist"] - ref["dmin"]]
        np.fill_diagonal(bound, ref["free_diag"])
        excess = float((m - bound).max())
        expect(excess <= 1e-12, f"M exceeds the free covariance by {excess:.3e}")

    def region_ops(key, l):
        ref = functools.cache(lambda: reference(key))

        def do_refine(ctx):
            ctx[key] = {"lat": ultrametric.refine(parsed[key], l)}
            return ctx[key]["lat"]

        def do_precision(ctx):
            ctx[key]["N"] = lattice.precision_matrix(ctx[key]["lat"], params)
            return ctx[key]["N"]

        def do_covariance(ctx):
            ctx[key]["M"] = lattice.covariance_matrix(ctx[key]["N"])
            return ctx[key]["M"]

        def do_domination(ctx):  # last use: the region's matrices are dropped here
            return lattice.domination_check(ctx.pop(key)["M"], params)

        return [
            Op(f"refine_{key}", do_refine, check_cells, ref),
            Op(f"precision_matrix_{key}", do_precision, check_precision, ref),
            Op(f"covariance_matrix_{key}", do_covariance, check_covariance, ref),
            Op(f"domination_check_{key}", do_domination, lambda r, ref: passed(r)),
        ]

    big = parsed["irregular"]
    ops = region_ops("regular", regions["regular"][1]) + region_ops("irregular", regions["irregular"][1])
    ops += [
        Op("restriction_check_4in9", lambda ctx: lattice.restriction_check(small, big, -4, params),
           lambda r, ref: expect(r is True, "shared precision entries differ")),
        Op("monotonicity_check_4in9", lambda ctx: lattice.monotonicity_check(small, big, -4, params),
           lambda r, ref: passed(r)),
    ]
    return Workload("lattice", ops, meta={"irregular": scattered, "nested": nested})


# -- cli ------------------------------------------------------------------------


def cli(seed: int, root: Path) -> Workload:
    from padicqft import cli as padicqft_cli

    oracles = refs.load_oracles(root)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    default = root / "configs" / "default.ini"
    text = default.read_text(encoding="utf-8")
    expect("method = quadrature" in text, "configs/default.ini no longer sets method = quadrature")
    mc_config = work / "mc.ini"
    mc_config.write_text(text.replace("method = quadrature", "method = mc"), encoding="utf-8")
    mc_seed = random.Random(seed).randrange(2**31)
    first_round: dict[str, dict[str, bytes]] = {}

    invocations = {
        "integrals": ["integrals", "--config", str(default)],
        "green": ["green", "--config", str(default)],
        "lattice": ["lattice", "--config", str(default)],
        "wick": ["wick", "--config", str(default)],
        "schwinger_quadrature": ["schwinger", "--config", str(default)],
        "schwinger_mc": ["schwinger", "--config", str(mc_config), "--seed", str(mc_seed)],
        "verify": ["verify", "--config", str(default)],
    }

    def run(name):
        def call(ctx):
            out = work / f"round{ctx['round']}" / name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ctx["span"](f"cli.{name}", padicqft_cli.main, invocations[name] + ["--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            shutil.rmtree(out, ignore_errors=True)
            return rc, files
        return call

    def rows(files, prefix, suffix=".csv"):
        """The artifact's CSV rows, '#' metadata lines dropped."""
        name = next(n for n in files if n.startswith(prefix) and n.endswith(suffix))
        return [line.split(",") for line in files[name].decode().strip().splitlines()
                if not line.startswith("#")]

    def check_integrals(files, ref):
        body = rows(files, "integrals_")[1:]
        expect(len(body) == 30, "integrals table must have kappa = 1..30")
        for row in body:
            kappa = int(row[0])
            close(float(row[1]), oracles.series_ball_integral(Q, BH, GAMMA, M_SQ, kappa), 1e-10,
                  f"c_kappa_sq({kappa})")
            for col, beta in ((3, 1.5), (5, 2.0), (7, 3.0)):
                close(float(row[col]), refs.tail_series(Q, BH, GAMMA, M_SQ, kappa, beta), 1e-10,
                      f"tail({kappa},{beta})")

    def series_agree(got, want):
        # the test suite's tolerance for these series: the literal character
        # series cancels, so far-off values are good only to about 1e-14 absolute
        return math.isfinite(got) and abs(got - want) <= max(1e-9 * abs(want), 1e-14)

    def check_green(files, ref):
        header, *body = rows(files, "green_")
        kappas = [int(h.removeprefix("green_reg_k")) for h in header[2:]]
        for row in body:
            d = oracles.SAME if row[0] == "-inf" else int(row[0])
            if d == oracles.SAME:  # the origin: ball integral up to q^0 plus tail from q^1
                want = (oracles.series_ball_integral(Q, BH, GAMMA, M_SQ, 0)
                        + refs.tail_series(Q, BH, GAMMA, M_SQ, 1, 1.0))
                expect(series_agree(float(row[1]), want), f"green(origin) {row[1]} vs {want!r}")
            else:
                want = oracles.series_green(Q, BH, GAMMA, M_SQ, d)
                expect(series_agree(float(row[1]), want), f"green({d}) {row[1]} vs {want!r}")
            for kappa, value in zip(kappas, row[2:]):
                want = oracles.series_green_regularized(Q, BH, GAMMA, M_SQ, kappa, d)
                expect(series_agree(float(value), want), f"green_reg({kappa},{d}) {value} vs {want!r}")

    def check_lattice(files, ref):
        n = [[float(v) for v in row] for row in rows(files, "lattice_", "_N.csv")]
        m = [[float(v) for v in row] for row in rows(files, "lattice_", "_M.csv")]
        eta = len(n)
        worst = max(abs(sum(m[i][k] * n[k][j] for k in range(eta)) - (i == j))
                    for i in range(eta) for j in range(eta))
        expect(worst <= 1e-12, f"|M N - I| = {worst:.3e}")

    def check_wick(files, ref):
        for k, j, w in rows(files, "wick_coeffs_")[1:]:
            k, j = int(k), int(j)
            want = (-1) ** j * math.factorial(k) // (2**j * math.factorial(j) * math.factorial(k - 2 * j))
            expect(w == str(want), f"wick coefficient ({k},{j}) = {w}, want {want}")
        for order in (2, 3, 4):
            for row in rows(files, f"wick_decay_k{order}_")[1:]:
                dist = float(row[1])
                expect(math.isfinite(dist) and dist >= 0, f"wick decay distance {row[1]}")

    def check_schwinger(files, ref, mc_method):
        stats = {row[0]: row for row in rows(files, "schwinger_")[1:]}
        for row in stats.values():
            finite(float(row[1]), float(row[2]))
            if mc_method:
                expect(float(row[3]) > LOW_ESS, f"ess {row[3]}")
        if not mc_method:
            close(float(stats["schwinger"][1]), ref[0], 1e-6, "schwinger value")
            close(float(stats["partition"][1]), ref[1], 1e-6, "partition value")

    def check_verify(files, ref):
        doc = json.loads(next(v for n, v in files.items() if n.startswith("verify_")))
        expect(doc["all_pass"] is True and doc["checks"], "verify reports a failing check")

    def quad_ref():  # configs/default.ini: three cells, X^4, g = 0.1, h = e0;e1
        m = refs.covariance_dense([(0,), (1,), (2,)], 1, 0, Q, BH, GAMMA, M_SQ)
        variance = oracles.series_covariance_entry(Q, BH, GAMMA, M_SQ, 0, oracles.SAME)
        return refs.gauss_hermite(m, variance, (0.0, 0.0, 0.0, 0.0, 1.0), np.full(3, 0.1),
                                  [np.eye(3)[0], np.eye(3)[1]], 100)
    checks = {
        "integrals": check_integrals,
        "green": check_green,
        "lattice": check_lattice,
        "wick": check_wick,
        "schwinger_quadrature": lambda f, ref: check_schwinger(f, ref, False),
        "schwinger_mc": lambda f, ref: check_schwinger(f, ref, True),
        "verify": check_verify,
    }

    def checked(name):
        def check(result, ref):
            rc, files = result
            expect(rc == 0, f"exit status {rc}")
            if name not in first_round:
                checks[name](files, ref)
                first_round[name] = files
            else:  # identical config and seed: byte-identical artifacts
                expect(files == first_round[name], "artifacts differ from the first round")
        return check

    ops = [Op(name, run(name), checked(name), quad_ref if name == "schwinger_quadrature" else None)
           for name in invocations]
    return Workload("cli", ops, cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


BUILDERS = {"quadrature": quadrature, "mc": mc, "lattice": lattice_workload, "cli": cli}
