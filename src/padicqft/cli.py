"""Operator-facing command line: config parsing, subcommands, artifacts.

Configs are INI-style (see README for the grammar); every section has
documented defaults so a minimal file, or none at all, runs the bundled
q = 3 model.  Artifact names are deterministic functions of the subcommand
and a hash of the effective canonical config, and identical config + seed
produces byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import lattice as lat
from . import model, sampler, verify, wick
from .model import FieldParams, _is_odd_prime
from .ultrametric import MAX_DENSE_CELLS, SAME, Region, _cell_count, parse_region, refine

ENV_PREFIX = "PADICQFT_"


class ConfigError(ValueError):
    """Carries the complete list of validation problems, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


_INVALID = object()  # what _Key.read returns for a value it rejected


@dataclass(frozen=True)
class _Key:
    """One INI key: its section, default text, and how it is read, checked and written."""

    section: str
    name: str
    default: str
    parse: Callable[[str], Any] = str
    check: Callable[[Any], bool] | None = None
    message: str = ""  # why a parsed value failed ``check``
    unparsable: str | None = None  # replaces "cannot parse <text>"
    text: Callable[[Any], str] = str  # canonical form; str(float) is its repr

    def problem(self, message: str) -> str:
        return f"[{self.section}] {self.name}: {message}"

    def read(self, raw: str, errors: list[str]):
        """The parsed and checked value, or _INVALID after recording the problem."""
        try:
            value = self.parse(raw)
        except (ValueError, ZeroDivisionError):
            errors.append(self.problem(self.unparsable or f"cannot parse {raw!r}"))
            return _INVALID
        if self.check is not None and not self.check(value):
            errors.append(self.problem(self.message))
            return _INVALID
        return value


def _key(section: str, name: str, default: str, parse=str, check=None, message="", **kw):
    return field(metadata={"key": _Key(section, name, default, parse, check, message, **kw)})


def _positive(v) -> bool:
    return v > 0


def _sorted_balls(text: str) -> str:
    """A ball listing in one order: its tokens stripped and sorted, which for the
    same-length base-36 digit strings of one ball level is digit order."""
    return ",".join(sorted(token.strip() for token in text.split(",")))


@dataclass(frozen=True)
class RunConfig:
    """The effective configuration; each field declares its own INI key.

    Field order is the canonical order of sections and keys.
    """

    p: int = _key("field", "p", "3", int, lambda v: v < model.PRIME_TEST_BOUND and _is_odd_prime(v),
                  f"p must be an odd prime below {model.PRIME_TEST_BOUND}")
    n: int = _key("field", "n", "1", int, lambda v: v in (1, 2, 3, 4), "n must be in 1..4")
    alpha: Fraction = _key("field", "alpha", "1", Fraction)
    m_sq: float = _key("field", "m_sq", "1.0", float, _positive, "m_sq must be positive")
    gamma_const: float = _key("field", "gamma_const", "1.0", float, _positive,
                              "gamma_const must be positive")
    omega: float | None = _key(  # None = auto-resolve
        "field", "omega", "auto", lambda s: None if s == "auto" else float(s),
        lambda v: v is None or v <= 0, "omega must be nonpositive",
        text=lambda v: "auto" if v is None else str(v))
    ambient_level: int = _key("region", "ambient_level", "1", int)
    k: int = _key("region", "k", "0", int)
    balls: str = _key("region", "balls", "0,1,2", _sorted_balls)
    l: int = _key("lattice", "l", "0", int)
    coefficients: tuple[float, ...] = _key(
        "polynomial", "coefficients", "0,0,0,0,1",
        lambda s: tuple(float(c) for c in s.split(",")),
        unparsable="cannot parse float list", text=lambda v: ",".join(map(repr, v)))
    lam: float = _key("polynomial", "lambda", "0", float, lambda v: v >= 0,
                      "lambda must be nonnegative")
    g_spec: str = _key("source", "g", "0.1")
    h_spec: str = _key("source", "h", "e0;e1")
    seed: int = _key("run", "seed", "20240801", int, lambda v: v >= 0, "seed must be nonnegative")
    n_samples: int = _key("run", "n_samples", "20000", int, lambda v: v >= 1000,
                          "n_samples must be >= 1000")
    method: str = _key("run", "method", "quadrature", str, lambda v: v in ("mc", "quadrature"),
                       "method must be 'mc' or 'quadrature'")
    tol: float = _key("run", "tol", "1e-12", float, _positive, "tol must be positive")
    quadrature_order: int = _key("run", "quadrature_order", "40", int, lambda v: v >= 4,
                                 "quadrature_order must be >= 4")
    out: str = _key("run", "out", "out")

    def params(self) -> FieldParams:
        return FieldParams(
            p=self.p,
            n=self.n,
            alpha=self.alpha,
            m_sq=self.m_sq,
            gamma_const=self.gamma_const,
            omega_const=self.omega,
        )

    def region(self) -> Region:
        text = f"amb={self.ambient_level};k={self.k};balls={self.balls}"
        return parse_region(text, self.p**self.n)

    def lattice(self):
        return refine(self.region(), self.l)

    def polynomial(self) -> wick.WickPolynomial:
        coeffs = list(self.coefficients)
        if self.lam:
            coeffs[1] = -self.lam
        return wick.WickPolynomial(tuple(coeffs))

    def resolve_g(self, eta: int) -> np.ndarray:
        return sampler.SourceSpec(g=_parse_cell_values(self.g_spec, eta)).g  # checks g >= 0

    def resolve_h(self, eta: int) -> tuple[np.ndarray, ...]:
        entries = [e.strip() for e in self.h_spec.split(";") if e.strip()]
        return tuple(_parse_cell_values(e, eta) for e in entries)

    def source(self, eta: int) -> sampler.SourceSpec:
        return sampler.SourceSpec(g=self.resolve_g(eta), h_list=self.resolve_h(eta))


_KEYS = {f.name: f.metadata["key"] for f in fields(RunConfig)}  # field name -> its key
_FIELD_OF = {(key.section, key.name): name for name, key in _KEYS.items()}


def _parse_cell_values(spec: str, eta: int) -> np.ndarray:
    spec = spec.strip()
    if spec.startswith("e") and spec[1:].isdigit():
        idx = int(spec[1:])
        if idx >= eta:
            raise ValueError(f"entry {spec!r} indexes past the {eta} lattice cells")
        out = np.zeros(eta)
        out[idx] = 1.0
        return out
    values = [float(v) for v in spec.split(",")]
    if len(values) == 1:
        return np.full(eta, values[0])
    if len(values) != eta:
        raise ValueError(f"{spec!r} has {len(values)} values but the lattice has {eta} cells")
    return np.asarray(values)


def _read(raw: dict[str, str], errors: list[str]) -> dict:
    """Field name -> value for every raw text that parses and passes its check."""
    values = {name: _KEYS[name].read(text, errors) for name, text in raw.items()}
    return {name: v for name, v in values.items() if v is not _INVALID}


def parse_config(text: str, strict: bool = True) -> RunConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None)
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    def unknown(msg: str) -> None:
        if strict:
            errors.append(msg)
        else:
            print(f"warning: {msg} ignored", file=sys.stderr)

    raw = {name: key.default for name, key in _KEYS.items()}
    sections = {key.section for key in _KEYS.values()}
    for section in parser.sections():
        if section not in sections:
            unknown(f"unknown section [{section}]")
            continue
        for key, value in parser.items(section):
            name = _FIELD_OF.get((section, key))
            if name is None:
                unknown(f"unknown key {key!r} in section [{section}]")
            else:
                raw[name] = value.strip()
    v = _read(raw, errors)

    def bad(name: str, message: str) -> None:
        errors.append(_KEYS[name].problem(message))

    # the rules that involve more than one key, checked where those keys are valid
    if "alpha" in v and "n" in v and 2 * v["alpha"] < v["n"]:
        bad("alpha", f"alpha must be >= n/2 (got {v['alpha']} with n={v['n']})")
    if "k" in v and "ambient_level" in v and v["k"] > v["ambient_level"]:
        bad("k", "ball level k must not exceed ambient_level")
    if "l" in v and "k" in v and v["l"] > v["k"]:
        bad("l", "refinement level must satisfy l <= k")
    if "coefficients" in v:
        coeffs = v["coefficients"]
        degree = len(coeffs) - 1
        if degree % 2 != 0:
            bad("coefficients", "interaction degree must be even")
        elif coeffs[-1] <= 0:
            bad("coefficients", "leading coefficient must be positive (semibounded interaction)")
        if v.get("lam"):
            if degree < 2:
                bad("lam", "a linear term needs degree >= 2")
            elif coeffs[1] != 0:
                bad("lam", "set either lambda or a nonzero a_1, not both")
    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(**v)
    try:
        region = cfg.region()  # the digit strings must fit q, k and ambient_level
    except ValueError as exc:
        raise ConfigError([_KEYS["balls"].problem(str(exc))]) from exc
    eta = _cell_count(region, cfg.l, MAX_DENSE_CELLS)
    if isinstance(eta, str):  # before any per-cell array is built
        raise ConfigError([_KEYS["l"].problem(eta)])
    for name, resolve in (("g_spec", cfg.resolve_g), ("h_spec", cfg.resolve_h)):
        try:
            resolve(eta)
        except ValueError as exc:
            bad(name, str(exc))
    if errors:
        raise ConfigError(errors)
    return cfg


def canonical_text(cfg: RunConfig) -> str:
    """Canonical INI serialization; parse_config(canonical_text(c)) == c."""
    lines, section = [], None
    for name, key in _KEYS.items():
        if key.section != section:
            lines += [""] if section else []
            lines.append(f"[{key.section}]")
            section = key.section
        lines.append(f"{key.name} = {key.text(getattr(cfg, name))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Hash of the canonical config minus the output directory.

    Where results go must not change what they are called or contain.
    """
    text = canonical_text(replace(cfg, out="out"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


class _ArtifactWriter:
    """The artifact policy: each file is ``outdir/<name>``, with the config hash in
    place of ``{h}`` in name, prints one ``wrote <path>`` line, and is tracked so
    partial outputs can be removed on failure."""

    def __init__(self, outdir: Path, config_hash: str):
        self.outdir = outdir
        self.hash = config_hash
        self.written: list[Path] = []

    def write_text(self, name: str, text: str) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        p = self.outdir / name.format(h=self.hash)
        self.written.append(p)
        p.write_text(text, encoding="utf-8")
        print(f"wrote {p}")

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        self.write_text(name, "\n".join(lines) + "\n")

    def discard_all(self) -> None:
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def run_integrals(cfg: RunConfig, writer: _ArtifactWriter) -> int:
    params = cfg.params()
    betas = (1.5, 2.0, 3.0)
    c1 = model.resolvent_ball_bound_constant(params)
    header = ["kappa", "c_kappa_sq", "ball_bound"]
    for b in betas:
        header += [f"tail_beta{b:g}", f"tail_bound_beta{b:g}"]
    rows = []
    for kappa in range(1, 31):
        row = [kappa, model.c_kappa_sq(params, kappa, cfg.tol), c1 * kappa]
        for b in betas:
            bb = params.beta_hat_float * b
            row += [
                model.resolvent_tail_integral(params, kappa, b, cfg.tol),
                model.resolvent_tail_bound_constant(params, b) * params.q_float ** (-kappa * (bb - 1)),
            ]
        rows.append(row)
    writer.write_csv("integrals_{h}.csv", header, rows)
    return 0


def run_green(cfg: RunConfig, writer: _ArtifactWriter) -> int:
    params = cfg.params()
    kappas = (0, 2, 5)
    header = ["d", "green"] + [f"green_reg_k{k}" for k in kappas]
    rows = []
    points = [SAME] + list(range(-10, 11))
    for d in points:
        label = "-inf" if d == SAME else int(d)
        row = [label, model.green_function(params, d, cfg.tol)]
        row += [model.green_regularized(params, k, d, cfg.tol) for k in kappas]
        rows.append(row)
    writer.write_csv("green_{h}.csv", header, rows)
    return 0


def run_lattice(cfg: RunConfig, writer: _ArtifactWriter) -> int:
    params = cfg.params()
    lattice = cfg.lattice()
    n = lat.precision_matrix(lattice, params)
    m = lat.covariance_matrix(n)
    for suffix, name, matrix in (("N", "precision", n.entries), ("M", "covariance", m.entries)):
        meta = (
            f"# name={name};lattice={lattice.region.serialize()};"
            f"l={lattice.cell_level};eta={lattice.eta}"
        )
        writer.write_csv(f"lattice_{{h}}_{suffix}.csv", [meta], matrix)
    return 0


def run_wick(cfg: RunConfig, writer: _ArtifactWriter) -> int:
    params = cfg.params()
    lattice = cfg.lattice()
    rows = []
    for k in range(0, 9):
        for j, w in enumerate(wick.wick_coefficients(k).coefficients):
            rows.append([k, j, w])
    writer.write_csv("wick_coeffs_{h}.csv", ["k", "j", "w"], rows)
    g = cfg.resolve_g(lattice.eta)
    orders, kappa2_values = (2, 3, 4), range(1, 11)
    table = wick.wick_l2_decay(params, 20, kappa2_values, orders, lattice, g, tol=cfg.tol)
    for k, values in zip(orders, table.tolist()):
        rows, prev = [], math.nan  # no ratio for the first kappa2, nor next to a zero
        for kappa2, value in zip(kappa2_values, values):
            ratio = math.log(prev / value) / math.log(params.q) if value > 0 and prev > 0 else math.nan
            rows.append([kappa2, value, ratio])
            prev = value
        writer.write_csv(f"wick_decay_k{k}_{{h}}.csv", ["kappa2", "distance", "log_q_ratio"], rows)
    return 0


def run_schwinger(cfg: RunConfig, writer: _ArtifactWriter, trace: bool = False) -> int:
    params = cfg.params()
    lattice = cfg.lattice()
    poly = cfg.polynomial()
    src = cfg.source(lattice.eta)
    var = model.free_cell_variance(params, lattice.cell_level)
    m = lat.covariance_matrix(lat.precision_matrix(lattice, params))
    if cfg.method == "quadrature":
        est = sampler.schwinger_quadrature(m, poly, src, var, cfg.quadrature_order)
        z = replace(est, value=est.partition)
    else:
        # every cell, not only those the estimates read: --trace writes every column
        draw = sampler._mc_draw(m, poly, src, var, cfg.seed, cfg.n_samples)
        est, z = sampler._mc_schwinger(draw, src), sampler._mc_partition(draw)
    header = ["statistic", "value", "std_error", "ess", "n_samples", "method"]
    rows = [
        ["schwinger", est.value, est.std_error, est.ess if est.ess is not None else "", est.n_samples, est.method],
        ["partition", z.value, z.std_error, z.ess if z.ess is not None else "", z.n_samples, z.method],
    ]
    writer.write_csv("schwinger_{h}.csv", header, rows)
    if est.low_ess or z.low_ess:
        print("warning: effective sample size below 10; estimates are low quality")
    if trace and cfg.method == "mc":  # the first rows of the draw behind both estimates
        t = draw[0][:10_000]
        rows = [[i, *row] for i, row in enumerate(t.tolist())]
        header = ["index"] + [f"t{i}" for i in range(lattice.eta)]
        writer.write_csv("trace_{h}.csv", header, rows)
    return 0


def run_verify_cmd(cfg: RunConfig, writer: _ArtifactWriter) -> int:
    reports = verify.run_verify(cfg.seed)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check} (worst_margin={r.worst_margin:.6g})")
    doc = {
        "config_hash": writer.hash,
        "seed": cfg.seed,
        "checks": [r.to_json_dict() for r in reports],
        "all_pass": all_pass,
    }
    writer.write_text("verify_{h}.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all_pass else 1


_RUNNERS = {
    "integrals": run_integrals,
    "green": run_green,
    "lattice": run_lattice,
    "wick": run_wick,
    "schwinger": run_schwinger,
    "verify": run_verify_cmd,
}


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


_PARSER = argparse.ArgumentParser(
    prog="padicqft",
    description="Ultrametric lattice field theory: integrals, Green functions, "
    "lattice matrices, Wick calculus, Schwinger estimates, verification",
)
_PARSER.add_argument("subcommand", choices=sorted(_RUNNERS))
_PARSER.add_argument("--config", type=Path, default=None, help="INI config path")
_PARSER.add_argument("--seed", default=None, help="override run.seed")
_PARSER.add_argument("--out", default=None, help="override output directory")
_PARSER.add_argument("--tol", default=None, help="override run.tol")
_PARSER.add_argument("--trace", action="store_true", help="emit per-sample traces (mc only)")
_strictness = _PARSER.add_mutually_exclusive_group()
_strictness.add_argument("--strict", dest="strict", action="store_true", default=None,
                         help="reject unknown config keys (default)")
_strictness.add_argument("--lenient", dest="strict", action="store_false",
                         help="warn on unknown config keys instead of failing")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    config_path = args.config
    if config_path is None and _env("CONFIG"):
        config_path = Path(_env("CONFIG"))
    strict = args.strict
    if strict is None:
        strict = _env("STRICT") not in ("0", "false", "no") if _env("STRICT") else True

    try:
        text = config_path.read_text(encoding="utf-8") if config_path else ""
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    # flags win over environment variables; both are read and checked like config values
    overrides = {name: raw for name in ("seed", "out", "tol")
                 if (raw := getattr(args, name) or _env(name.upper()))}
    try:
        cfg = parse_config(text, strict=strict)
        errors: list[str] = []
        cfg = replace(cfg, **_read(overrides, errors))
        if errors:
            raise ConfigError(errors)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    writer = _ArtifactWriter(Path(cfg.out), config_hash(cfg))
    runner = _RUNNERS[args.subcommand]
    try:
        if args.subcommand == "schwinger":
            return runner(cfg, writer, trace=args.trace)
        return runner(cfg, writer)
    except Exception as exc:  # remove partial outputs, then report
        writer.discard_all()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
