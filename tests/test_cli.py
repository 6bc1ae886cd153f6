"""Config parsing, canonical round-trip, subcommand artifacts, determinism."""

import configparser
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import padicqft.cli
import padicqft.model
from padicqft.cli import (
    ConfigError,
    _fmt,
    canonical_text,
    config_hash,
    main,
    parse_config,
)
from padicqft.lattice import covariance_matrix, precision_matrix
from padicqft.model import free_cell_variance
from padicqft.sampler import _mc_draw

MINIMAL = """
[field]
p = 3
n = 1
alpha = 1
m_sq = 1.0
"""


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    # the child imports the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(args, cwd=None, module="padicqft.cli"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.p == 3 and cfg.n == 1
        assert cfg.params().omega_const == pytest.approx(-108.0 / 13.0, rel=1e-12)
        assert cfg.method == "quadrature"
        assert cfg.lattice().eta == 3

    def test_empty_config_uses_bundled_defaults(self):
        cfg = parse_config("")
        assert cfg.params().q == 3
        assert cfg.polynomial().degree == 4

    def test_alpha_below_half_n_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[field]\nalpha = 1/4\n")
        assert any("alpha must be >= n/2" in e for e in err.value.errors)

    def test_negative_leading_coefficient_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[polynomial]\ncoefficients = 0,0,0,0,-1\n")
        assert any("leading coefficient must be positive" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        bad = "[field]\np = 4\nalpha = 1/4\nm_sq = -2\n[run]\nmethod = magic\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.errors) >= 4

    def test_unknown_key_strict(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[field]\nwibble = 3\n")
        assert any("unknown key" in e for e in err.value.errors)

    def test_unknown_section_strict(self):
        with pytest.raises(ConfigError):
            parse_config("[wibble]\nx = 1\n")

    def test_lenient_ignores_unknown(self, capsys):
        cfg = parse_config("[field]\nwibble = 3\n", strict=False)
        assert cfg.p == 3
        assert "warning" in capsys.readouterr().err

    def test_fraction_alpha(self):
        cfg = parse_config("[field]\nalpha = 3/2\n")
        assert float(cfg.params().beta_hat) == 3.0

    def test_lambda_folds_into_polynomial(self):
        cfg = parse_config("[polynomial]\ncoefficients = 0,0,0,0,1\nlambda = 0.5\n")
        poly = cfg.polynomial()
        assert poly.coeffs[1] == -0.5
        _, lam = poly.ferromagnetic_form()
        assert lam == 0.5

    def test_lambda_with_existing_a1_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[polynomial]\ncoefficients = 0,0.3,0,0,1\nlambda = 0.5\n")

    def test_explicit_omega(self):
        cfg = parse_config("[field]\nomega = -2.5\n")
        assert cfg.params().omega_const == -2.5
        with pytest.raises(ConfigError):
            parse_config("[field]\nomega = 0.5\n")

    def test_source_resolution(self):
        cfg = parse_config("[source]\ng = 0.25\nh = e1;0.1,0.2,0.3\n")
        src = cfg.source(3)
        assert list(src.g) == [0.25] * 3
        assert list(src.h_list[0]) == [0.0, 1.0, 0.0]
        assert list(src.h_list[1]) == [0.1, 0.2, 0.3]

    def test_default_hash_unchanged(self):
        default = parse_config(Path("configs/default.ini").read_text())
        assert config_hash(default) == config_hash(parse_config("")) == "5494ef9dc9"

    @pytest.mark.parametrize("text, message", [
        ("[region]\nambient_level = 1\nk = 2\n",
         "[region] k: ball level k must not exceed ambient_level"),
        ("[lattice]\nl = 1\n", "[lattice] l: refinement level must satisfy l <= k"),
        ("[polynomial]\ncoefficients = 0,0,0,1\n",
         "[polynomial] coefficients: interaction degree must be even"),
        ("[polynomial]\ncoefficients = 1\nlambda = 0.5\n",
         "[polynomial] lambda: a linear term needs degree >= 2"),
        ("p = 3\n", "malformed config: File contains no section headers."),
    ])
    def test_cross_key_rules_and_malformed_text(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors[0].startswith(message), err.value.errors

    def test_readme_example_is_the_default_config(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        assert config_hash(parse_config(block)) == "5494ef9dc9"

    def test_ball_listing_order_is_not_hashed(self, tmp_path):
        names = []
        for listing in ("2,0,1", "0, 1,2"):
            cfg = parse_config(f"[region]\nballs = {listing}\n")
            assert cfg.balls == "0,1,2" and config_hash(cfg) == "5494ef9dc9"
            assert canonical_text(cfg) == canonical_text(parse_config(""))
            path = tmp_path / f"{listing}.ini"
            path.write_text(f"[region]\nballs = {listing}\n")
            out = tmp_path / f"out {listing}"
            assert main(["lattice", "--config", str(path), "--out", str(out)]) == 0
            names.append(sorted(f.name for f in out.iterdir()))
        assert names[0] == names[1]

    @pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1])
    def test_prime_past_the_prime_tests_bound_rejected(self, tmp_path, capsys, p):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[field]\np = {p}\n")
        assert err.value.errors == [
            "[field] p: p must be an odd prime below 3317044064679887385961981"]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[field]\np = {p}\n")
        assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[field] p: p must be an odd prime below" in capsys.readouterr().err

    def test_region_digit_validation(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[region]\nballs = 0,5\n")
        assert any("balls" in e for e in err.value.errors)


class TestCanonicalForm:
    def test_round_trip_identity(self):
        for text in ("", MINIMAL, "[polynomial]\ncoefficients = 1,0,2.5,0,1\n"):
            cfg = parse_config(text)
            again = parse_config(canonical_text(cfg))
            assert again == cfg
            assert canonical_text(again) == canonical_text(cfg)

    def test_hash_ignores_output_dir(self):
        from dataclasses import replace

        cfg = parse_config(MINIMAL)
        assert config_hash(cfg) == config_hash(replace(cfg, out="elsewhere"))
        assert config_hash(cfg) != config_hash(replace(cfg, seed=cfg.seed + 1))


class TestSubcommands:
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL)
        return path

    def test_integrals_artifact(self, tmp_path):
        rc = main(["integrals", "--config", str(self.config_path(tmp_path)),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        files = list((tmp_path / "o").glob("integrals_*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().strip().splitlines()
        assert lines[0].startswith("kappa,c_kappa_sq,ball_bound")
        assert len(lines) == 31
        first = lines[1].split(",")
        assert float(first[1]) <= float(first[2])

    def test_green_artifact(self, tmp_path):
        rc = main(["green", "--config", str(self.config_path(tmp_path)),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = next((tmp_path / "o").glob("green_*.csv")).read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "-inf"
        by_d = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert float(by_d["0"][1]) == pytest.approx(0.5435059757924683, rel=1e-9)

    def test_lattice_artifact_hand_values(self, tmp_path):
        rc = main(["lattice", "--config", str(self.config_path(tmp_path)),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        n_csv = next((tmp_path / "o").glob("lattice_*_N.csv")).read_text().strip().splitlines()
        row = [float(v) for v in n_csv[1].split(",")]
        assert row[0] == pytest.approx(22.0 / 13.0, abs=1e-12)
        assert row[1] == pytest.approx(-4.0 / 13.0, abs=1e-12)
        m_csv = next((tmp_path / "o").glob("lattice_*_M.csv")).read_text().strip().splitlines()
        mrow = [float(v) for v in m_csv[1].split(",")]
        assert mrow[0] == pytest.approx(0.5 + 1.0 / 7.0, abs=1e-10)

    def test_wick_artifacts(self, tmp_path):
        rc = main(["wick", "--config", str(self.config_path(tmp_path)),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        coeffs = next((tmp_path / "o").glob("wick_coeffs_*.csv")).read_text().splitlines()
        assert "4,1,-6" in coeffs
        decay = next((tmp_path / "o").glob("wick_decay_k2_*.csv")).read_text().splitlines()
        assert decay[0] == "kappa2,distance,log_q_ratio"
        values = [float(r.split(",")[1]) for r in decay[1:]]
        assert all(a >= b for a, b in zip(values, values[1:]))
        ratios = [float(r.split(",")[2]) for r in decay[2:]]
        assert all(r > 0 for r in ratios)

    def test_schwinger_r0_exact_one(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[source]\ng = 0.1\nh = \n[run]\nmethod = mc\n")
        rc = main(["schwinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = next((tmp_path / "o").glob("schwinger_*.csv")).read_text().strip().splitlines()
        record = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(record["value"]) == 1.0

    def test_schwinger_quadrature_default(self, tmp_path):
        rc = main(["schwinger", "--config", str(self.config_path(tmp_path)),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = next((tmp_path / "o").glob("schwinger_*.csv")).read_text().strip().splitlines()
        record = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert record["method"] == "quadrature"
        assert float(record["std_error"]) == 0.0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[field]\np = 4\n")
        rc = main(["green", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unreadable_config_path(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["green", "--config", str(tmp_path / "missing.ini"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: ")
        assert not out.exists()

    def test_config_from_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nseed = 7\n")
        main(["integrals", "--config", str(cfg), "--out", str(tmp_path / "a")])
        monkeypatch.setenv("PADICQFT_CONFIG", str(cfg))
        main(["integrals", "--out", str(tmp_path / "b")])
        monkeypatch.delenv("PADICQFT_CONFIG")
        main(["integrals", "--out", str(tmp_path / "c")])
        a, b, c = (next((tmp_path / d).glob("*.csv")).name for d in "abc")
        assert a == b != c

    def test_low_ess_warning(self, tmp_path, capsys):
        # one cell at g = 250: a handful of draws carry the weight (ESS 9.19 of 1000)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[region]\nballs = 0\n[source]\ng = 250\nh = e0;e0\n"
                       "[run]\nmethod = mc\nn_samples = 1000\n")
        rc = main(["schwinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "warning: effective sample size below 10; estimates are low quality"

    def test_failure_removes_partial_outputs(self, tmp_path):
        # eta = 9 exceeds the quadrature cap -> schwinger fails after wick
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[lattice]\nl = -1\n")
        out = tmp_path / "o"
        rc = main(["schwinger", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not list(out.glob("schwinger_*.csv"))

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self.config_path(tmp_path)
        rc = main(["integrals", "--config", str(cfg), "--seed", "7", "--out",
                   str(tmp_path / "a")])
        assert rc == 0
        rc = main(["integrals", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 0
        name_a = next((tmp_path / "a").glob("integrals_*.csv")).name
        name_b = next((tmp_path / "b").glob("integrals_*.csv")).name
        assert name_a != name_b  # seed participates in the config hash

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADICQFT_SEED", "99")
        cfg = self.config_path(tmp_path)
        main(["integrals", "--config", str(cfg), "--out", str(tmp_path / "a")])
        monkeypatch.delenv("PADICQFT_SEED")
        main(["integrals", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")])
        assert (
            next((tmp_path / "a").glob("*.csv")).name
            == next((tmp_path / "b").glob("*.csv")).name
        )

    @pytest.mark.parametrize("flags, env, message", [
        ([], {"PADICQFT_TOL": "abc"}, "[run] tol: cannot parse 'abc'"),
        (["--tol", "0"], {}, "[run] tol: tol must be positive"),
        (["--seed", "-1"], {}, "[run] seed: seed must be nonnegative"),
    ])
    def test_bad_override_rejected(self, tmp_path, monkeypatch, capsys, flags, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "o"
        rc = main(["schwinger", "--config", str(self.config_path(tmp_path)),
                   "--out", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["integrals", "schwinger"])
    @pytest.mark.parametrize("source, message", [
        ("g = abc", "[source] g: could not convert string to float: 'abc'"),
        ("h = e7", "[source] h: entry 'e7' indexes past the 3 lattice cells"),
        ("g = -1", "[source] g: coupling g must be nonnegative"),
    ])
    def test_bad_source_rejected(self, tmp_path, capsys, subcommand, source, message):
        # the default config (3 cells) with one [source] line replaced
        key = source.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", source, Path("configs/default.ini").read_text(),
                      flags=re.M)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "o"
        rc = main([subcommand, "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err
        assert message in err
        assert not out.exists()


class TestCellCap:
    """A refinement past the dense cell cap is a config error, found before any cell data."""

    @pytest.mark.parametrize("subcommand", ["integrals", "green", "lattice", "wick",
                                            "schwinger", "verify"])
    @pytest.mark.parametrize("l, cells", [(-9, "59049"), (-40, "36472996377170786403"),
                                          (-10**9, "3 * 3^1000000000")])
    def test_rejected_at_config_time(self, tmp_path, capsys, monkeypatch, subcommand, l, cells):
        built = []
        monkeypatch.setattr(padicqft.cli, "_parse_cell_values", lambda *a: built.append(a))
        path = tmp_path / "cfg.ini"
        path.write_text(f"[lattice]\nl = {l}\n")
        out = tmp_path / "o"
        rc = main([subcommand, "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: invalid configuration:\n"
                       f"  [lattice] l: refinement would create {cells} cells (> 4096)\n")
        assert not built and not out.exists()

    def test_largest_refinements_either_side(self):
        assert parse_config("[lattice]\nl = -6\n").lattice().eta == 2187
        with pytest.raises(ConfigError, match=r"create 4374 cells \(> 4096\)"):
            parse_config("[region]\nballs = 0,1\n[lattice]\nl = -7\n")


class TestSchwingerMonteCarlo:
    """`schwinger` under `method = mc`: one draw gives both rows and the `--trace` rows."""

    MC = MINIMAL + "\n[run]\nmethod = mc\nn_samples = {n}\n"

    def run(self, tmp_path, text, *flags, out="o"):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        rc = main(["schwinger", "--config", str(path), "--out", str(tmp_path / out), *flags])
        return rc, tmp_path / out

    @staticmethod
    def rows(path):
        lines = path.read_text().strip().splitlines()
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    @pytest.mark.parametrize("n", [1500, 20_000])
    def test_trace_is_the_head_of_the_draw(self, tmp_path, n):
        text = self.MC.format(n=n)
        rc, out = self.run(tmp_path, text, "--trace")
        assert rc == 0
        trace = next(out.glob("trace_*.csv")).read_text().strip().splitlines()
        assert trace[0] == "index,t0,t1,t2"
        got = np.array([[float(x) for x in line.split(",")] for line in trace[1:]])
        cfg = parse_config(text)
        lattice, params = cfg.lattice(), cfg.params()
        m = covariance_matrix(precision_matrix(lattice, params))
        var = free_cell_variance(params, lattice.cell_level)
        t = _mc_draw(m, cfg.polynomial(), cfg.source(lattice.eta), var, cfg.seed, n)[0]
        rows = min(n, 10_000)
        assert len(got) == rows
        assert np.array_equal(got[:, 0], np.arange(rows))
        assert np.array_equal(got[:, 1:], t[:rows])  # bit for bit, through %.17g

    def test_rerun_is_byte_identical(self, tmp_path):
        text = self.MC.format(n=2000)
        outs = [self.run(tmp_path, text, "--trace", out=name) for name in ("a", "b")]
        assert [rc for rc, _ in outs] == [0, 0]
        files = [sorted(out.iterdir()) for _, out in outs]
        assert [f.name for f in files[0]] == [f.name for f in files[1]]
        assert len(files[0]) == 2
        for a, b in zip(*files):
            assert a.read_bytes() == b.read_bytes()

    def test_partition_row_shares_the_draw(self, tmp_path):
        rc, out = self.run(tmp_path, self.MC.format(n=5000))
        assert rc == 0
        schwinger, partition = self.rows(next(out.glob("schwinger_*.csv")))
        assert schwinger["statistic"] == "schwinger" and partition["statistic"] == "partition"
        assert schwinger["ess"] == partition["ess"]
        assert float(partition["value"]) > 0

    def test_no_trace_under_quadrature(self, tmp_path):
        rc, out = self.run(tmp_path, MINIMAL, "--trace")
        assert rc == 0
        assert [f.name for f in out.iterdir()] == [next(out.glob("schwinger_*.csv")).name]

    def test_overflowing_partition_fails(self, tmp_path, capsys):
        # one cell at g = 400: Z = exp(989) is out of float range
        text = MINIMAL + "\n[region]\nballs = 0\n[source]\ng = 400\nh = e0;e0\n" \
            "[run]\nmethod = mc\n"
        rc, out = self.run(tmp_path, text)
        assert rc == 2
        assert "error: OverflowError: log Z = " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestVerifySubcommand:
    def test_default_config_verify_passes(self, tmp_path):
        rc = main(["verify", "--config", str(Path("configs/default.ini")),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads(next((tmp_path / "o").glob("verify_*.json")).read_text())
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 12
        for check in report["checks"]:
            assert set(check) >= {"check", "pass", "worst_margin"}
            assert check["pass"] is True

    def test_verify_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["verify", "--config", str(Path("configs/default.ini")),
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        a = next((tmp_path / "a").glob("verify_*.json"))
        b = next((tmp_path / "b").glob("verify_*.json"))
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()

    def test_nan_margin_fails_and_keeps_strict_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(padicqft.model, "resolvent_ball_bound_constant", lambda p: math.nan)
        rc = main(["verify", "--config", str(Path("configs/default.ini")),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "FAIL resolvent_ball_bound (worst_margin=nan)" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = next((tmp_path / "o").glob("verify_*.json")).read_text()
        report = json.loads(text, parse_constant=reject)
        assert report["all_pass"] is False
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [(c["check"], c["worst_margin"]) for c in failed] == [("resolvent_ball_bound", "nan")]

    def test_lattice_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL)
        for sub in ("a", "b"):
            main(["lattice", "--config", str(cfg), "--out", str(tmp_path / sub)])
        a = next((tmp_path / "a").glob("lattice_*_M.csv"))
        b = next((tmp_path / "b").glob("lattice_*_M.csv"))
        assert a.read_bytes() == b.read_bytes()


class TestCsvEmitter:
    def test_header_and_shape(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[region]\nballs = 0,1\n")
        assert main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        path = next((tmp_path / "o").glob("lattice_*_N.csv"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# name=precision;lattice=amb=1;k=0;balls=0,1;l=0;eta=2"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(22.0 / 13.0, rel=1e-15)

    def test_infinite_values(self):
        assert [_fmt(float("inf")), _fmt(float("-inf")), _fmt(np.float64(-np.inf))] == [
            "inf", "-inf", "-inf"]


DEFAULT = SRC.parent / "configs" / "default.ini"
DEFAULT_HASH = "5494ef9dc9"
MC_TEXT = DEFAULT.read_text().replace("method = quadrature", "method = mc")
MC_HASH = "2f9d5e250d"


class TestStdout:
    """Each file written prints one `wrote <path>` line, in write order."""

    @pytest.mark.parametrize("subcommand, names", [
        ("integrals", ["integrals_{h}.csv"]),
        ("green", ["green_{h}.csv"]),
        ("lattice", ["lattice_{h}_N.csv", "lattice_{h}_M.csv"]),
        ("wick", ["wick_coeffs_{h}.csv", "wick_decay_k2_{h}.csv", "wick_decay_k3_{h}.csv",
                  "wick_decay_k4_{h}.csv"]),
        ("schwinger", ["schwinger_{h}.csv"]),
    ])
    def test_default_config(self, tmp_path, capsys, subcommand, names):
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(DEFAULT), "--out", str(out)]) == 0
        paths = [out / name.format(h=DEFAULT_HASH) for name in names]
        assert capsys.readouterr().out == "".join(f"wrote {p}\n" for p in paths)
        assert sorted(out.iterdir()) == sorted(paths)

    def test_schwinger_mc_trace(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(MC_TEXT)
        assert config_hash(parse_config(MC_TEXT)) == MC_HASH
        out = tmp_path / "o"
        assert main(["schwinger", "--config", str(path), "--out", str(out), "--trace"]) == 0
        paths = [out / f"schwinger_{MC_HASH}.csv", out / f"trace_{MC_HASH}.csv"]
        assert capsys.readouterr().out == "".join(f"wrote {p}\n" for p in paths)
        assert sorted(out.iterdir()) == sorted(paths)

    def test_verify_checks_then_wrote(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["verify", "--config", str(DEFAULT), "--out", str(out)]) == 0
        path = out / f"verify_{DEFAULT_HASH}.json"
        report = json.loads(path.read_text())
        assert report["config_hash"] == DEFAULT_HASH
        lines = [f"PASS {c['check']} (worst_margin={c['worst_margin']:.6g})"
                 for c in report["checks"]]
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines + [f"wrote {path}"])
        assert list(out.iterdir()) == [path]


def _cyclic_garbage(call) -> int:
    """Objects left in reference cycles by one call, counted with the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestReferenceCycles:
    @pytest.mark.parametrize("subcommand", ["integrals", "green", "lattice", "wick", "schwinger"])
    def test_main_leaves_no_more_than_the_config_parser(self, tmp_path, capsys, subcommand):
        # what is left is the per-call configparser's; the CLI parser is built once
        text = DEFAULT.read_text()
        args = [subcommand, "--config", str(DEFAULT), "--out", str(tmp_path / "o")]
        assert main(args) == 0  # warm: first-call imports and caches
        parser_only = _cyclic_garbage(
            lambda: configparser.ConfigParser(interpolation=None).read_string(text))
        assert _cyclic_garbage(lambda: main(args)) <= parser_only


# runs every subcommand in one interpreter, then prints the scipy modules it holds
# and the number of OpenBLAS libraries it maps
EVERY_SUBCOMMAND = """
import sys
from pathlib import Path
import padicqft.cli
config, out = Path(sys.argv[1]), Path(sys.argv[2])
text, mc = config.read_text(), out / "mc.ini"
assert "method = quadrature" in text
mc.write_text(text.replace("method = quadrature", "method = mc"))
for sub in ("integrals", "green", "lattice", "wick", "schwinger", "verify"):
    assert padicqft.cli.main([sub, "--config", str(config), "--out", str(out / "a")]) == 0
assert padicqft.cli.main(["schwinger", "--trace", "--config", str(mc), "--out", str(out / "b")]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
maps = Path("/proc/self/maps")
lines = maps.read_text().splitlines() if maps.exists() else []
print(len({line.split()[-1] for line in lines if "openblas" in line.lower()}))
"""


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = run_cli(["green", "--out", str(tmp_path / "o")])
        assert result.returncode == 0
        assert "wrote" in result.stdout

    def test_package_invocation(self, tmp_path):
        result = run_cli(["integrals", "--out", str(tmp_path / "o")], module="padicqft")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("wrote ")
        assert len(list((tmp_path / "o").glob("integrals_5494ef9dc9.csv"))) == 1

    def test_every_subcommand_runs_on_numpy_alone(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", EVERY_SUBCOMMAND, str(SRC.parent / "configs" / "default.ini"),
             str(tmp_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        *lines, modules, blas = result.stdout.strip().splitlines()
        assert sum(line.startswith("wrote ") for line in lines) == 12
        assert modules == "[]"
        assert int(blas) <= 1  # numpy's OpenBLAS, or none where no map is listed
