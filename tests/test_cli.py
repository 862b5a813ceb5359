"""End-to-end command line checks: artifacts, exit codes, determinism.

Commands run in-process through main(argv); one subprocess smoke covers the
module entry point.  Exit code contract: 0 success, 1 failed search or
verification, 2 usage errors and unreadable inputs.
"""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from diraclab import cli
from diraclab.absorbing import parse_absorber, verify_absorber
from diraclab.cli import main
from diraclab.hypercore import Hypergraph, read_khg
from diraclab.lab import parse_table
from diraclab.matchpower import find_perfect_matching, parse_matching, verify_matching
from diraclab.templates import ResilientTemplate, write_template


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k12(tmp_path, capsys):
    path = tmp_path / "k12.khg"
    assert run(capsys, "--out", str(path), "gen", "complete", "--n", "12", "--k", "3")[0] == 0
    return str(path)


class TestGen:
    def test_random_is_seed_deterministic(self, tmp_path, capsys):
        a, b, c = (tmp_path / x for x in ("a.khg", "b.khg", "c.khg"))
        for path, seed in [(a, "5"), (b, "5"), (c, "6")]:
            code, _, _ = run(
                capsys, "--seed", seed, "--out", str(path),
                "gen", "random", "--n", "10", "--k", "3", "--p", "0.5",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_barriers_and_complete(self, tmp_path, capsys):
        out = tmp_path / "g.khg"
        run(capsys, "--out", str(out), "gen", "space", "--n", "9", "--k", "3", "--d", "1")
        G = read_khg(out)
        assert (G.n, G.k) == (9, 3)
        assert find_perfect_matching(G).status == "none"
        run(capsys, "--out", str(out), "gen", "parity", "--n", "12", "--k", "3", "--d", "1")
        assert find_perfect_matching(read_khg(out)).status == "none"

    def test_empty_parity_barrier_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "p.khg"
        code, _, err = run(capsys, "--out", str(out), "gen", "parity", "--n", "0", "--k", "2", "--d", "1")
        assert code == 2
        assert err.startswith("error:") and "need n >= k" in err
        assert not out.exists()

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "--n", "6", "--k", "3")
        assert code == 0
        assert out.splitlines()[0].startswith("khg")

    def test_missing_argument_is_usage_error(self, capsys):
        assert run(capsys, "gen", "random", "--n", "6")[0] == 2

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--p", "1.5")
        assert code == 2
        assert "error" in err


class TestPm:
    def test_writes_default_sidecar(self, k12, capsys):
        code, out, _ = run(capsys, "pm", "--in", k12)
        assert code == 0
        m = parse_matching(Path(k12 + ".matching").read_text())
        ok, _ = verify_matching(read_khg(k12), m, require_perfect=True)
        assert ok

    def test_explicit_out(self, k12, tmp_path, capsys):
        target = tmp_path / "m.txt"
        assert run(capsys, "--out", str(target), "pm", "--in", k12)[0] == 0
        assert target.exists()

    def test_pm_free_graph_exits_one(self, tmp_path, capsys):
        barrier = tmp_path / "b.khg"
        run(capsys, "--out", str(barrier), "gen", "space", "--n", "9", "--k", "3")
        code, _, err = run(capsys, "pm", "--in", str(barrier))
        assert code == 1
        assert "no perfect matching" in err

    def test_missing_file_is_usage_error(self, capsys):
        assert run(capsys, "pm", "--in", "/nonexistent/g.khg")[0] == 2

    def test_negative_vertex_count_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.khg"
        bad.write_text("khg 1 3 -5 0\n", encoding="ascii")
        code, out, err = run(capsys, "pm", "--in", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: line 1: vertex count must be nonnegative, got -5\n"


class TestVerify:
    def test_matching_ok_and_corrupted(self, k12, tmp_path, capsys):
        run(capsys, "pm", "--in", k12)
        good = k12 + ".matching"
        assert run(capsys, "verify", "--matching", good, "--in", k12, "--perfect")[0] == 0
        bad = tmp_path / "bad.matching"
        bad.write_text(open(good).read().replace("0 1 2", "0 1 3"))
        code, _, err = run(capsys, "verify", "--matching", str(bad), "--in", k12)
        assert code == 1
        assert "rejected" in err

    def test_partial_matching_needs_perfect_flag(self, k12, tmp_path, capsys):
        run(capsys, "pm", "--in", k12)
        lines = open(k12 + ".matching").read().strip().splitlines()
        partial = tmp_path / "partial.matching"
        partial.write_text("\n".join(lines[:-1]) + "\n")
        assert run(capsys, "verify", "--matching", str(partial), "--in", k12)[0] == 0
        assert run(capsys, "verify", "--matching", str(partial), "--in", k12, "--perfect")[0] == 1

    def test_matching_without_graph_is_usage_error(self, k12, capsys):
        run(capsys, "pm", "--in", k12)
        assert run(capsys, "verify", "--matching", k12 + ".matching")[0] == 2

    def test_absorber_round_trip(self, k12, tmp_path, capsys):
        record = tmp_path / "a.json"
        code, _, _ = run(
            capsys, "--out", str(record),
            "absorber", "find", "--in", k12, "--roots", "0 1 2",
        )
        assert code == 0
        assert run(capsys, "absorber", "verify", "--in", str(record), "--host", k12)[0] == 0
        garbled = tmp_path / "g.json"
        garbled.write_text(record.read_text().replace("[", "{", 1))
        assert run(capsys, "absorber", "verify", "--in", str(garbled))[0] == 1

    @pytest.mark.parametrize("r", ['"x"', "2.7", "true"])
    def test_malformed_r_is_rejected(self, k12, tmp_path, capsys, r):
        record = tmp_path / "a.json"
        run(capsys, "--out", str(record), "absorber", "find", "--in", k12, "--roots", "0 1 2")
        record.write_text(record.read_text().replace("{", f'{{"r": {r}, ', 1))
        code, _, err = run(capsys, "absorber", "verify", "--in", str(record))
        assert code == 1
        assert err.startswith("rejected: bad absorber record: r must be an integer"), err

    @pytest.mark.parametrize("old, new", [('"roots": [0, 1, 2]', '"roots": [0.9, 1, 2]'),
                                          ('"roots": [0, 1, 2]', '"roots": [true, 1, 2]'),
                                          ("[[0, 1, 2]]", "[[0, 1, 2.0]]")])
    def test_non_integer_ids_are_rejected(self, k12, tmp_path, capsys, old, new):
        record = tmp_path / "a.json"
        run(capsys, "--out", str(record), "absorber", "find", "--in", k12, "--roots", "0 1 2")
        assert old in record.read_text()
        record.write_text(record.read_text().replace(old, new))
        code, _, err = run(capsys, "absorber", "verify", "--in", str(record))
        assert code == 1
        assert err.startswith("rejected: bad absorber record: ") and "must be an integer" in err, err

    @pytest.mark.parametrize("bound", ["0", "-5", "2"])
    def test_sparsity_below_three_is_a_usage_error(self, k12, tmp_path, capsys, bound):
        # a Berge cycle has at least 2 edges, so these bounds would pass
        # every absorber
        record = tmp_path / "a.json"
        run(capsys, "--out", str(record), "absorber", "find", "--in", k12, "--roots", "0 1 2")
        code, _, err = run(capsys, "absorber", "verify", "--in", str(record), f"--sparsity={bound}")
        assert code == 2 and f"--sparsity: must be at least 3, got {bound}" in err

    def test_sparsity_three_rejects_the_trivial_absorber(self, k12, tmp_path, capsys):
        # its one edge is the root tuple, a 2-cycle with the added root edge
        record = tmp_path / "a.json"
        run(capsys, "--out", str(record), "absorber", "find", "--in", k12, "--roots", "0 1 2")
        assert parse_absorber(record.read_text()).order == 0
        code, _, err = run(capsys, "absorber", "verify", "--in", str(record), "--sparsity", "3")
        assert code == 1 and err == "rejected: not 3-sparse\n"

    def test_exactly_one_artifact_flag(self, k12, capsys):
        assert run(capsys, "verify", "--in", k12)[0] == 2

    @pytest.mark.parametrize("flags", [("--sparsity", "3"), ("--mode", "sampled"), ("--samples", "5")])
    def test_matching_check_takes_no_absorber_or_template_flags(self, k12, capsys, flags):
        # verify checks matchings only; absorbers and templates each have
        # their own verify subcommand, so these flags are usage errors here
        run(capsys, "pm", "--in", k12)
        code, _, err = run(capsys, "verify", "--matching", k12 + ".matching", "--in", k12, *flags)
        assert code == 2 and "unrecognized arguments" in err


class TestMdk:
    def test_both_routes_and_witness(self, tmp_path, capsys):
        out = tmp_path / "mdk.csv"
        code, _, _ = run(capsys, "--out", str(out), "mdk", "--n", "4", "--k", "2", "--d", "1")
        assert code == 0
        table = parse_table(out.read_text())
        assert table.columns == ("n", "k", "d", "m", "ratio", "witness_file", "graphs_enumerated", "seconds")
        assert len(table.rows) == 2
        assert all(row[3] == "2" for row in table.rows)
        assert all(row[4] == "2/3" for row in table.rows)
        witness = read_khg(str(out) + ".witness.khg")
        assert find_perfect_matching(witness).status == "none"

    def test_single_route_row(self, capsys):
        code, out, _ = run(capsys, "mdk", "--n", "4", "--k", "2", "--d", "1", "--route", "pruned")
        assert code == 0
        assert len(parse_table(out).rows) == 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "mdk", "--n", "4", "--k", "2", "--d", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["m"] == 2
        assert payload["rows"][0]["ratio"] == "2/3"

    @pytest.mark.parametrize("n", ["-2", "0"])
    def test_fewer_vertices_than_k_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "mdk", "--n", n, "--k", "2", "--d", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: need n >= k, got n={n}, k=2\n"


    @pytest.mark.parametrize(
        "changed,why",
        [({"m_value": 3}, "m values [2, 3]"), ({"extremal_witness": Hypergraph(4, 2, ())}, "witnesses differ")],
        ids=["value", "witness"],
    )
    def test_route_disagreement_fails(self, tmp_path, capsys, monkeypatch, changed, why):
        # the unpruned route is made to return a different value or witness
        real = cli.exact_dirac_threshold

        def skewed(n, k, d, route="pruned"):
            rec = real(n, k, d, route=route)
            return replace(rec, **changed) if route == "unpruned" else rec

        monkeypatch.setattr(cli, "exact_dirac_threshold", skewed)
        out = tmp_path / "mdk.csv"
        code, stdout, err = run(capsys, "--out", str(out), "mdk", "--n", "4", "--k", "2", "--d", "1")
        assert code == 1
        assert stdout == ""
        assert err == f"route disagreement: {why}\n"
        assert not out.exists()
        assert not (tmp_path / "mdk.csv.witness.khg").exists()


class TestTemplateAndAbsorber:
    def test_template_build_verify_cycle(self, tmp_path, capsys):
        base = tmp_path / "t6"
        code, out, _ = run(capsys, "--out", str(base), "template", "build", "--r", "6", "--k", "3")
        assert code == 0
        assert "r=6" in out
        assert run(capsys, "template", "verify", "--in", str(base), "--mode", "exhaustive")[0] == 0

    def test_template_without_feasible_removals_verifies_in_both_modes(self, tmp_path, capsys):
        base = tmp_path / "bare"
        T = ResilientTemplate(k=3, T=Hypergraph(8, 3, ()), Z=(0, 1, 2), provenance={})
        write_template(T, str(base))
        for mode in ("exhaustive", "sampled"):
            code, out, _ = run(capsys, "template", "verify", "--in", str(base), "--mode", mode)
            assert code == 0
            assert out.strip() == f"ok: mode={mode} removals_checked=0"

    def test_template_with_non_integer_z_is_rejected(self, tmp_path, capsys):
        # int() read a first Z id shifted by 0.5 as the id itself: exit 0
        base = tmp_path / "t6"
        run(capsys, "--out", str(base), "template", "build", "--r", "6", "--k", "3")
        sidecar = tmp_path / "t6.json"
        data = json.loads(sidecar.read_text())
        for bad in (data["Z"][0] + 0.5, True):
            sidecar.write_text(json.dumps(dict(data, Z=[bad] + data["Z"][1:])))
            code, _, err = run(capsys, "template", "verify", "--in", str(base))
            assert code == 1
            assert err.startswith("rejected: bad template sidecar") and "must be an integer" in err, err

    def test_template_build_needs_out(self, capsys):
        assert run(capsys, "template", "build", "--r", "6", "--k", "3")[0] == 2

    def test_compact_template_divisibility(self, tmp_path, capsys):
        base = tmp_path / "t"
        good = run(capsys, "--out", str(base), "template", "build", "--r", "6", "--k", "3", "--mode", "compact")
        assert good[0] == 0
        bad = run(capsys, "--out", str(base), "template", "build", "--r", "7", "--k", "3", "--mode", "compact")
        assert bad[0] == 2

    def test_absorber_find_failure_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.khg"
        run(capsys, "--out", str(empty), "gen", "random", "--n", "9", "--k", "3", "--p", "0")
        code, _, err = run(capsys, "absorber", "find", "--in", str(empty), "--roots", "0 1 2")
        assert code == 1
        assert "failed" in err

    def test_absorber_find_negative_order_cap_is_usage_error(self, tmp_path, capsys):
        k7 = tmp_path / "k7.khg"
        run(capsys, "--out", str(k7), "gen", "complete", "--n", "7", "--k", "3")
        code, out, err = run(
            capsys, "absorber", "find", "--in", str(k7), "--roots", "0 1 2", "--order-cap", "-3"
        )
        assert (code, out) == (2, "")
        assert "order cap must be nonnegative, got -3" in err

    def test_negative_samples_are_usage_errors(self, tmp_path, capsys):
        base = tmp_path / "t6"
        assert run(capsys, "--out", str(base), "template", "build", "--r", "6", "--k", "3")[0] == 0
        code, out, err = run(capsys, "template", "verify", "--in", str(base), "--mode", "sampled", "--samples", "-5")
        assert (code, out) == (2, "")
        assert "--samples: must be nonnegative" in err

    def test_absorber_contract_reports_shape(self, capsys):
        code, out, _ = run(capsys, "absorber", "contract", "--K", "4")
        assert code == 0
        assert "girth=" in out and "k_density=" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--K", "4"], "n=15 m=10 girth=4 k_density=3/4"),
            (["--K", "4", "--q", "6"], "n=69 m=46 girth=4 k_density=11/16"),
            (["--K", "5"], "n=39 m=26 girth=6 k_density=25/36"),
        ],
    )
    def test_absorber_contract_default_host_fits_the_pattern(self, capsys, argv, line):
        # the default host holds both interiors for any stock pattern,
        # not only the q=3 ones
        code, out, err = run(capsys, "absorber", "contract", *argv)
        assert (code, out, err) == (0, f"contracted: {line}\n", "")


class TestPipeline:
    def test_success_report_and_sidecar(self, k12, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "--out", str(report),
            "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1",
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["status"] == "success"
        sidecar = str(report) + ".matching"
        m = parse_matching(Path(sidecar).read_text())
        ok, _ = verify_matching(read_khg(k12), m, require_perfect=True)
        assert ok

    def test_reruns_are_byte_identical(self, k12, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "--out", str(path), "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1")
        assert a.read_bytes() == b.read_bytes()

    def test_barrier_failure_exits_one(self, tmp_path, capsys):
        barrier = tmp_path / "b.khg"
        run(capsys, "--out", str(barrier), "gen", "space", "--n", "9", "--k", "3")
        report = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "--out", str(report),
            "pipeline", "run", "--in", str(barrier), "--d", "1", "--gamma", "0.1",
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["status"] == "failure"
        assert not (tmp_path / "rep.json.matching").exists()

    def test_params_file(self, k12, tmp_path, capsys):
        params = tmp_path / "p.cfg"
        params.write_text("rho = 0.5\nQ = 12\n")
        code, out, _ = run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1", "--params", str(params))
        assert code == 0
        assert json.loads(out)["params"]["rho"] == 0.5

    def test_bad_params_key_is_usage_error(self, k12, tmp_path, capsys):
        params = tmp_path / "p.cfg"
        params.write_text("warp = 9\n")
        assert run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1", "--params", str(params))[0] == 2

    @pytest.mark.parametrize(
        "text, why",
        [
            ("finder_Q = abc\n", "finder_Q wants an integer"),
            ("rho = 0.5\nrho = 0.4\n", "duplicate config key 'rho'"),
            ("lam = 0.1\nlambda = 0.2\n", "duplicate config key 'lambda'"),
        ],
        ids=("malformed-value", "duplicate-key", "lam-and-lambda"),
    )
    def test_malformed_params_are_usage_errors(self, k12, tmp_path, capsys, text, why):
        params = tmp_path / "p.cfg"
        params.write_text(text)
        code, out, err = run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1", "--params", str(params))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {why}")

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_usage_error(self, k12, capsys, gamma):
        code, out, err = run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", gamma)
        assert (code, out) == (2, "")
        assert err.startswith("error: need a finite number")

    def test_non_finite_lam_is_usage_error(self, k12, tmp_path, capsys):
        params = tmp_path / "p.cfg"
        params.write_text("lam = inf\n")
        code, out, err = run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1", "--params", str(params))
        assert (code, out) == (2, "")
        assert err.startswith("error: need a finite number")

    def test_zero_block_size_is_usage_error(self, k12, tmp_path, capsys):
        params = tmp_path / "p.cfg"
        params.write_text("Q = 0\n")
        code, out, err = run(capsys, "pipeline", "run", "--in", k12, "--d", "1", "--gamma", "0.1", "--params", str(params))
        assert code == 2
        assert out == ""
        assert err.startswith("error: Q must be at least 1")
        assert "Traceback" not in err


def write_config(path, **fields):
    lines = [f"{key} = {value}" for key, value in fields.items()]
    path.write_text("\n".join(lines) + "\n")


class TestExperimentCommand:
    def test_resilience_csv_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        write_config(cfg, name="res", n=12, k=3, d=2, p=0.8, gamma=0.15, trials=10, master_seed=0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, out, _ = run(capsys, "--out", str(path), "experiment", "resilience", "--config", str(cfg))
            assert code == 0
            assert "pm_frequency" in out
        assert a.read_bytes() == b.read_bytes()
        table = parse_table(a.read_text())
        assert table.name == "res"
        assert len(table.rows) == 11

    def test_configured_out_path(self, tmp_path, capsys):
        target = tmp_path / "via-config.csv"
        cfg = tmp_path / "r.cfg"
        write_config(cfg, name="res", n=9, k=3, d=1, p=0.7, trials=2, out=str(target))
        assert run(capsys, "experiment", "resilience", "--config", str(cfg))[0] == 0
        assert target.exists()

    def test_json_format(self, tmp_path, capsys):
        cfg = tmp_path / "i.cfg"
        write_config(cfg, name="inh", n=10, k=3, d=1, Q=6, host="complete", trials=2)
        code, out, _ = run(capsys, "--format", "json", "experiment", "inheritance", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["frequency"] == 1.0
        assert len(payload["rows"]) == 210

    @pytest.mark.parametrize(
        "argv, config, digest",
        [
            (
                ["experiment", "resilience"],
                dict(name="res", n=12, k=3, d=2, p=0.8, gamma=0.15, trials=6, master_seed=0),
                "8dd4bfbdf648a3271f98b7f1d8bb1ff8813391baa2d9c8783601b3231c123cb5",
            ),
            (
                ["experiment", "inheritance"],
                dict(name="inh", n=10, k=3, d=1, Q=6, host="complete", trials=2),
                "f671ab08c18e9e7ba301aa51df40650a79cf082c3bf593d163a684e32daf4a7d",
            ),
            (
                ["experiment", "load"],
                dict(name="load", n=12, k=3, p=0.5, lam=0.25, trials=5),
                "91880160baa1b8008487461874a95013d92c0af02423273fe90f8220dad336cc",
            ),
            (
                ["mdk", "--n", "4", "--k", "2", "--d", "1"],
                None,
                "9b2fac7d0ac4c5aeddc562c3f0da297f623983c9523cf7d1ecc9fb835eadafeb",
            ),
        ],
    )
    def test_json_tables_keep_their_bytes(self, tmp_path, capsys, monkeypatch, argv, config, digest):
        # sha256 of each table as the two JSON builders, one for mdk and one
        # for experiments, wrote it before they became one; mdk's clock is
        # stopped so its seconds column reads 0.000
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        if config is not None:
            write_config(tmp_path / "x.cfg", **config)
            argv = argv + ["--config", str(tmp_path / "x.cfg")]
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_load_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "l.cfg"
        write_config(cfg, name="load", n=12, k=3, p=0.5, lam=0.25, trials=5)
        code, out, _ = run(capsys, "experiment", "load", "--config", str(cfg))
        assert code == 0
        assert parse_table(out).columns[2] == "vertex"

    def test_one_vertex_load_host_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "l.cfg"
        write_config(cfg, name="x", n=1, k=2, host="complete", lam=0.5, trials=3)
        code, out, err = run(capsys, "experiment", "load", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: needs at least 2 vertices, got n=1\n")

    def test_experiment_kinds_in_usage(self, capsys):
        code, out, err = run(capsys, "experiment", "astrology")
        assert (code, out) == (2, "")
        assert "{resilience,inheritance,load}" in err
        assert "(choose from 'resilience', 'inheritance', 'load')" in err

    def test_non_finite_gamma_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        write_config(cfg, name="res", n=12, k=3, d=2, p=0.8, gamma="inf", trials=2)
        code, out, err = run(capsys, "experiment", "resilience", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: need a finite number")

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, name="x", n=9, k=3, wobble=1)
        assert run(capsys, "experiment", "resilience", "--config", str(cfg))[0] == 2


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "conjure")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_negative_budget_is_usage_error(self, k12, capsys):
        for argv in (["pm", "--in", k12], ["absorber", "find", "--in", k12, "--roots", "0 1 2"]):
            code, out, err = run(capsys, "--budget", "-4", *argv)
            assert (code, out) == (2, "")
            assert "--budget: must be nonnegative" in err
        # budget 0 parses; the search then stops at its first node
        code, _, err = run(capsys, "--budget", "0", "pm", "--in", k12)
        assert code == 1
        assert "error" not in err

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "g.khg"
        proc = subprocess.run(
            [sys.executable, "-m", "diraclab.cli", "--out", str(out), "gen", "complete", "--n", "6", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert read_khg(out).edge_count() == 20

    def test_rechecks_hold_under_optimize_flag(self, tmp_path, capsys):
        # python -O strips asserts; the re-verifications are explicit raises,
        # so exit codes and output match a plain run
        barrier, base, k7 = tmp_path / "s12.khg", tmp_path / "t6", tmp_path / "k7.khg"
        assert run(capsys, "--out", str(barrier), "gen", "space", "--n", "12", "--k", "3")[0] == 0
        assert run(capsys, "--out", str(base), "template", "build", "--r", "6", "--k", "3")[0] == 0
        assert run(capsys, "--out", str(k7), "gen", "complete", "--n", "7", "--k", "3")[0] == 0
        outcomes = []
        for argv in (
            ["pm", "--in", str(barrier)],
            ["template", "verify", "--in", str(base)],
            ["absorber", "find", "--in", str(k7), "--roots", "0 1 2", "--min-order", "3"],
        ):
            plain, optimized = (
                subprocess.run(
                    [sys.executable, *flag, "-m", "diraclab.cli", *argv],
                    capture_output=True,
                    text=True,
                )
                for flag in ([], ["-O"])
            )
            outcome = (plain.returncode, plain.stdout, plain.stderr)
            assert (optimized.returncode, optimized.stdout, optimized.stderr) == outcome
            outcomes.append(outcome)
        (pm_code, _, pm_err), (tv_code, tv_out, _), (ab_code, ab_out, _) = outcomes
        assert pm_code == 1 and "no perfect matching" in pm_err
        assert tv_code == 0 and tv_out.startswith("ok")
        assert ab_code == 0
        absorber = parse_absorber(ab_out)
        assert absorber.order == 3 and verify_absorber(absorber, Hypergraph.complete(7, 3))[0]

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
