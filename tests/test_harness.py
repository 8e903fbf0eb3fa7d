import json

import pytest

from qsdsim import (
    Distribution,
    ExperimentConfig,
    RngStream,
    ReportBudget,
    cross_method_report,
    emit_config,
    evolve_conditioned,
    minimal_qsd_reference,
    parse_config,
    parse_distribution,
    rate_fit,
    resolve_model,
    run_config,
    tv_distance,
)
from qsdsim.cli import build_parser, main as cli_main
from qsdsim.errors import ConfigInvalid, DegenerateInput
from qsdsim import harness
from qsdsim.harness import write_csv
from qsdsim.returnproc import coupled_tagged_run


class TestRateFit:
    def test_exact_power_law(self):
        fit = rate_fit([(100, 0.1), (400, 0.05)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_exponent_recovery(self):
        pts = [(n, 3.7 * n**-0.77) for n in (10, 40, 90, 500)]
        fit = rate_fit(pts)
        assert fit.slope == pytest.approx(-0.77, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_duplicate_n_rejected(self):
        with pytest.raises(DegenerateInput):
            rate_fit([(100, 0.1), (100, 0.2)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(DegenerateInput):
            rate_fit([(100, 0.0), (200, 0.1)])


class TestConfig:
    def test_parse_emit_round_trip(self):
        text = (
            "qsdconfig v1\n"
            "method = fv\n"
            "model = two-state\n"
            "seed = 42\n"
            "replicas = 3\n"
            "[fv]\n"
            "horizon = 1.0\n"
            "particles = 100\n"
        )
        cfg = parse_config(text)
        assert cfg.method == "fv"
        assert cfg.seed == 42
        assert cfg.params["particles"] == "100"
        again = parse_config(emit_config(cfg))
        assert again == cfg

    def test_missing_header(self):
        with pytest.raises(ConfigInvalid):
            parse_config("method = fv\nmodel = two-state\nseed = 1\n")

    def test_field_level_messages(self):
        with pytest.raises(ConfigInvalid) as err:
            parse_config("qsdconfig v1\nmethod = warp\nmodel = nope:1\n")
        joined = " | ".join(err.value.problems)
        assert "method" in joined
        assert "model" in joined
        assert "seed" in joined

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            parse_config("qsdconfig v1\nmethod = oracle\nmodel = point\n")

    def test_comments_ignored(self):
        cfg = parse_config(
            "qsdconfig v1\n# full run\nmethod = oracle\nmodel = point\nseed = 1\n"
        )
        assert cfg.method == "oracle"


class TestParseDistribution:
    def test_delta(self):
        assert parse_distribution("delta:3").support == (3,)

    def test_uniform(self):
        d = parse_distribution("uniform:2-5")
        assert d.support == (2, 3, 4, 5)

    def test_pairs(self):
        d = parse_distribution("1:0.25,2:0.75")
        assert d.mass(2) == 0.75


class TestRunConfig:
    def test_oracle_output(self, tmp_path):
        cfg = ExperimentConfig(method="oracle", model="two-state", seed=1)
        record = run_config(cfg, tmp_path)
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["nu"]["1"] == pytest.approx(0.3819660112499733, abs=1e-9)
        assert payload["theta"] == pytest.approx(0.3819660112501051, abs=1e-9)
        assert payload["K"] == 2
        assert (tmp_path / "summary.json").exists()

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig(
            method="fv",
            model="two-state",
            seed=9,
            replicas=3,
            params={"particles": "50", "horizon": "1.0", "init": "delta:2"},
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_config(cfg, a)
        run_config(cfg, b)
        assert (a / "fv.csv").read_bytes() == (b / "fv.csv").read_bytes()
        assert (a / "fv_summary.json").read_bytes() == (b / "fv_summary.json").read_bytes()

    def test_scan_emits_fit_and_plot_script(self, tmp_path):
        cfg = ExperimentConfig(
            method="scan",
            model="two-state",
            seed=3,
            replicas=40,
            params={"particles": "25,100", "horizon": "1.0", "init": "delta:2", "state": "1"},
        )
        run_config(cfg, tmp_path)
        assert (tmp_path / "scan.csv").exists()
        fit = json.loads((tmp_path / "scan_fit.json").read_text())
        assert -1.5 < fit["slope"] < 0.0
        script = (tmp_path / "scan.gp").read_text()
        assert "plot" in script and "scan.csv" in script

    def test_conditioned_csv(self, tmp_path):
        cfg = ExperimentConfig(
            method="conditioned",
            model="two-state",
            seed=0,
            params={"init": "delta:2", "horizon": "2.0"},
        )
        summary = run_config(cfg, tmp_path).summary
        lines = (tmp_path / "conditioned.csv").read_text().splitlines()
        assert lines[0] == "t,state,mass"
        t_final, state, mass = lines[-1].split(",")
        assert float(t_final) == 2.0
        assert state in ("1", "2")
        # 40 steps of the default 0.1/max rate = 0.05, recorded on 50 grid
        # intervals (the start, a point mass, has one row)
        assert len(lines) == 1 + 1 + 50 * 2
        assert summary["steps"] == 40
        assert 0.0 < summary["tail_bound"] <= 1e-12

    def test_conditioned_csv_is_write_csv_bytes(self, tmp_path):
        # the conditioned runner formats its own lines; they are write_csv's, byte for byte
        params = {"init": "delta:1", "horizon": "1.5", "grid": "0.07"}
        run_config(ExperimentConfig("conditioned", "bd:1,2,30", 0, params=params), tmp_path)
        path = evolve_conditioned(
            resolve_model("bd:1,2,30"), Distribution.delta(1), 1.5, None, 30, grid_dt=0.07
        )
        rows = [
            (t, x, m)
            for t, masses in zip(path.times.tolist(), path.masses.tolist())
            for x, m in zip(path.states, masses)
            if m > 0
        ]
        write_csv(tmp_path / "reference.csv", ["t", "state", "mass"], rows)
        written = (tmp_path / "conditioned.csv").read_bytes()
        assert written.count(b"\n") > 22 * 20  # every grid time, most states
        assert written == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("grid,times", [("5", [1.0]), ("0.7", [0.7, 1.0]), ("0.6", [0.6, 1.0])])
    def test_fixed_time_fv_grid_ends_at_the_horizon(self, grid, times, tmp_path):
        # the terminal sample, which the TV to the conditioned law reads, is at the horizon
        argv = ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
                "--init", "delta:2", "--grid", grid, "--seed", "1", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        rows = (tmp_path / "fv.csv").read_text().splitlines()[1:]
        assert sorted({float(row.split(",")[1]) for row in rows}) == times
        assert float(rows[-1].split(",")[1]) == 1.0

    def test_report_csv_and_runtime_sidecar(self, tmp_path):
        cfg = ExperimentConfig(
            method="report",
            model="point",
            seed=0,
            params={"fv_particles": "10", "fv_horizon": "11.0", "afp_steps": "2000",
                    "branch_horizon": "4.0", "branch_attempts": "5", "branch_cap": "500"},
        )
        record = run_config(cfg, tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "method,tv_to_oracle,status"
        assert len(lines) == 6
        assert set(record.summary["runtimes_s"]) == {
            "oracle", "fv_stationary", "phi_iterate", "afp", "branch",
        }

    def test_phi_csv_headers(self, tmp_path):
        cfg = ExperimentConfig(
            method="phi", model="two-state", seed=0, params={"init": "delta:1"}
        )
        run_config(cfg, tmp_path)
        lines = (tmp_path / "phi.csv").read_text().splitlines()
        assert lines[0] == "iteration,tv"

    def test_couple_csv(self, tmp_path):
        cfg = ExperimentConfig(
            method="couple",
            model="two-state",
            seed=5,
            replicas=10,
            params={"particles": "10", "horizon": "1.0", "init": "delta:2"},
        )
        run_config(cfg, tmp_path)
        lines = (tmp_path / "couple.csv").read_text().splitlines()
        assert lines[0] == "replica,psi_final,divergence_time"
        assert len(lines) == 11

    def test_couple_shared_path_matches_per_replica_paths(self, tmp_path):
        # the harness builds one conditioned path per op; each replica
        # building its own must give the same bytes
        cfg = ExperimentConfig(
            method="couple",
            model="bd:1,2,8",
            seed=12,
            replicas=4,
            params={"particles": "6", "horizon": "1.5", "init": "delta:1"},
        )
        run_config(cfg, tmp_path / "run")
        model = resolve_model("bd:1,2,8")
        rows = []
        for r in range(cfg.replicas):
            c = coupled_tagged_run(model, 6, Distribution.delta(1), 1.5, RngStream(12).child(r)).coupling
            rows.append((r, c.psi(1.5), c.divergence_time))
        write_csv(tmp_path / "direct.csv", ["replica", "psi_final", "divergence_time"], rows)
        assert (tmp_path / "run/couple.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_unknown_method(self, tmp_path):
        cfg = ExperimentConfig(method="warp", model="point", seed=0)
        with pytest.raises(ConfigInvalid):
            run_config(cfg, tmp_path)


class TestCrossMethodReport:
    def test_point_model_all_exact(self, t1):
        budget = ReportBudget(
            fv_particles=20,
            fv_burnin=1.0,
            fv_horizon=11.0,
            afp_steps=5_000,
            branch_horizon=5.0,
            branch_cap=2_000,
            branch_attempts=10,
        )
        rows = cross_method_report(t1, budget, seed=2)
        assert {r["method"] for r in rows} == {
            "oracle",
            "fv_stationary",
            "phi_iterate",
            "afp",
            "branch",
        }
        for r in rows:
            assert r["status"] == "ok"
            assert r["tv_to_oracle"] == pytest.approx(0.0, abs=1e-12)

    def test_t2_within_budget_tolerances(self, t2):
        budget = ReportBudget(
            fv_particles=200,
            fv_burnin=10.0,
            fv_horizon=110.0,
            afp_steps=100_000,
            branch_horizon=8.0,
            branch_cap=20_000,
            branch_attempts=15,
        )
        rows = cross_method_report(t2, budget, seed=4)
        for r in rows:
            assert r["status"] == "ok"
            assert r["tv_to_oracle"] <= 0.05


class TestCli:
    def test_oracle_subcommand(self, tmp_path, capsys):
        rc = cli_main(["oracle", "--model", "two-state", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "oracle.json").exists()

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "qsdconfig v1\nmethod = oracle\nmodel = point\nseed = 1\n"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    def test_bad_config_exits_2(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("qsdconfig v1\nmethod = oracle\n")
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_method_error_exits_3(self, tmp_path):
        # disconnected model: the oracle raises NotIrreducible -> exit 3
        model_file = tmp_path / "m.qsd"
        model_file.write_text("qsdmodel v1\n1 0 1.0\n2 0 1.0\n")
        rc = cli_main(
            ["oracle", "--model", f"file:{model_file}", "--out-dir", str(tmp_path)]
        )
        assert rc == 3

    def test_oracle_on_path_that_never_absorbs_exits_3(self, tmp_path):
        model_file = tmp_path / "m.qsd"
        model_file.write_text("qsdmodel v1\n1 2 1.0\n2 1 1.0\n")
        rc = cli_main(
            ["oracle", "--model", f"file:{model_file}", "--out-dir", str(tmp_path)]
        )
        assert rc == 3

    def test_uncomputable_fv_reference_fails_before_simulating(self, tmp_path, monkeypatch):
        # bd:2,1 drifts away from absorption, so it has no QSD and declares none
        def fv_stationary(*args, **kwargs):
            raise AssertionError("stationary FV ran before its reference was known")

        monkeypatch.setattr(harness, "fv_stationary", fv_stationary)
        argv = ["fv", "--model", "bd:2,1", "--particles", "10", "--burnin", "1",
                "--horizon", "3", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 3
        assert not (tmp_path / "fv.csv").exists()

    def test_stationary_fv_on_the_drifted_walk_is_measured_against_nu_star(self, tmp_path):
        argv = ["fv", "--model", "bd:1,2", "--particles", "50", "--horizon", "20",
                "--burnin", "5", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        rows = [ln.split(",") for ln in (tmp_path / "fv.csv").read_text().splitlines()[1:]]
        estimate = Distribution({int(x): float(m) for _, _, x, m in rows})
        exact = minimal_qsd_reference(resolve_model("bd:1,2")).nu
        summary = json.loads((tmp_path / "fv_summary.json").read_text())
        assert summary["mean_tv_to_reference"] == tv_distance(estimate, exact)

    @pytest.mark.parametrize("model, problem", [
        ("file:nan.qsd", "model: line 3: rate nan"),
        ("file:huge.qsd", "model: line 4: the total rate out of state 1 overflows"),
        ("bd:1e308,1e308,5", "model: birth-death rates must be nonnegative with a finite sum"),
    ])
    @pytest.mark.parametrize("method, args", [
        ("conditioned", "init = delta:1\nhorizon = 1\n"),
        ("fv", "particles = 5\nhorizon = 1\ninit = delta:1\n"),
        ("phi", "init = delta:1\n"),
        ("oracle", ""),
        ("branch", "horizon = 1\n"),
    ])
    def test_rate_that_is_not_finite_exits_2_before_any_work(
            self, model, problem, method, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.qsd").write_text("qsdmodel v1\n1 0 1\n1 2 nan\n2 1 1\n")
        (tmp_path / "huge.qsd").write_text(
            "qsdmodel v1\n1 0 1\n1 2 1e308\n1 3 1e308\n2 1 1\n3 1 1\n")
        (tmp_path / "exp.cfg").write_text(
            f"qsdconfig v1\nmethod = {method}\nmodel = {model}\nseed = 1\n[{method}]\n{args}")
        argv = [method, "--model", model]
        for line in args.splitlines():
            key, value = line.split(" = ")
            argv += [f"--{key}", value]
        for front in (argv, ["--config", "exp.cfg"]):
            assert cli_main(front + ["--out-dir", "out"]) == 2
            assert f"invalid config: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_initial_law_whose_sum_overflows_exits_2(self, tmp_path, capsys):
        argv = ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
                "--init", "1:1e308,2:1e308", "--out-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        assert "init: the weights' sum overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, problem", [
        (["phi", "--model", "bd:1,2,100000", "--init", "delta:1", "--iters", "1000000",
          "--tol", "1e-300"], "iters: iters x 100000 window states = 1e+11, above 1e+08"),
        (["phi", "--model", "two-state", "--init", "delta:1", "--iters", "1000001"],
         "iters: must be at least 1 and at most 1000000"),
    ])
    def test_phi_past_its_work_bound_exits_2(self, argv, problem, tmp_path, capsys):
        assert cli_main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, problem", [
        ("phi_iters = 1000000000000", "phi_iters: must be at least 1 and at most 1000000"),
        ("phi_iters = 1000000", "phi_iters: phi_iters x 200 window states = 2e+08"),
    ])
    def test_report_phi_past_its_work_bound_exits_2(self, line, problem, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("qsdconfig v1\nmethod = report\nmodel = bd:1,2,200\nseed = 1\n"
                           f"[report]\n{line}\n")
        assert cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["couple", "--model", "two-state", "--particles", "5", "--horizon", "0.5",
             "--replicas", "0"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "0.5",
             "--replicas", "-1"],
            ["scan", "--model", "two-state", "--particles", "10,20", "--horizon", "0.5",
             "--init", "delta:2", "--replicas", "1"],
            ["couple", "--model", "bd:1,2", "--particles", "5", "--horizon", "0.5"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1"],
            ["fv", "--model", "two-state", "--particles", "1", "--horizon", "1",
             "--init", "delta:1"],
            ["couple", "--model", "two-state", "--particles", "1", "--horizon", "1"],
            ["scan", "--model", "two-state", "--particles", "1,10", "--horizon", "1",
             "--init", "delta:2", "--replicas", "2"],
            ["afp", "--model", "two-state", "--steps", "0", "--start", "1"],
            ["couple", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--init", "delta:7"],
            ["conditioned", "--model", "two-state", "--horizon", "1", "--init", "delta:7"],
            ["phi", "--model", "two-state", "--init", "delta:7"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--init", "delta:7"],
            ["scan", "--model", "two-state", "--particles", "5,10", "--horizon", "1",
             "--init", "delta:7", "--replicas", "2"],
            ["conditioned", "--model", "bd:1,2", "--trunc", "10", "--horizon", "1",
             "--init", "delta:20"],
            ["phi", "--model", "two-state", "--init", "delta:"],
            ["phi", "--model", "bd:1,2", "--init", "delta:1"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "7"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--burnin", "1"],
            ["branch", "--model", "bd:1,2", "--horizon", "1"],
            ["conditioned", "--model", "two-state", "--horizon", "-1", "--init", "delta:1"],
            ["couple", "--model", "two-state", "--particles", "5", "--horizon", "0"],
            ["oracle", "--model", "two-state", "--trunc", "0"],
            ["conditioned", "--model", "two-state", "--horizon", "1", "--init", "delta:1",
             "--dt", "0"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--init", "delta:1", "--grid", "0"],
            ["branch", "--model", "two-state", "--horizon", "1", "--cap", "0"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "1:0.5,2:0.5,1:0.1", "--seed", "1"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "1:-0.5,2:1", "--seed", "1"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "1:nan,2:1", "--seed", "1"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "nan",
             "--init", "delta:2"],
            ["couple", "--model", "two-state", "--particles", "5", "--horizon", "inf"],
            ["conditioned", "--model", "two-state", "--horizon", "1", "--init", "delta:1",
             "--dt", "nan"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "delta:2", "--grid", "inf"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "2",
             "--burnin", "nan"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "1",
             "--uniformization-rate", "nan"],
            ["branch", "--model", "two-state", "--alpha", "nan", "--horizon", "1"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "delta:2", "--burnin", "-1"],
            ["afp", "--model", "bd:1,2,30", "--steps", "100", "--start", "1",
             "--uniformization-rate", "-1"],
            ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "1",
             "--dt", "0.5"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "1", "--checkpoints", "0"],
            ["phi", "--model", "two-state", "--init", "delta:1", "--iters", "0"],
            ["phi", "--model", "two-state", "--init", "delta:1", "--iters", "-3"],
            ["phi", "--model", "two-state", "--init", "delta:1", "--tol", "nan"],
            ["phi", "--model", "two-state", "--init", "delta:1", "--tol", "-1"],
            ["oracle", "--model", "two-state", "--tol", "nan"],
            ["oracle", "--model", "two-state", "--tol", "-1"],
            ["oracle", "--model", "bd:1,2,40", "--tol", "0"],
            ["report", "--model", "gw:1,2"],
            ["report", "--model", "bd:1,2"],
            ["branch", "--model", "two-state", "--horizon", "5", "--cap", "1"],
            ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
             "--init", "delta:2", "--seed", "-1"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "1", "--seed", "-1"],
            ["branch", "--model", "two-state", "--horizon", "1", "--seed", "-1"],
            ["couple", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--seed", "-1"],
            ["scan", "--model", "two-state", "--particles", "5,10", "--horizon", "1",
             "--init", "delta:2", "--replicas", "2", "--seed", "-1"],
            ["scan", "--model", "two-state", "--particles", "5,10", "--horizon", "1",
             "--init", "delta:2", "--replicas", "2", "--state", "0"],
            ["scan", "--model", "bd:1,2", "--trunc", "5", "--particles", "5,10",
             "--horizon", "1", "--init", "delta:1", "--replicas", "2", "--state", "6"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--init", "delta:2", "--grid", "1e-300"],
            ["fv", "--model", "two-state", "--particles", "5", "--horizon", "1",
             "--burnin", "0.5", "--grid", "1e-300"],
            ["oracle", "--model", "bd:1,2,0"],
            ["couple", "--model", "two-state", "--particles", "3", "--horizon", "1e9",
             "--init", "delta:2"],
            ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "1",
             "--grid", "1e-9"],
            ["scan", "--model", "two-state", "--particles", "10", "--horizon", "0.5",
             "--init", "delta:2", "--replicas", "3"],
            ["scan", "--model", "two-state", "--particles", "10,10", "--horizon", "0.5",
             "--init", "delta:2", "--replicas", "3"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "1",
             "--uniformization-rate", "0.5"],
        ],
        ids=[
            "couple-zero-replicas", "fv-negative-replicas", "scan-one-replica", "couple-infinite",
            "fv-fixed-time-no-init", "fv-one-particle", "couple-one-particle",
            "scan-one-particle", "afp-zero-steps", "couple-init-outside",
            "conditioned-init-outside", "phi-init-outside", "fv-init-outside",
            "scan-init-outside", "conditioned-init-outside-trunc", "phi-init-unreadable",
            "phi-infinite", "afp-start-outside", "fv-horizon-not-past-burnin",
            "branch-infinite", "conditioned-negative-horizon", "couple-zero-horizon",
            "oracle-empty-window", "conditioned-zero-step", "fv-zero-grid", "branch-zero-cap",
            "fv-init-repeated-state", "fv-init-negative-mass", "fv-init-nan-mass",
            "fv-nan-horizon", "couple-infinite-horizon", "conditioned-nan-step",
            "fv-infinite-grid", "fv-nan-burnin", "afp-nan-uniformization-rate",
            "branch-nan-alpha", "fv-negative-burnin", "afp-negative-uniformization-rate",
            "conditioned-step-above-limit", "afp-zero-checkpoints", "phi-zero-iters",
            "phi-negative-iters", "phi-nan-tol", "phi-negative-tol", "oracle-nan-tol",
            "oracle-negative-tol", "oracle-zero-tol", "report-infinite-gw", "report-infinite-bd",
            "branch-cap-one", "fv-negative-seed", "afp-negative-seed", "branch-negative-seed",
            "couple-negative-seed", "scan-negative-seed", "scan-state-zero",
            "scan-state-outside-trunc", "fv-grid-too-fine", "fv-stationary-grid-too-fine",
            "oracle-empty-model-window", "couple-path-too-long", "conditioned-grid-too-fine",
            "scan-one-n", "scan-repeated-n", "afp-rate-below-window",
        ],
    )
    def test_unworkable_run_exits_2(self, argv, tmp_path, capsys):
        assert cli_main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("rate, code", [(2.5, 0), (2.0, 0), (1.9, 2)])
    def test_afp_rate_is_checked_on_the_restricted_window(self, rate, code, tmp_path):
        # bd:1,2 restricted to {1} keeps only absorption (rate 2): the dropped
        # birth jump is out of uniformize's total, so the full chain's 3 is no bound
        argv = ["afp", "--model", "bd:1,2", "--trunc", "1", "--steps", "10", "--start", "1",
                "--uniformization-rate", str(rate), "--out-dir", str(tmp_path)]
        assert cli_main(argv) == code
        assert (tmp_path / "afp.csv").exists() == (code == 0)

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["fv", "--model", "two-state", "--particles", "3", "--horizon", "1e9",
              "--burnin", "1", "--grid", "1e6"], "particles x horizon x replicas = 3e+09"),
            (["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
              "--init", "delta:2", "--replicas", "100000000000"], "replicas: must be"),
            (["scan", "--model", "two-state", "--particles", "5000,6000", "--horizon", "1",
              "--init", "delta:2", "--replicas", "1000"],
             "particles x horizon x replicas = 1.1e+07"),
            (["oracle", "--model", "bd:1,2,100000000000"],
             "K = 100000000000 is above the window bound 100000"),
            (["branch", "--model", "bd:1,2,30000", "--horizon", "1"], "over its 30000 types"),
            (["branch", "--model", "two-state", "--horizon", "1e6", "--cap", "100000000000"],
             "cap x horizon x replicas = 1e+17"),
            (["fv", "--model", "two-state", "--particles", "2", "--horizon", "5",
              "--init", "delta:2", "--grid", "5e-6", "--replicas", "1000000"],
             "horizon / grid x replicas = 1e+12 sample times"),
        ],
        ids=["fv-stationary-particle-time", "fv-replicas", "scan-particle-time", "oracle-bd-window",
             "branch-types", "branch-events", "fv-samples-of-all-replicas"],
    )
    def test_runs_past_a_cost_bound_exit_2(self, argv, problem, tmp_path, capsys):
        # each is refused before any state is listed or any work is done
        assert cli_main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", [
        "fv_particles = 100000\nfv_horizon = 110\n",
        "branch_cap = 10000000\nbranch_horizon = 12\n",
    ])
    def test_report_past_a_cost_bound_exits_2(self, section, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("qsdconfig v1\nmethod = report\nmodel = two-state\nseed = 1\n"
                           "[report]\n" + section)
        assert cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bd_window_above_the_bound_gives_one_message(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("qsdconfig v1\nmethod = oracle\nmodel = bd:1,2,100000000000\nseed = 1\n")
        assert cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "a")]) == 2
        from_file = capsys.readouterr().err
        argv = ["oracle", "--model", "bd:1,2,100000000000", "--out-dir", str(tmp_path / "b")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == from_file
        assert "K = 100000000000" in from_file and "100000" in from_file

    def test_empty_model_window_is_named(self, tmp_path, capsys):
        assert cli_main(["oracle", "--model", "bd:1,2,0", "--out-dir", str(tmp_path)]) == 2
        assert "model: the window of bd:1,2,0 holds no live state" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["conditioned", "--horizon", "1", "--init", "delta:1"], 0),
            (["conditioned", "--horizon", "1", "--init", "delta:1", "--dt", "1e-3"], 0),
            (["couple", "--particles", "5", "--horizon", "1"], 0),
            (["scan", "--particles", "5,10", "--horizon", "1", "--init", "delta:1",
              "--replicas", "2"], 3),
        ],
        ids=["conditioned", "conditioned-dt", "couple", "scan"],
    )
    def test_model_whose_largest_rate_is_zero(self, argv, code, tmp_path, capsys):
        # one state that neither moves nor absorbs: the default step is 1e-3
        model_file = tmp_path / "m.qsd"
        model_file.write_text("qsdmodel v1\n1 0 0.0\n")
        argv += ["--model", f"file:{model_file}", "--out-dir", str(tmp_path / "out")]
        assert cli_main(argv) == code
        if code == 3:
            assert "DeadConfig" in capsys.readouterr().err

    def test_config_file_zero_replicas_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "qsdconfig v1\nmethod = couple\nmodel = two-state\nseed = 1\nreplicas = 0\n"
            "[couple]\nparticles = 5\nhorizon = 0.5\n"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "replicas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,model,section,problem",
        [
            ("fv", "two-state", "particles = 10\nhorizon = 1\n", "init"),
            ("afp", "two-state", "steps = 0\nstart = 1\n", "steps"),
            ("phi", "two-state", "init = delta:7\n", "outside"),
            ("couple", "two-state", "particles = 1\nhorizon = 1\n", "particles"),
            ("fv", "two-state",
             "particles = 10\nhorizon = 1\ninit = 1:0.5,2:0.5,1:0.1\n", "more than once"),
            ("fv", "two-state", "particles = 10\nhorizon = 1\ninit = 1:-0.5,2:1\n", "state 1"),
            ("fv", "two-state", "particles = 10\nhorizon = 1\ninit = 1:nan,2:1\n", "state 1"),
            ("conditioned", "two-state", "horizon = inf\ninit = delta:1\n", "horizon"),
            ("conditioned", "two-state", "horizon = 1\ninit = delta:1\ndt = nan\n", "dt"),
            ("fv", "two-state",
             "particles = 10\nhorizon = 1\ninit = delta:2\ngrid = nan\n", "grid"),
            ("branch", "two-state", "horizon = 1\ncap = inf\n", "cap"),
            ("fv", "two-state", "particles = 10\nhorizon = 2\nburnin = nan\n", "burnin"),
            ("afp", "two-state",
             "steps = 10\nstart = 1\nuniformization-rate = nan\n", "uniformization-rate"),
            ("branch", "two-state", "horizon = 1\nalpha = nan\n", "alpha"),
            ("fv", "two-state",
             "particles = 10\nhorizon = 1\ninit = delta:2\nburnin = -1\n", "burnin"),
            ("afp", "two-state",
             "steps = 100\nstart = 1\nuniformization-rate = -1\n", "uniformization-rate"),
            ("conditioned", "two-state", "horizon = 1\ninit = delta:2\ndt = 0.5\n", "dt"),
            ("afp", "two-state", "steps = 10\nstart = 1\ncheckpoints = 0\n", "checkpoints"),
            ("phi", "two-state", "init = delta:1\niters = 0\n", "iters"),
            ("phi", "two-state", "init = delta:1\niters = -3\n", "iters"),
            ("phi", "two-state", "init = delta:1\ntol = nan\n", "tol"),
            ("phi", "two-state", "init = delta:1\ntol = -1\n", "tol"),
            ("oracle", "two-state", "tol = nan\n", "tol"),
            ("oracle", "two-state", "tol = -1\n", "tol"),
            ("report", "gw:1,2", "", "infinite model"),
            ("report", "bd:1,2", "", "infinite model"),
            ("branch", "two-state", "horizon = 5\ncap = 1\n", "cap"),
            ("report", "two-state", "branch_cap = 1\n", "branch_cap"),
            ("fv", "two-state",
             "particles = 5\nhorizon = 1\ninit = delta:2\ngrid = 1e-300\n", "sample times"),
        ],
        ids=["fv-fixed-time-no-init", "afp-zero-steps", "phi-init-outside", "couple-one-particle",
             "fv-init-repeated-state", "fv-init-negative-mass", "fv-init-nan-mass",
             "conditioned-infinite-horizon", "conditioned-nan-step",
             "fv-nan-grid", "branch-infinite-cap", "fv-nan-burnin",
             "afp-nan-uniformization-rate", "branch-nan-alpha", "fv-negative-burnin",
             "afp-negative-uniformization-rate", "conditioned-step-above-limit",
             "afp-zero-checkpoints", "phi-zero-iters", "phi-negative-iters", "phi-nan-tol",
             "phi-negative-tol", "oracle-nan-tol", "oracle-negative-tol", "report-infinite-gw",
             "report-infinite-bd", "branch-cap-one", "report-branch-cap-one",
             "fv-grid-too-fine"],
    )
    def test_config_file_unworkable_run_exits_2(
        self, method, model, section, problem, tmp_path, capsys
    ):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"qsdconfig v1\nmethod = {method}\nmodel = {model}\nseed = 1\n[{method}]\n{section}"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method,section",
        [
            ("fv", "particles = 10\nhorizon = 1\ninit = delta:2\n"),
            ("afp", "steps = 10\nstart = 1\n"),
            ("branch", "horizon = 1\n"),
            ("couple", "particles = 5\nhorizon = 1\n"),
            ("scan", "particles = 5,10\nhorizon = 1\ninit = delta:2\n"),
        ],
    )
    def test_config_file_negative_seed_exits_2(self, method, section, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"qsdconfig v1\nmethod = {method}\nmodel = two-state\nseed = -1\nreplicas = 2\n"
            f"[{method}]\n{section}"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "seed: must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scan_state_outside_names_the_state(self, tmp_path, capsys):
        argv = ["scan", "--model", "two-state", "--particles", "5,10", "--horizon", "1",
                "--init", "delta:2", "--replicas", "2", "--state", "7"]
        assert cli_main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "state: the probed state 7 lies outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["fv_particles = 1", "branch_cap = 2.5", "afp_steps = 0", "phi_iters = 0",
         "branch_attempts = 0", "fv_horizon = nan", "branch_horizon = inf", "fv_burnin = -1",
         "fv_burnin = 110"],
    )
    def test_config_file_report_budget_out_of_range_exits_2(self, line, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"qsdconfig v1\nmethod = report\nmodel = two-state\nseed = 1\n[report]\n{line}\n"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model",
        ["nope:1", "bd:a,b", "bd:1,2,1e3", "file:no-such-model.qsd", "gw:nan,1", "bd:inf,1,5"],
    )
    def test_bad_model_exits_2_alike_from_cli_and_config_file(self, model, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"qsdconfig v1\nmethod = oracle\nmodel = {model}\nseed = 0\n")
        errors = []
        for argv in (["oracle", "--model", model], ["--config", str(cfgfile)]):
            assert cli_main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("qsd: invalid config: model: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "top,section,key",
        [("replica = 4\n", "", "replica"), ("", "burnim = 1\n", "burnim"),
         ("", "seed = 3\n", "seed")],
        ids=["top-level", "method-section", "common-key-in-section"],
    )
    def test_config_file_unknown_key_exits_2(self, top, section, key, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"qsdconfig v1\nmethod = fv\nmodel = two-state\nseed = 1\n{top}"
            f"[fv]\nparticles = 10\nhorizon = 1\n{section}init = delta:2\n"
        )
        rc = cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_keeps_other_methods_sections(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "qsdconfig v1\nmethod = oracle\nmodel = two-state\nseed = 1\n"
            "[phi]\ninit = delta:1\nwarp = 9\n[oracle]\ntol = 1e-9\n"
        )
        assert cli_main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["fv", "--model", "two-state", "--particles", "100000000000", "--horizon", "1",
             "--init", "delta:2"],
            ["afp", "--model", "two-state", "--steps", "100000000000000000000", "--start", "1"],
            ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "1e9"],
            ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "1",
             "--dt", "1e-9"],
            ["fv", "--model", "two-state", "--particles", "3", "--horizon", "1e9",
             "--init", "delta:2", "--grid", "1e6"],
            ["oracle", "--model", "bd:1,2", "--trunc", "100000000000"],
            ["afp", "--model", "two-state", "--steps", "10", "--start", "1",
             "--checkpoints", "1000000000000"],
            ["branch", "--model", "two-state", "--alpha", "1e19", "--horizon", "1"],
            ["branch", "--model", "bd:1,2,5", "--alpha", "2", "--horizon", "1"],
            ["fv", "--model", "gw:1,2", "--particles", "3", "--horizon", "1",
             "--init", "uniform:1-10000000000"],
            ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "1e-322"],
        ],
        ids=["fv-particles", "afp-steps", "conditioned-horizon", "conditioned-dt",
             "fv-reference-horizon", "oracle-trunc", "afp-checkpoints", "branch-alpha-huge",
             "branch-alpha-uncertified", "fv-init-uniform-huge", "conditioned-grid-underflow"],
    )
    def test_run_past_a_bound_exits_2_before_any_work(self, argv, tmp_path, capsys):
        assert cli_main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2

    def test_afp_subcommand(self, tmp_path):
        rc = cli_main(
            [
                "afp",
                "--model",
                "two-state",
                "--steps",
                "20000",
                "--start",
                "1",
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        header = (tmp_path / "afp.csv").read_text().splitlines()[0]
        assert header == "checkpoint,state,mass,tv_to_oracle"
