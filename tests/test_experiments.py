"""Experiment harness: configs, Monte Carlo discipline, persistence, CLI."""

import argparse
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from iabnet import cli, experiments
from iabnet.channel import RinrConfig, capacity_from_links
from iabnet.experiments import (
    DuplexConfig,
    ExperimentConfig,
    McConfig,
    OutputConfig,
    QosConfig,
    TopologyConfig,
    base_tree,
    hop_sum_rates,
    load_config,
    run_delay_sweep,
    run_min_delay_sweep,
    run_queue_validation,
    run_rate_sweep,
    save_run,
)
from iabnet.experiments import _budget, _drop_links, _packet_bits
from iabnet.topology import DuplexMode, line_network

from conftest import tree_to_json

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# sha256 of every artifact test_config_runs_its_subcommand makes each config
# write at --drops 1: its CSV or JSON files (the .run.json manifest, which
# holds the output directory, is skipped) and, for kmax, which prints its
# report, also its stdout.  Recorded with numpy 2.4.6, scipy 1.17.1 and
# OpenBLAS 0.3.31 (the same with 1 and 2 BLAS threads); another BLAS build may round
# differently and fail this without a fault in iabnet.  A change may
# regenerate these values only if it says why they moved.
CONFIG_DIGESTS = {
    "delay-sweep": {
        "delay_sweep.csv": "cbbd0814a4150cb521bedc0fb84434396bb03a0328813e241af1d74dd990f22a",
    },
    "kmax": {
        "stdout": "269c31b0cae8106b5812edc08850a7b0e15020470bf79b7b64af63e4e261208a",
        "kmax.json": "0da9b87713726e6311c782469fc884d713d211baf22b234cfd57cce54cbf6109",
    },
    "latency-gain": {
        "latency_gain.csv": "a4b7cb2fe6579c90c9cac3d8d2b3a0b7a4dbf850c8e5f4e0ef2b330c65f016e6",
    },
    "min-delay": {
        "min_delay.csv": "e5ccb19d0d858cab3ade1d840323a95581bda6410e91c41c82c593c4f2099ba1",
    },
    "rate-sweep": {
        "rate_sweep.csv": "e041aa2832bd0d5da93471884ca04c1cf06399e3a58d1b177d13900d20908a15",
    },
    "validate-queues": {
        "queue_validation.json":
            "9e04cf4eb9d0b9436cba0eba0085842bbcc89e6c2d26e065f3247d22b84c6759",
    },
}


def small_cfg(**overrides):
    base = dict(
        topology=TopologyConfig(kind="line", K=1, w=1),
        qos=QosConfig(delta_s=2.0e-3, lambda_min_pps=50.0),
        duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-10.0,)),
        mc=McConfig(n_drops=2, seed=123),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_dict_tuples_and_inf(self):
        cfg = ExperimentConfig.from_dict(
            {
                "topology": {"kind": "line", "K": 2, "w": 3},
                "duplex": {"modes": ["hd", "fd"], "rinr_db_sweep": ["-inf", -10.0]},
                "qos": {"delta_s": [1e-3, 2e-3]},
            }
        )
        assert cfg.topology.K == 2
        assert cfg.duplex.rinr_db_sweep == (-math.inf, -10.0)
        assert cfg.qos.delta_s == (1e-3, 2e-3)

    def test_from_dict_rejects_unknown_field_by_name(self):
        with pytest.raises(ValueError, match=r"qos\.delta\b"):
            ExperimentConfig.from_dict({"qos": {"delta": 1e-3}})

    def test_from_dict_rejects_unknown_section_by_name(self):
        with pytest.raises(ValueError, match="'duplx'"):
            ExperimentConfig.from_dict({"duplx": {"modes": ["fd"]}})

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("qos", "eta", 1.5),
            ("qos", "delta_s", -1),
            ("duplex", "modes", ["xd"]),
            ("topology", "kind", "ring"),
            ("mc", "n_drops", -3),
            ("topology", "w", 0),
            ("topology", "spacing_m", 5.0),
            ("topology", "ue_radius_m", 10.0),
            ("topology", "ue_radius_m", -5),
            ("topology", "ue_radius_m", 6000.0),
            ("qos", "lambda_min_pps", [10.0, -5.0]),
            ("qos", "packet_bytes", 0),
            ("qos", "delta_s", []),
            ("qos", "lambda_min_pps", []),
            # JSON's Infinity literal parses to math.inf
            ("qos", "delta_s", math.inf),
            ("qos", "delta_s", [1e-3, math.inf]),
            ("qos", "lambda_min_pps", math.inf),
            ("duplex", "rinr_db_sweep", -15.0),
            ("duplex", "rinr_db_sweep", []),
            ("duplex", "modes", []),
            ("mc", "seed", -1),
            ("channel", "n_bs_ant", 0),
            ("channel", "n_ue_ant", 0),
            ("channel", "bandwidth_hz", 0),
            ("channel", "carrier_hz", -1),
            ("channel", "carrier_hz", math.inf),
            ("channel", "ptx_dbm", math.nan),
            ("channel", "noise_psd_dbm_hz", "-inf"),
            ("channel", "noise_figure_db", math.inf),
            # values of the wrong type
            ("topology", "K", 1.5),
            ("channel", "n_bs_ant", 1.5),
            ("mc", "n_drops", 2.5),
            ("qos", "packet_bytes", True),
            ("duplex", "rinr_db_sweep", ["nan"]),
            ("duplex", "rinr_db_sweep", ["inf"]),
            ("qos", "eta", "0.9"),
            ("qos", "delta_s", "abc"),
            ("topology", "spacing_m", "200"),
            # a custom tree without topology.tree_json; the message names
            # that field and the topology.kind it depends on
            ("topology", "kind", "custom"),
        ],
    )
    def test_from_dict_rejects_out_of_range_by_name(self, section, name, value):
        with pytest.raises(ValueError, match=rf"{section}\.{name}\b"):
            ExperimentConfig.from_dict({section: {name: value}})

    def test_load_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mc": {"n_drops": 7, "seed": 9}}))
        cfg = load_config(str(p))
        assert cfg.mc == McConfig(n_drops=7, seed=9)

    def test_custom_tree_from_json(self, tmp_path):
        tree = line_network(2, 1)
        p = tmp_path / "tree.json"
        p.write_text(tree_to_json(tree))
        cfg = small_cfg(topology=TopologyConfig(kind="custom", tree_json=str(p)))
        assert base_tree(cfg).parent == tree.parent


class TestDropDiscipline:
    def test_paired_capacities(self):
        cfg = small_cfg(topology=TopologyConfig(kind="line", K=2, w=2))
        tree0 = base_tree(cfg)
        tree, links = _drop_links(cfg, tree0, 0)
        backhaul = {ls.edge for ls in links if ls.is_backhaul}
        bits = _packet_bits(cfg)
        c_hd = capacity_from_links(links, HD, RinrConfig(-10.0), _budget(cfg), bits)
        c_fd = capacity_from_links(links, FD, RinrConfig(-10.0), _budget(cfg), bits)
        for e in range(tree.num_edges):
            assert (c_fd[e] < c_hd[e]) == (e in backhaul)
        c_fd0 = capacity_from_links(links, FD, RinrConfig(), _budget(cfg), bits)
        assert np.array_equal(c_fd0, c_hd)

    def test_drops_independent_of_each_other(self):
        cfg = small_cfg()
        tree0 = base_tree(cfg)
        _, links0 = _drop_links(cfg, tree0, 0)
        _, links1 = _drop_links(cfg, tree0, 1)
        assert any(
            a.snr_linear != b.snr_linear for a, b in zip(links0, links1)
        )

    def test_same_drop_reproducible(self):
        cfg = small_cfg()
        tree0 = base_tree(cfg)
        _, a = _drop_links(cfg, tree0, 1)
        _, b = _drop_links(cfg, tree0, 1)
        assert all(
            x.snr_linear == y.snr_linear for x, y in zip(a, b)
        )


class TestAggregation:
    def test_hop_sum_rates_sums_lambda_by_depth(self):
        tree = line_network(2, 2)
        lam = np.arange(1.0, tree.num_ue + 1)
        rates = hop_sum_rates(tree, lam)
        ue0 = tree.num_iab + 1
        expected = {}
        for u in tree.ue_ids:
            expected.setdefault(tree.hops(u), 0.0)
            expected[tree.hops(u)] += lam[u - ue0]
        assert rates == pytest.approx(expected)


class TestRunners:
    @pytest.mark.parametrize(
        "runner, axis", [(run_rate_sweep, "rinr_db"), (run_delay_sweep, "delta_s")]
    )
    def test_rate_sweep_rows_and_trend(self, runner, axis):
        cfg = small_cfg(
            qos=QosConfig(delta_s=(2.0e-3, 4.0e-3)),
            duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-10.0, 0.0)),
        )
        results = runner(cfg)
        assert [r.drop for r in results] == [0, 1]
        assert results[0].seed == (123, 0)
        values = cfg.duplex.rinr_db_sweep if axis == "rinr_db" else cfg.qos.delta_s
        for res in results:
            assert {row[axis] for row in res.rows} == set(values)
            for row in res.rows:
                assert set(row) == {
                    "drop", axis, "hop", "sum_rate_hd_pps", "sum_rate_fd_pps",
                    "rate_gain", "both_feasible", "status_hd", "status_fd",
                }
                if row["both_feasible"]:
                    assert float(row["rate_gain"]) > 0

    def test_rate_sweep_solves_each_distinct_problem_once(self, monkeypatch):
        # Half duplex ignores RINR, so each drop needs one HD solve and one FD
        # solve per RINR value: 1 + 3 = 4, in one batch per drop.
        calls = []
        solve = experiments.solve_utility_batch
        monkeypatch.setattr(
            experiments, "solve_utility_batch", lambda insts: calls.append(insts) or solve(insts)
        )
        cfg = small_cfg(duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-10.0, 0.0, 10.0)))
        run_rate_sweep(cfg)
        assert [len(insts) for insts in calls] == [4, 4]

    def test_min_delay_sweep_cross_checked(self):
        cfg = small_cfg()
        results = run_min_delay_sweep(cfg)
        for res in results:
            mode_rows = [r for r in res.rows if r["mode"] in ("hd", "fd")]
            gain_rows = [r for r in res.rows if r["mode"] == "gain"]
            assert mode_rows and gain_rows
            for r in mode_rows:
                assert r["closed_form_rel_err"] <= 1e-6

    def test_min_delay_sweep_survives_unsupportable_rate_floors(self):
        # Below t* = 0 the LP's mu >= 0 bounds bind and its t* falls under
        # the closed form's (HD drop 0 at 3000 pps: -2426.2 against -2310.7),
        # so only the sign is cross-checked there.
        cfg = ExperimentConfig(
            topology=TopologyConfig(kind="line", K=3, w=2),
            qos=QosConfig(lambda_min_pps=(1000.0, 3000.0)),
            duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-15.0,)),
            mc=McConfig(n_drops=5, seed=0),
        )
        rows = [r for res in run_min_delay_sweep(cfg) for r in res.rows]
        mode_rows = [r for r in rows if r["mode"] in ("hd", "fd")]
        assert len(mode_rows) == 20
        unsupportable = [r for r in mode_rows if not r["feasible"]]
        assert unsupportable and max(r["closed_form_rel_err"] for r in unsupportable) > 1e-6
        for r in unsupportable:
            assert r["t_star"] <= 0 and r["delta_star_s"] == ""
        for r in mode_rows:
            if r["feasible"]:
                assert r["t_star"] > 0 and r["closed_form_rel_err"] <= 1e-6

    def test_min_delay_nesting_fails_at_finite_rinr(self):
        # Criterion 7's nesting rule (FD t* at least HD t*) holds at RINR
        # -inf but not at -15 dB: full duplex lowers edge 0's capacity, and
        # on this drop both modes bind at the donor row, so FD's t* falls
        # below HD's at every rate floor although the LP equals the closed
        # form.  Drop 0 of the min-delay benchmark batch at mc.seed 4000062.
        lambdas = (10.0, 50.0, 100.0, 200.0, 400.0)
        cfg = ExperimentConfig(
            topology=TopologyConfig(kind="line", K=3, w=2),
            qos=QosConfig(lambda_min_pps=lambdas),
            duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-15.0,)),
            mc=McConfig(n_drops=1, seed=4000062),
        )
        (res,) = run_min_delay_sweep(cfg)
        rows = {(r["lambda_min_pps"], r["mode"]): r for r in res.rows}
        for lam in lambdas:
            hd, fd = rows[lam, "hd"], rows[lam, "fd"]
            assert hd["closed_form_rel_err"] <= 1e-6 and fd["closed_form_rel_err"] <= 1e-6
            assert hd["bottleneck_bs"] == fd["bottleneck_bs"] == 0
            assert hd["feasible"] and fd["feasible"] and fd["t_star"] < hd["t_star"]
        assert rows[10.0, "fd"]["t_star"] == pytest.approx(539.0928, abs=1e-4)
        assert rows[10.0, "hd"]["t_star"] == pytest.approx(540.0659, abs=1e-4)
        _, links = _drop_links(cfg, base_tree(cfg), 0)
        caps = {mode: capacity_from_links(links, mode, RinrConfig(rinr_db=-15.0), _budget(cfg),
                                          _packet_bits(cfg))[0]
                for mode in DuplexMode}
        assert caps[DuplexMode.FULL_DUPLEX] == pytest.approx(8328.2, abs=0.1)
        assert caps[DuplexMode.HALF_DUPLEX] == pytest.approx(8383.8, abs=0.1)

    def test_queue_validation_report(self):
        cfg = small_cfg(
            qos=QosConfig(delta_s=1.0e-3), mc=McConfig(n_drops=1, seed=0)
        )
        rep = run_queue_validation(cfg, n_packets=20_000)
        assert rep["status"] == "optimal"
        assert len(rep["delivery_probability"]) == 2
        assert set(rep["ks_distance_per_edge"]) == {0, 1, 2}
        assert rep["constraint_report"]["latency_margin"] >= -1e-8


class TestPersistence:
    def test_save_run_reproducible_bytes(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            cfg = small_cfg(output=OutputConfig(dir=str(tmp_path / sub)))
            paths = save_run(cfg, "rate_sweep", results=run_rate_sweep(cfg))
            outputs.append(paths)
        csv_a = Path(outputs[0]["csv"]).read_bytes()
        csv_b = Path(outputs[1]["csv"]).read_bytes()
        assert csv_a == csv_b
        man = json.loads(Path(outputs[0]["manifest"]).read_text())
        assert man["config"]["mc"]["seed"] == 123
        assert man["seed"] == 123

    def test_two_experiments_keep_their_manifests(self, tmp_path):
        cfg = small_cfg(output=OutputConfig(dir=str(tmp_path)))
        a = save_run(cfg, "rate_sweep", results=[])
        b = save_run(cfg, "queue_validation", report={"status": "optimal"})
        assert a["manifest"] != b["manifest"]
        assert json.loads(Path(a["manifest"]).read_text())["experiment"] == "rate_sweep"
        assert json.loads(Path(b["manifest"]).read_text())["experiment"] == "queue_validation"

    def test_manifest_encodes_minus_inf(self, tmp_path):
        cfg = small_cfg(
            duplex=DuplexConfig(modes=("fd",), rinr_db_sweep=(-math.inf,)),
            output=OutputConfig(dir=str(tmp_path)),
        )
        paths = save_run(cfg, "rate_sweep", results=run_rate_sweep(cfg))
        man = json.loads(Path(paths["manifest"]).read_text())
        assert man["config"]["duplex"]["rinr_db_sweep"] == ["-inf"]


class TestCli:
    def test_kmax_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            ["kmax", "--ra-pps", "1000", "--rb-pps", "4000", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"hd", "fd"}
        assert json.loads((tmp_path / "kmax.json").read_text()) == out
        man = json.loads((tmp_path / "kmax.run.json").read_text())
        assert man["line"] == {"R_a": 1000.0, "R_b": 4000.0}

    def test_latency_gain_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            [
                "latency-gain", "--ra-pps", "1000", "--rb-pps", "4000",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert os.path.exists(out["csv"])
        man = json.loads(Path(out["manifest"]).read_text())
        assert man["line"] == {"R_a": 1000.0, "R_b": 4000.0}
        assert man["artifacts"] == [out["csv"]]

    @pytest.mark.parametrize("command", ["latency-gain", "kmax"])
    @pytest.mark.parametrize("kind", ["two_child", "custom"])
    def test_line_analyses_reject_non_line_topology(self, command, kind, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"topology": {"kind": kind, "K": 0, "tree_json": "t.json"}}))
        out = tmp_path / "res"
        argv = [command, "--config", str(p), "--ra-pps", "1000", "--rb-pps", "4000",
                "--out", str(out)]
        with pytest.raises(ValueError, match=r"topology\.kind"):
            cli.main(argv)
        assert not out.exists()

    def test_latency_gain_rejects_k_below_one(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"topology": {"kind": "line", "K": 0}}))
        out = tmp_path / "res"
        argv = ["latency-gain", "--config", str(p), "--ra-pps", "1000", "--rb-pps", "4000",
                "--out", str(out)]
        with pytest.raises(ValueError, match=r"topology\.K\b"):
            cli.main(argv)
        assert not out.exists()

    def test_kmax_ignores_topology_k(self):
        qos = QosConfig(delta_s=1e-2, lambda_min_pps=10.0)
        reports = [
            experiments.run_kmax(small_cfg(topology=TopologyConfig(kind="line", K=k, w=1), qos=qos),
                                 R_a=1000.0, R_b=4000.0)
            for k in (0, 1, 7)
        ]
        assert reports == [{"hd": 2, "fd": 3}] * 3

    def test_min_delay_subcommand(self, tmp_path, capsys):
        cfg = {
            "topology": {"kind": "line", "K": 1, "w": 1},
            "qos": {"lambda_min_pps": 50.0},
            "mc": {"n_drops": 1, "seed": 3},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(
            ["min-delay", "--config", str(p), "--out", str(tmp_path / "res")]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert os.path.exists(out["csv"])
        assert os.path.exists(out["manifest"])

    @pytest.mark.parametrize("packets", ["0", "-3"])
    def test_validate_queues_rejects_packet_count_below_one(self, packets, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate-queues", "--packets", packets, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--packets: must be at least 1, got {packets}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_queue_validation_rejects_packet_count_below_one(self, monkeypatch):
        monkeypatch.setattr(experiments, "_solve_utility", None)  # fails if reached
        with pytest.raises(ValueError, match="n_packets"):
            run_queue_validation(small_cfg(), n_packets=0)

    def test_cli_override_is_range_checked(self):
        with pytest.raises(ValueError, match=r"mc\.n_drops"):
            cli.main(["rate-sweep", "--drops", "-3"])

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_config_runs_its_subcommand(self, path, tmp_path, capsys):
        load_config(str(path))
        argv = [path.stem, "--config", str(path), "--drops", "1", "--out", str(tmp_path)]
        if path.stem == "validate-queues":
            argv += ["--packets", "5000"]
        # the README's line capacities
        argv += {
            "kmax": ["--ra-pps", "2571.7", "--rb-pps", "8000"],
            "latency-gain": ["--ra-pps", "2500", "--rb-pps", "7500"],
        }.get(path.stem, [])
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)
        assert (tmp_path / f"{cli.RUNNERS[path.stem].name}.run.json").exists()
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                   if not p.name.endswith(".run.json")}
        if path.stem == "kmax":
            written["stdout"] = out.encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
        assert digests == CONFIG_DIGESTS[path.stem]

    def test_every_subcommand_has_one_runner_and_a_readme_line(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(cli.RUNNERS)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        documented = [ln.split()[1] for ln in block.splitlines() if ln.startswith("iabnet ")]
        assert sorted(documented) == sorted(cli.RUNNERS)

    def test_utility_subcommand_certifies_both_modes(self, tmp_path, capsys):
        path = next(p for p in CONFIGS if p.stem == "rate-sweep")
        assert cli.main(["utility", "--config", str(path), "--out", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"hd", "fd"}
        assert json.loads((tmp_path / "utility.json").read_text()) == out
        assert (tmp_path / "utility.run.json").exists()
        for sol in out.values():
            assert list(sol) == ["status", "lambda", "mu", "objective", "kkt_residual"]
            assert sol["status"] == "optimal"
            assert sol["kkt_residual"] <= 1e-6 * max(abs(sol["objective"]), 1e-3)
