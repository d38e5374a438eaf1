import hashlib
import json
import math

import numpy as np
import pytest

from negmono import (
    CampaignConfig,
    MeasureKind,
    RelationId,
    RoofConfig,
    analyze,
    builtin_state,
    emit_report,
    evaluate_relation,
    run_campaign,
    sample_state,
    sweep,
    write_state_json,
)
from negmono.cli import main as cli_main
from negmono.harness import (
    REPORT_CSV_HEADER,
    BaselineStats,
    CampaignReport,
    RelationStats,
    ViolationRecord,
    _ExactSum,
    _fmt,
    campaign_config_from_dict,
    campaign_report_dict,
    campaign_report_json,
    relation_report_dict,
    relation_reports_to_csv,
    relation_reports_to_json,
)
from negmono.relations import REGISTRY

LIGHT_ROOF = RoofConfig(restarts=6, seed=0)
CAPPED_ROOF = RoofConfig(restarts=2, max_iters=10, seed=4)


class TestBuiltinStates:
    def test_bell(self):
        psi = builtin_state("bell")
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_ghz3(self):
        psi = builtin_state("ghz3")
        expect = np.zeros(8)
        expect[0] = expect[7] = 1 / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect)

    def test_ghz_paren_form(self):
        assert np.array_equal(builtin_state("ghz(4)").amplitudes, builtin_state("ghz4").amplitudes)

    def test_w3(self):
        psi = builtin_state("w3")
        expect = np.zeros(8)
        expect[[1, 2, 4]] = 1 / np.sqrt(3)
        assert np.allclose(psi.amplitudes, expect)

    def test_product(self):
        psi = builtin_state("product:2,3")
        assert psi.dims == (2, 3)
        assert psi.amplitudes[0] == 1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            builtin_state("nope")


class TestAnalyze:
    def test_antisymmetric_example(self):
        result = analyze(builtin_state("aharonov"), LIGHT_ROOF)
        assert abs(result.scren.lhs - 4.0) < 1e-9
        assert np.allclose(result.scren.values, [1.0, 1.0], atol=1e-3)
        assert np.allclose(result.screnoa.values, [1.0, 1.0], atol=1e-3)

    def test_ghz3(self):
        result = analyze(builtin_state("ghz3"))
        assert abs(result.scren.lhs - 1.0) < 1e-12
        assert np.allclose(result.scren.values, [0.0, 0.0], atol=1e-9)
        assert np.allclose(result.screnoa.values, [1.0, 1.0], atol=1e-9)

    def test_product_all_zero(self):
        result = analyze(builtin_state("product:2,2,2"))
        assert result.scren.lhs < 1e-12
        assert max(result.scren.values) < 1e-9

    def test_sorting(self):
        psi = sample_state(CampaignConfig(dims=(2, 2, 2, 2), samples=1, seed=5), 0)
        plain = analyze(psi)
        ordered = analyze(psi, sort_values=True)
        assert sorted(plain.scren.values, reverse=True) == list(ordered.scren.values)
        assert sorted(plain.screnoa.values, reverse=True) == list(ordered.screnoa.values)

    def test_tails_present_and_consistent(self):
        psi = sample_state(CampaignConfig(dims=(2, 2, 2, 2), samples=1, seed=6), 0)
        result = analyze(psi, LIGHT_ROOF, sort_values=True, include_tails=True)
        tails = result.screnoa.tail_values
        assert tails is not None and len(tails) == 2
        # the last tail is the final single-subsystem value itself
        assert abs(tails[-1] - result.screnoa.values[-1]) < 1e-12
        # collective assisted measure dominates the plain last value
        assert tails[0] >= result.screnoa.values[-1] - 1e-9

    def test_rejects_single_factor(self):
        from negmono import ket

        with pytest.raises(ValueError):
            analyze(ket([1, 0], (2,)))


class TestSweep:
    def test_antisymmetric_tightness_deltas(self):
        reports = sweep(
            builtin_state("aharonov"),
            RelationId.MONO_HAMMING,
            (1.0, 1.5, 2.0, 3.0),
            1.0,
            roof_config=LIGHT_ROOF,
        )
        deltas = [r.tightness_delta for r in reports]
        expect = [2.0**a - (1.0 + a) for a in (1.0, 1.5, 2.0, 3.0)]
        assert np.allclose(deltas, expect, atol=5e-3)
        assert all(r.satisfied for r in reports)

    def test_alpha_one_delta_zero(self):
        psi = sample_state(CampaignConfig(dims=(2, 2, 2), samples=1, seed=9), 0)
        rep = sweep(psi, RelationId.MONO_HAMMING, (1.0,), "auto", sort_values=True)[0]
        if rep.tightness_delta is not None:
            assert abs(rep.tightness_delta) < 1e-12

    # a sweep evaluates its whole grid, any iterable, at once: every report
    # must be the one evaluate_relation gives at its alpha alone, on
    # analyze's vector
    @pytest.mark.parametrize("state,relation,alphas,k_policy,sort_values,roof", [
        ("ghz4", RelationId.MONO_LADDER, (1.0, 2.0, 1.0, 3.0), "auto", False, None),
        ("w4", RelationId.MONO_HAMMING_NEG, (-0.5, -1.0, -2.0, -1.0), "auto", True, None),
        ("w4", RelationId.POLY_HAMMING, (0.25, 0.5, 1.0), 0.7, True, None),
        ("w4", RelationId.MONO_LADDER_NEG_COLLECTIVE, (-0.5, -1.0, -2.0), "auto", True,
         CAPPED_ROOF),
        ("aharonov", RelationId.MONO_HAMMING_BASE, (1.0, 2.0, 2.0), "auto", False, CAPPED_ROOF),
    ], ids=["ghz4-ladder-repeat", "w4-hamming-neg", "w4-poly-k", "w4-collective", "aharonov"])
    def test_grid_equals_each_alpha_alone(self, state, relation, alphas, k_policy,
                                          sort_values, roof):
        psi = builtin_state(state)
        result = analyze(psi, roof, sort_values=sort_values,
                         include_tails=relation is RelationId.MONO_LADDER_NEG_COLLECTIVE)
        mv = result.scren if REGISTRY[relation].kind is MeasureKind.SCREN else result.screnoa
        alone = [evaluate_relation(mv, relation, alpha, k_policy) for alpha in alphas]
        grid = sweep(psi, relation, (alpha for alpha in alphas), k_policy,
                     sort_values=sort_values, roof_config=roof)
        assert grid == alone
        assert relation_reports_to_json(grid) == relation_reports_to_json(alone)
        assert relation_reports_to_csv(grid) == relation_reports_to_csv(alone)

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(builtin_state("ghz3"), RelationId.MONO_HAMMING, (0.5,), "auto")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(builtin_state("ghz3"), RelationId.MONO_HAMMING, (), "auto")

    # lhs < 1 gives lhs^inf = 0: a row that says nothing about the relation
    @pytest.mark.parametrize("alphas", [(math.inf,), (1.0, math.inf), (-math.inf,), (math.nan,)])
    def test_non_finite_grid_rejected(self, alphas):
        relation = RelationId.MONO_HAMMING_NEG if alphas == (-math.inf,) else RelationId.MONO_HAMMING
        with pytest.raises(ValueError, match="not a finite number"):
            sweep(builtin_state("bell"), relation, alphas, "auto")


class TestExactSum:
    """The running tightness sum of a campaign keeps no per-sample values,
    yet its mean is bit for bit ``math.fsum`` of all of them."""

    @staticmethod
    def cancelling(rng, n):
        # huge terms that cancel in pairs across chunks, around small ones
        big = rng.choice([1e16, 1e100, 2.0**70, 3e-5], size=n) * rng.standard_normal(n)
        values = np.concatenate([big, -big[::-1], rng.standard_normal(n) * 1e-20,
                                 rng.standard_normal(n)])
        rng.shuffle(values)
        return values.tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_fsum_of_every_value(self, seed):
        rng = np.random.default_rng(seed)
        values = self.cancelling(rng, 300)
        total = _ExactSum()
        cuts = np.sort(rng.integers(0, len(values), size=12)).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            total.extend(values[lo:hi])
            seen = values[:hi]
            assert math.fsum(total.partials) == math.fsum(seen)
            assert total.count == len(seen)
        # the partials stay few, however many values went in
        assert len(total.partials) <= 3

    def test_append_and_exact_cancellation(self):
        total = _ExactSum()
        for value in (1e100, 1.0, -1e100, 1e-100, -1.0):
            total.append(value)
        assert math.fsum(total.partials) == 1e-100 == math.fsum([1e100, 1.0, -1e100, 1e-100, -1.0])
        total.append(-1e-100)
        assert total.partials == [] and total.count == 6

    def test_mean_tightness_delta(self):
        stats = RelationStats(RelationId.MONO_HAMMING, 1.0)
        assert stats.mean_tightness_delta is None
        values = self.cancelling(np.random.default_rng(7), 100)
        stats._tightness_values.extend(values)
        assert stats.mean_tightness_delta == math.fsum(values) / len(values)


class TestCampaign:
    def small_config(self, **over):
        base = dict(
            dims=(2, 2, 2),
            samples=40,
            seed=1234,
            alphas=(1.0, 2.0, 0.5),
            relations=(
                RelationId.MONO_HAMMING,
                RelationId.MONO_HAMMING_BASE,
                RelationId.POLY_HAMMING,
            ),
            k_policy="auto",
            sort_values=True,
            roof=LIGHT_ROOF,
        )
        base.update(over)
        return CampaignConfig(**base)

    def test_zero_violations_small(self):
        report = run_campaign(self.small_config())
        assert report.total_violations == 0
        assert report.baseline.ckw_violations == 0
        assert report.baseline.polygamy_violations == 0
        evaluated = {(s.relation, s.alpha): s.evaluated for s in report.stats}
        # alpha grid is filtered to each relation's range
        assert (RelationId.MONO_HAMMING, 0.5) not in evaluated
        assert (RelationId.POLY_HAMMING, 2.0) not in evaluated
        assert evaluated[(RelationId.MONO_HAMMING, 2.0)] > 0

    def test_mean_tightness_nonnegative(self):
        report = run_campaign(self.small_config())
        for s in report.stats:
            if s.relation is RelationId.MONO_HAMMING and s.mean_tightness_delta is not None:
                assert s.mean_tightness_delta >= -1e-12

    def test_deterministic_bytes(self):
        a = run_campaign(self.small_config())
        b = run_campaign(self.small_config())
        assert campaign_report_json(a) == campaign_report_json(b)

    def test_sample_state_shard_independent(self):
        cfg = self.small_config()
        psi_again = sample_state(cfg, 17)
        assert np.array_equal(sample_state(cfg, 17).amplitudes, psi_again.amplitudes)

    def test_config_json_round_trip(self):
        cfg = self.small_config()
        from negmono.harness import campaign_config_dict

        rebuilt = campaign_config_from_dict(campaign_config_dict(cfg))
        assert rebuilt == cfg
        # every roof field is echoed, the precision knobs included
        cfg = self.small_config(
            roof=RoofConfig(restarts=3, value_floor=6e-4, squared_tolerance=5e-7)
        )
        data = json.loads(json.dumps(campaign_config_dict(cfg)))
        assert campaign_config_from_dict(data) == cfg

    def test_config_from_dict_names_unknown_keys(self):
        with pytest.raises(ValueError, match="shards"):
            campaign_config_from_dict({"samples": 3, "shards": 1})
        with pytest.raises(ValueError, match="bogus"):
            campaign_config_from_dict({"roof": {"restarts": 2, "bogus": 1}})
        # the roof direction is chosen per measure, so an echoed one is ignored
        cfg = campaign_config_from_dict({"roof": {"restarts": 2, "direction": "max"}})
        assert cfg.roof == RoofConfig(restarts=2)

    @pytest.mark.parametrize("over", [
        dict(samples=2.7),
        dict(samples=True),
        dict(alphas=(1.0, float("nan"))),
        dict(alphas=(1.0, float("inf"))),
        dict(alphas=(2.0, 2.0)),
        dict(relations=(RelationId.MONO_HAMMING, RelationId.MONO_HAMMING)),
        dict(alphas=(0.5,), relations=(RelationId.MONO_HAMMING,)),
        dict(k_policy="bogus"),
        dict(k_policy=-3),
        dict(seed=-1),
        dict(sort_values="no"),
        dict(dims=()),
        dict(dims=(2,)),
        dict(dims=(1, 2)),
    ])
    def test_invalid_config_rejected(self, over):
        with pytest.raises(ValueError):
            self.small_config(**over)


class TestEmission:
    def make_reports(self):
        return sweep(
            builtin_state("ghz3"), RelationId.POLY_HAMMING, (0.25, 0.5, 1.0), "auto"
        )

    def test_csv_header_contract(self):
        text = relation_reports_to_csv(self.make_reports())
        assert text.splitlines()[0] == (
            "relation,alpha,k,condition,lhs_pow,rhs,kim_rhs,gap,tightness_delta"
        )
        assert REPORT_CSV_HEADER == text.splitlines()[0]

    def test_json_keys(self):
        d = relation_report_dict(self.make_reports()[0])
        for key in ("id", "alpha", "k", "lhs_pow", "rhs", "satisfied", "gap"):
            assert key in d

    def test_csv_round_trip_lossless(self):
        # every CSV cell parses back to its JSON value; satisfied is left
        # out, since it follows from the gap
        reports = self.make_reports()
        lines = relation_reports_to_csv(reports).splitlines()
        assert len(lines) == len(reports) + 1
        for line, rep in zip(lines[1:], reports):
            expect = relation_report_dict(rep)
            del expect["satisfied"]
            cells = line.split(",")
            assert cells[0] == expect.pop("id")
            for cell, value in zip(cells[1:], expect.values(), strict=True):
                if cell == "":
                    parsed = None
                elif cell in ("true", "false"):
                    parsed = cell == "true"
                else:
                    parsed = float(cell)
                assert parsed == value and type(parsed) is type(value), (cell, value)

    def test_emit_files_byte_identical(self, tmp_path):
        cfg = CampaignConfig(
            dims=(2, 2, 2), samples=20, seed=7,
            alphas=(1.0, 2.0), relations=(RelationId.MONO_HAMMING,),
            roof=LIGHT_ROOF,
        )
        report = run_campaign(cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", p1)
        emit_report(run_campaign(cfg), "json", p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2
        emit_report(report, "csv", tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_text().startswith("relation,alpha,evaluated")

    def test_campaign_json_is_fmt_of_the_report_dict(self):
        # campaign_report_json writes the relation and violation rows flat;
        # it must stay byte for byte the generic writer's text of
        # campaign_report_dict, here with violations, None values, a -0.0,
        # numpy scalars and a float that needs all 17 digits
        negative = run_campaign(CampaignConfig(
            dims=(2, 2, 2, 2), samples=40, seed=20260808, alphas=(-0.5, -1.0),
            relations=(RelationId.MONO_LADDER_NEG_COLLECTIVE, RelationId.POLY_AVERAGE_NEG),
            roof=RoofConfig(restarts=2, max_iters=10)))
        assert negative.violations
        unevaluated = run_campaign(CampaignConfig(
            dims=(2, 2, 2, 2, 2), samples=5, seed=15, alphas=(0.5,),
            relations=(RelationId.POLY_LADDER, RelationId.POLY_HAMMING)))
        assert any(s.worst_gap is None for s in unevaluated.stats)
        odd_stats = RelationStats(RelationId.MONO_HAMMING, 2.0, np.int64(3), 2, 1, -0.0)
        odd_stats._tightness_values.append(1e-300)
        odd = CampaignReport(
            unevaluated.config, [odd_stats], BaselineStats(1, np.float64(-1e-9), 0, None),
            [ViolationRecord(RelationId.MONO_HAMMING, 2.0, np.int64(4), np.float64(-2e-9),
                             0.1 + 0.2, (1 / 3, 0.0, -0.0))])
        for report in (negative, unevaluated, odd):
            text = campaign_report_json(report)
            assert text == _fmt(campaign_report_dict(report)) + "\n"
            assert len(json.loads(text)["relations"]) == len(report.stats)

    def test_float_serialization_17_digits(self):
        rep = self.make_reports()[0]
        text = relation_reports_to_csv([rep])
        cell = text.splitlines()[1].split(",")[5]
        assert float(cell) == rep.rhs


class TestCli:
    def test_measure_builtin(self, capsys):
        code = cli_main(["measure", "ghz3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scren" in out and "screnoa" in out

    def test_measure_state_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        write_state_json(builtin_state("bell"), path)
        assert cli_main(["measure", str(path)]) == 0

    def test_sweep_csv_stdout(self, capsys):
        code = cli_main([
            "sweep", "aharonov", "--relation", "mono-hamming",
            "--alphas", "1,2", "--k", "1", "--restarts", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("relation,alpha,k,")
        assert "mono-hamming" in out

    def test_campaign_exit_zero_and_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli_main([
            "campaign", "--dims", "2,2,2", "--samples", "25", "--seed", "3",
            "--alphas", "1,2", "--relations", "mono-hamming,mono-hamming-base",
            "--sort-values", "--out", str(out_path),
        ])
        assert code == 0
        data = out_path.read_text()
        assert '"violations":[]' in data.replace(" ", "")

    def test_campaign_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dims": [2, 2, 2], "samples": 10, "seed": 11,
            "alphas": [1.0], "relations": ["mono-hamming"],
            "sort_values": True,
        }))
        assert cli_main(["campaign", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("config", [
        {"samples": 5, "shards": 1},
        {"samples": 5, "bogus": 1},
        {"samples": 5, "roof": {"restarts": 2, "bogus": 1}},
        {"samples": 2.7},
        {"samples": 2, "roof": None},
        {"samples": 2, "dims": 3},
        {"samples": 2, "alphas": 1},
        {"samples": 2, "relations": "mono-hamming"},
        {"samples": 2, "sort_values": "no"},
        {"samples": 2, "k_policy": "bogus"},
        {"samples": 2, "k_policy": -3},
        {"samples": 2, "seed": -1},
        {"samples": 2, "roof": {"step_tolerance": float("nan")}},
    ])
    def test_campaign_bad_config_file_exit_one(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dims": [2, 2, 2], **config}))
        assert cli_main(["campaign", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # the last key holds the bad value, and the error names it
        assert list(config)[-1] in err

    def test_campaign_roof_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dims": [2, 2, 2], "samples": 3, "alphas": [1.0], "relations": ["mono-hamming"],
            "roof": {"restarts": 2, "max_iters": 5},
        }))
        out_path = tmp_path / "report.json"
        assert cli_main(["campaign", "--config", str(cfg_path), "--restarts", "1",
                         "--roof-seed", "9", "--out", str(out_path)]) == 0
        roof = json.loads(out_path.read_text())["config"]["roof"]
        assert (roof["restarts"], roof["seed"], roof["max_iters"]) == (1, 9, 5)
        assert roof["cardinality"] is None

    def test_campaign_config_not_object_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[2, 2, 2]")
        assert cli_main(["campaign", "--config", str(cfg_path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    # 0.5 is outside the alpha >= 1 range of mono-hamming
    @pytest.mark.parametrize("alphas", ["0.5", "nan,1"])
    def test_campaign_bad_alphas_exit_one(self, capsys, alphas):
        code = cli_main([
            "campaign", "--dims", "2,2,2", "--samples", "2",
            "--alphas", alphas, "--relations", "mono-hamming",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag, name", [
        (["--dims", "2"], "dims"),
        (["--roof-seed", "-1"], "seed"),
        (["--cardinality", "0"], "cardinality"),
    ])
    def test_campaign_bad_flag_exit_one(self, capsys, flag, name):
        code = cli_main(["campaign", "--dims", "2,2,2", "--samples", "2", "--alphas", "1",
                         "--relations", "mono-hamming", *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_measure_non_finite_state_exit_one(self, tmp_path, capsys, bad):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2, 2], "amplitudes": [[%s, 0], [0, 0], [0, 0], [1, 0]]}' % bad)
        assert cli_main(["measure", str(path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "ghz3", "--relation", "bogus", "--alphas", "1"],
        ["measure", "not-a-state"],
        ["sweep", "ghz4", "--relation", "mono-hamming", "--alphas", "1,2", "--k", "5"],
        # k is checked for every relation, also those that take no k
        ["sweep", "ghz4", "--relation", "mono-hamming-base", "--alphas", "1,2", "--k", "5"],
        ["sweep", "ghz4", "--relation", "poly-average-neg", "--alphas=-1", "--k", "0"],
    ], ids=["bad-relation", "bad-state", "k5-mono-hamming", "k5-mono-hamming-base",
            "k0-poly-average-neg"])
    def test_usage_error_exit_one(self, argv, capsys):
        assert cli_main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_measure_tiny_norm_state_file(self, tmp_path, capsys):
        # a file whose amplitudes all lie near the underflow limit is
        # normalized like any other
        bell = tmp_path / "bell.json"
        write_state_json(builtin_state("bell"), bell)
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[1e-200, 0], [0, 0], [0, 0], [1e-200, 0]]}))
        assert cli_main(["measure", str(bell)]) == 0
        expect = capsys.readouterr().out.splitlines()[1:]
        assert cli_main(["measure", str(tiny)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == expect
        assert "note: input normalized (factor 1.41421356237e-200)" in captured.err

    @pytest.mark.parametrize("alphas", ["inf", "1e400", "1,inf"])
    def test_sweep_non_finite_alpha_exit_one(self, capsys, alphas):
        code = cli_main(["sweep", "bell", "--relation", "mono-hamming", "--alphas", alphas])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    # argparse takes "-0.5,-1" or "-1e-1" for an option unless it is
    # attached to its flag, and "-1" only because it reads as a number
    @pytest.mark.parametrize("form", [["--alphas", "-0.5,-1"], ["--alphas=-0.5,-1"],
                                      ["--alpha", "-0.5,-1"]], ids=["spaced", "attached", "alias"])
    def test_sweep_negative_alphas(self, capsys, form):
        code = cli_main(["sweep", "w4", "--relation", "mono-hamming-neg", *form])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 0
        assert [row.split(",")[1] for row in rows] == ["-0.5", "-1"]

    @pytest.mark.parametrize("text, alpha", [("-1e-1", "-0.10000000000000001"), ("-1", "-1")])
    def test_sweep_negative_alpha_forms(self, capsys, text, alpha):
        assert cli_main(["sweep", "w4", "--relation", "mono-hamming-neg", "--alphas", text]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == alpha

    def test_sweep_negative_infinite_alpha_exit_one(self, capsys):
        assert cli_main(["sweep", "w4", "--relation", "mono-hamming-neg", "--alphas", "-inf"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [["--alphas", "-0.5,-1"], ["--alphas=-0.5,-1"]],
                             ids=["spaced", "attached"])
    def test_campaign_negative_alphas(self, capsys, form):
        code = cli_main(["campaign", "--dims", "2,2,2,2", "--samples", "3",
                         "--relations", "mono-hamming-neg", *form])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["config"]["alphas"] == [-0.5, -1.0]
        assert [row["alpha"] for row in report["relations"]] == [-0.5, -1.0]

    def test_sweep_empty_alpha_grid_exit_one(self, capsys):
        code = cli_main(["sweep", "bell", "--relation", "mono-hamming", "--alphas", ","])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "empty" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, name", [
        (["--samples", "0"], "--samples"),
        (["--samples", "-3"], "--samples"),
        (["--tolerance", "nan"], "--tolerance"),
        (["--tolerance", "inf"], "--tolerance"),
        (["--tolerance=-1e-6"], "--tolerance"),
    ])
    def test_oracle_check_bad_flag_exit_one(self, capsys, flag, name):
        code = cli_main(["oracle-check", *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and name in captured.err
        assert "PASS" not in captured.out

    def test_oracle_check_small(self, capsys):
        code = cli_main(["oracle-check", "--samples", "2", "--seed", "1", "--restarts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
