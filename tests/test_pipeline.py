"""Config handling, the two-stage driver, replications, and the CLI."""

import csv
import json

import numpy as np
import pytest

import genis
from genis import cli
from genis.batch_means import DEFAULT_BM_SPEC
from genis.cli import main as cli_main
from genis.errors import ConfigError, UndefinedPointError
from genis.importance import DEFAULT_TAIL_GUARD
from genis.pipeline import (
    STAGE1_TAG,
    STAGE2_TAG,
    ReferenceConfig,
    TargetConfig,
    WeightConfig,
    build_references,
    config_from_dict,
    config_from_json,
    exact_table_quantities,
    oracle_check,
    run_replications,
    run_two_stage,
    sample_stage,
    split_sizes,
    stage2_tours,
    write_replications_csv,
)
from genis.samplers import load_chain
from genis.weights import DEFAULT_STEP


def toy_config(**overrides) -> dict:
    cfg = {
        "references": [
            {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0},
            {
                "family": "t",
                "sampler": "imh",
                "df": 5.0,
                "mu": 0.0,
                "proposal_df": 5.0,
                "proposal_mu": 1.0,
                "with_regen": True,
            },
        ],
        "stage1": {"sizes": [1500, 1500]},
        "targets": {"family": "t", "df": 5.0, "mu_grid": [0.5]},
        "master_seed": 7,
    }
    cfg.update(overrides)
    return cfg


def table_config(**overrides) -> dict:
    cfg = {
        "references": [
            {
                "family": "table",
                "sampler": "mh",
                "table": [1.0, 1.0],
                "with_regen": True,
                "label": "flat",
            },
            {
                "family": "table",
                "sampler": "mh",
                "table": [3.0, 1.0],
                "with_regen": True,
                "label": "tilted",
            },
        ],
        "stage1": {"sizes": [4000, 4000]},
        "stage2": {"sizes": [800, 800]},
        "targets": {"family": "table", "tables": [[2.0, 2.0]]},
        "master_seed": 11,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ------------------------------------------------------------------- config


def test_config_defaults_and_labels():
    cfg = config_from_dict(toy_config())
    assert cfg.se_method == "bm"
    assert cfg.thinning == 1 and cfg.burn_in == 0
    assert cfg.bm_nu == 0.5
    assert cfg.stage1.weights.kind == "naive"
    labels = [r.id for r in build_references(cfg)]
    assert labels == ["t5_mu1", "t5_mu0"]


def test_config_defaults_come_from_the_dataclasses():
    """Keys left out of the JSON take the dataclass field defaults."""
    raw = toy_config()
    raw["stage1"]["weights"] = {"kind": "pilot"}
    cfg = config_from_dict(raw)
    assert cfg.tail_guard == DEFAULT_TAIL_GUARD
    assert cfg.bm_spec == DEFAULT_BM_SPEC
    assert cfg.integrand == "x" and cfg.stage2 is None and cfg.truth is None
    assert cfg.stage1.weights == WeightConfig(kind="pilot")
    assert cfg.stage1.weights.step == DEFAULT_STEP
    assert cfg.targets == TargetConfig(mu_grid=(0.5,))
    assert cfg.references[0] == ReferenceConfig("t", "iid", df=5.0, mu=1.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(bogus=1),
        lambda c: c.update(burn_in=-1),
        lambda c: c.update(thinning=0),
        lambda c: c.update(bm_nu=1.0),
        lambda c: c.update(replications=0),
        lambda c: c.update(workers=0),
        lambda c: c.update(integrand="x**2"),
        lambda c: c.update(se_method="jackknife"),
        lambda c: c["references"][0].update(family="gamma"),
        lambda c: c["references"][0].update(sampler="gibbs"),
        lambda c: c["references"][0].pop("mu"),
        lambda c: c["references"][1].pop("proposal_mu"),
        lambda c: c["stage1"].update(sizes=[1000]),
        lambda c: c["stage1"].update(sizes=[1000, 0]),
        lambda c: c["stage1"].update(weights={"kind": "fixed"}),
        lambda c: c["targets"].update(mu_grid=[]),
        lambda c: c["stage1"].update(
            weights={"kind": "fixed", "values": [float("inf"), 1.0]}
        ),
        lambda c: c["stage1"].update(
            weights={"kind": "fixed", "values": [float("nan"), 1.0]}
        ),
    ],
)
def test_config_rejects_bad_inputs(mutate):
    raw = toy_config()
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_rs_needs_regen_support():
    raw = toy_config(se_method="rs")
    raw["references"][1]["with_regen"] = False
    with pytest.raises(ConfigError, match="with_regen"):
        config_from_dict(raw)
    raw = toy_config(se_method="rs", burn_in=100)
    with pytest.raises(ConfigError, match="burn-in"):
        config_from_dict(raw)


def test_config_label_collision():
    raw = toy_config()
    raw["references"][1] = dict(raw["references"][0])
    with pytest.raises(ConfigError, match="collide"):
        config_from_dict(raw)


def test_config_table_targets_need_table_references():
    raw = toy_config()
    raw["targets"] = {"family": "table", "tables": [[1.0, 1.0]]}
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_from_json_roundtrip(tmp_path):
    path = write_config(tmp_path, toy_config())
    cfg = config_from_json(path)
    assert cfg.master_seed == 7
    with pytest.raises(ConfigError, match="not found"):
        config_from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        config_from_json(bad)


# -------------------------------------------------------------- size splits


def test_split_sizes_passthrough_and_default():
    cfg = config_from_dict(toy_config(targets=None))
    assert split_sizes(cfg) == ((1500, 1500), None)

    cfg = config_from_dict(table_config())
    assert split_sizes(cfg) == ((4000, 4000), (800, 800))

    raw = toy_config()
    raw["stage1"]["sizes"] = [1000, 50]
    n1, n2 = split_sizes(config_from_dict(raw))
    assert n1 == (800, 40) and n2 == (200, 10)

    # the stage-2 share has a floor of 4 draws
    raw["stage1"]["sizes"] = [10, 10]
    n1, n2 = split_sizes(config_from_dict(raw))
    assert n1 == (6, 6) and n2 == (4, 4)

    raw["stage1"]["sizes"] = [7, 100]
    with pytest.raises(ConfigError, match="too small"):
        split_sizes(config_from_dict(raw))


# ------------------------------------------------------------ chain drawing


def test_sample_stage_burn_in_and_thinning():
    raw = toy_config(burn_in=50, thinning=3, targets=None)
    cfg = config_from_dict(raw)
    refs = build_references(cfg)
    samples = sample_stage(cfg, refs, (100, 100), STAGE1_TAG)
    for chain in samples.chains:
        assert chain.states.size == 100
        assert chain.regen_marks is None

    plain = config_from_dict(toy_config(targets=None))
    base = sample_stage(plain, refs, (100, 100), STAGE1_TAG)
    # dropping 50 then keeping every 3rd draw changes the retained states
    assert not np.array_equal(base.chains[0].states, samples.chains[0].states)


def test_sample_stage_seed_separation():
    cfg = config_from_dict(toy_config(targets=None))
    refs = build_references(cfg)
    s1 = sample_stage(cfg, refs, (50, 50), STAGE1_TAG)
    s2 = sample_stage(cfg, refs, (50, 50), STAGE2_TAG)
    r1 = sample_stage(cfg, refs, (50, 50), STAGE1_TAG, rep_index=1)
    assert s1.stage == 1 and s2.stage == 2
    assert not np.array_equal(s1.chains[0].states, s2.chains[0].states)
    assert not np.array_equal(s1.chains[0].states, r1.chains[0].states)


# ------------------------------------------------------------ two-stage run


def test_run_two_stage_deterministic():
    cfg = config_from_dict(toy_config())
    first = run_two_stage(cfg)
    second = run_two_stage(cfg)
    assert np.array_equal(first.ratio_estimate.d_hat, second.ratio_estimate.d_hat)
    assert np.array_equal(first.ratio_estimate.cov_bm, second.ratio_estimate.cov_bm)
    t1, t2 = first.target_results[0], second.target_results[0]
    assert t1.u_hat == t2.u_hat and t1.eta_hat == t2.eta_hat
    varied = run_two_stage(cfg, rep_index=1)
    assert varied.ratio_estimate.d_hat[0] != first.ratio_estimate.d_hat[0]


def test_run_two_stage_records_q():
    cfg = config_from_dict(toy_config())
    result = run_two_stage(cfg)
    n1 = result.stage1_samples.n_total
    n2 = result.stage2_samples.n_total
    assert result.q == pytest.approx(n2 / n1, rel=1e-12)
    assert result.target_results[0].q == pytest.approx(result.q, rel=1e-12)

    frozen = config_from_dict(toy_config(assume_infinite_stage1=True))
    assert run_two_stage(frozen).q == 0.0


def test_run_two_stage_single_reference_snis():
    raw = {
        "references": [{"family": "t", "sampler": "iid", "df": 5.0, "mu": 0.0}],
        "stage1": {"sizes": [2000]},
        "targets": {"family": "t", "df": 5.0, "mu_grid": [0.5]},
        "master_seed": 3,
    }
    result = run_two_stage(config_from_dict(raw))
    assert result.ratio_estimate.d_hat.size == 0
    row = result.target_results[0]
    assert np.isfinite(row.u_hat) and row.se_u > 0
    assert row.var_stage1_u == 0.0
    assert row.eta_hat == pytest.approx(0.5, abs=3 * row.se_eta)


@pytest.mark.parametrize("kind", ["fixed", "inv_dist", "ess"])
def test_stage2_weight_kinds_run(kind):
    raw = toy_config()
    weights = {"kind": kind}
    if kind == "fixed":
        weights["values"] = [0.6, 0.4]
    raw["stage2"] = {"sizes": [300, 300], "weights": weights}
    raw["stage1"]["sizes"] = [1200, 1200]
    result = run_two_stage(config_from_dict(raw))
    row = result.target_results[0]
    assert np.isfinite(row.u_hat) and np.isfinite(row.eta_hat)
    assert row.se_u > 0


def test_stage1_pilot_weights_run():
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": 0.25, "pilot_sizes": [300, 300]}
    result = run_two_stage(config_from_dict(raw))
    assert np.isfinite(result.ratio_estimate.d_hat[0])


def test_stage2_tours_presence():
    cfg = config_from_dict(toy_config())
    result = run_two_stage(cfg)
    tours = stage2_tours(cfg, result)
    assert tours is not None and len(tours) == 2

    raw = toy_config()
    raw["references"][1]["with_regen"] = False
    cfg2 = config_from_dict(raw)
    assert stage2_tours(cfg2, run_two_stage(cfg2)) is None


# ------------------------------------------------------------- replications


def test_run_replications_independent_and_complete():
    raw = toy_config(replications=3, targets=None)
    raw["stage1"]["sizes"] = [500, 500]
    report = run_replications(config_from_dict(raw))
    assert len(report.records) == 3
    assert not report.failures()
    d = report.d_matrix(1000)
    assert d.shape == (3, 1)
    assert len(set(d[:, 0])) == 3
    emp = report.empirical_asym_var(1000)
    assert emp.shape == (1,) and emp[0] > 0


def test_run_replications_workers_agree():
    raw = toy_config(replications=2, targets=None)
    raw["stage1"]["sizes"] = [300, 300]
    serial = run_replications(config_from_dict(raw))
    parallel = run_replications(config_from_dict(dict(raw, workers=2)))
    for a, b in zip(serial.records, parallel.records):
        assert np.array_equal(a.d_hat, b.d_hat)
        assert np.array_equal(a.var_bm, b.var_bm)


def test_run_replications_size_grid():
    raw = toy_config(replications=2, size_grid=[200, 400], targets=None)
    report = run_replications(config_from_dict(raw))
    assert report.sizes() == [400, 800]
    assert all(r.targets is None for r in report.records)
    assert report.d_matrix(400).shape == (2, 1)


def test_run_replications_records_failures():
    raw = toy_config(replications=2, targets=None)
    raw["stage1"]["sizes"] = [3, 3]  # below the batch-means minimum
    report = run_replications(config_from_dict(raw))
    assert len(report.failures()) == 2
    assert "InsufficientDataError" in report.failures()[0].error
    with pytest.raises(ValueError):
        report.empirical_asym_var(6)


def test_replication_report_coverage_requires_truth():
    raw = toy_config(replications=2, targets=None)
    raw["stage1"]["sizes"] = [400, 400]
    report = run_replications(config_from_dict(raw))
    with pytest.raises(ValueError):
        report.coverage_d(800)

    raw["truth"] = {"d": [1.0]}
    report = run_replications(config_from_dict(raw))
    cov = report.coverage_d(800)
    assert cov.shape == (1,) and 0.0 <= cov[0] <= 1.0


def test_replications_csv_long_format(tmp_path):
    raw = toy_config(replications=2)
    raw["stage1"]["sizes"] = [600, 600]
    report = run_replications(config_from_dict(raw))
    path = tmp_path / "replications.csv"
    write_replications_csv(path, report)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "sample_size", "method", "estimate"]
    methods = {r[2] for r in rows[1:]}
    assert "d_hat[2]" in methods and "var_bm[2]" in methods
    assert any(m.startswith("u_hat:") for m in methods)
    assert any(m.startswith("se_eta:") for m in methods)
    reps = {r[0] for r in rows[1:]}
    assert reps == {"0", "1"}
    # every estimate cell must parse as a plain number, with no numpy
    # scalar repr leaking through
    for r in rows[1:]:
        float(r[3])


# ------------------------------------------------------------ table oracles


def test_exact_table_quantities_match_hand_sums():
    cfg = config_from_dict(table_config())
    d_true, u_true, eta_true = exact_table_quantities(cfg)
    np.testing.assert_allclose(d_true, [2.0])
    np.testing.assert_allclose(u_true, [2.0])
    np.testing.assert_allclose(eta_true, [0.5])


def test_exact_table_quantities_identical_tables():
    raw = table_config()
    raw["references"][1]["table"] = [1.0, 1.0]
    d_true, _, _ = exact_table_quantities(config_from_dict(raw))
    np.testing.assert_allclose(d_true, [1.0])


def test_exact_table_quantities_reject_t_family():
    with pytest.raises(ConfigError):
        exact_table_quantities(config_from_dict(toy_config()))


def test_oracle_check_passes_on_tables():
    report = oracle_check(config_from_dict(table_config()))
    assert report.passed
    assert np.all(np.abs(report.z_d) <= 3.0)
    assert np.all(np.abs(report.z_u) <= 3.0)
    assert np.all(np.abs(report.z_eta) <= 3.0)


def test_oracle_check_random_tables():
    """Several random small tables against exhaustive summation."""
    rng = np.random.default_rng(99)
    tables = [list(rng.uniform(0.5, 3.0, size=5)) for _ in range(3)]
    raw = {
        "references": [
            {
                "family": "table",
                "sampler": "mh",
                "table": tables[0],
                "with_regen": True,
                "label": "ref0",
            },
            {
                "family": "table",
                "sampler": "mh",
                "table": tables[1],
                "with_regen": True,
                "label": "ref1",
            },
        ],
        "stage1": {"sizes": [5000, 5000]},
        "stage2": {"sizes": [1000, 1000]},
        "targets": {"family": "table", "tables": [tables[2]]},
        "master_seed": 5,
    }
    report = oracle_check(config_from_dict(raw))
    assert report.passed


# -------------------------------------------------------------------- CLI


def test_cli_estimate_d(tmp_path, capsys):
    path = write_config(tmp_path, toy_config(targets=None))
    code = cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "d[2]" in out
    with open(tmp_path / "o" / "d_estimate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "component",
        "reference_id",
        "d_hat",
        "asym_var",
        "se",
        "method",
        "n",
    ]
    assert rows[1][0] == "d[2]" and rows[1][5] == "bm"


def test_cli_estimate_writes_all_csvs(tmp_path):
    path = write_config(tmp_path, toy_config())
    out = tmp_path / "o"
    assert cli_main(["estimate", "--config", path, "--out", str(out)]) == 0
    with open(out / "targets.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "target_label",
        "u_hat",
        "eta_hat",
        "se_u",
        "se_eta",
        "var_stage1_u",
        "var_stage2_u",
        "var_stage1_eta",
        "var_stage2_eta",
        "q",
        "n",
        "flags",
    ]
    assert rows[1][0] == "t5_mu0.5"
    with open(out / "tours.csv", newline="") as fh:
        tour_rows = list(csv.reader(fh))
    assert tour_rows[0] == ["chain", "tour_index", "V", "U", "T"]
    assert {r[0] for r in tour_rows[1:]} == {"t5_mu1", "t5_mu0"}


def test_cli_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, toy_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["estimate", "--config", path, "--out", str(a)]) == 0
    assert cli_main(["estimate", "--config", path, "--out", str(b)]) == 0
    for name in ("d_estimate.csv", "targets.csv", "tours.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    path = write_config(tmp_path, toy_config(targets=None))
    a, b = tmp_path / "a", tmp_path / "b"
    cli_main(["estimate-d", "--config", path, "--out", str(a)])
    cli_main(["estimate-d", "--config", path, "--out", str(b), "--seed", "99"])
    assert (a / "d_estimate.csv").read_bytes() != (b / "d_estimate.csv").read_bytes()


def test_cli_se_method_override(tmp_path):
    path = write_config(tmp_path, toy_config(targets=None))
    out = tmp_path / "o"
    code = cli_main(
        ["estimate-d", "--config", path, "--out", str(out), "--se-method", "both"]
    )
    assert code == 0
    with open(out / "d_estimate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {r[5] for r in rows[1:]} == {"bm", "rs"}


def test_cli_replicate(tmp_path, capsys):
    raw = toy_config(replications=3, targets=None)
    raw["stage1"]["sizes"] = [400, 400]
    raw["truth"] = {"d": [1.0]}
    path = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli_main(["replicate", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3 successful replications" in text
    assert "coverage" in text
    assert (out / "replications.csv").exists()


def test_cli_pilot_weights(tmp_path, capsys):
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": 0.25, "pilot_sizes": [300, 300]}
    path = write_config(tmp_path, raw)
    assert cli_main(["pilot-weights", "--config", path]) == 0
    assert "optimal weights" in capsys.readouterr().out


def test_cli_replicate_rs_route_reports_coverage(tmp_path, capsys):
    """Without BM variances the summary falls back to the RS ones."""
    raw = toy_config(replications=3, targets=None, se_method="rs")
    raw["stage1"]["sizes"] = [400, 400]
    raw["truth"] = {"d": [1.0]}
    path = write_config(tmp_path, raw)
    assert cli_main(["replicate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    text = capsys.readouterr().out
    assert "median estimated" in text
    assert "coverage: " in text


def test_cli_pilot_weights_are_the_estimators_weights(tmp_path, capsys):
    """pilot-weights reports the weights that stage 1 then uses."""
    raw = toy_config(targets=None, master_seed=11)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": 0.25, "pilot_sizes": [300, 300]}
    path = write_config(tmp_path, raw)
    assert cli_main(["pilot-weights", "--config", path]) == 0
    line = next(
        ln for ln in capsys.readouterr().out.splitlines()
        if ln.startswith("optimal weights: ")
    )
    printed = [float(v) for v in line.split(": ")[1].split(", ")]
    used = run_two_stage(config_from_dict(raw)).ratio_estimate.a
    np.testing.assert_allclose(printed, used, atol=5e-5)


def test_cli_oracle_check(tmp_path, capsys):
    path = write_config(tmp_path, table_config())
    assert cli_main(["oracle-check", "--config", path]) == 0
    assert "oracle check passed" in capsys.readouterr().out


def test_cli_export_chains(tmp_path):
    raw = toy_config()
    raw["stage1"]["sizes"] = [200, 200]
    raw["stage2"] = {"sizes": [50, 50]}
    path = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli_main(["export-chains", "--config", path, "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "chains").iterdir())
    assert files == [
        "stage1_t5_mu0.txt",
        "stage1_t5_mu1.txt",
        "stage2_t5_mu0.txt",
        "stage2_t5_mu1.txt",
    ]
    chain = load_chain(out / "chains" / "stage1_t5_mu0.txt")
    assert chain.states.size == 200 and chain.regen_marks is not None


def test_cli_exit_code_config_error(tmp_path, capsys):
    path = write_config(tmp_path, toy_config(bogus=1))
    assert cli_main(["estimate-d", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli_main(["estimate-d", "--config", str(tmp_path / "nope.json")]) == 2
    # estimate without a targets block is a config error too
    path2 = write_config(tmp_path, toy_config(targets=None), name="t.json")
    assert cli_main(["estimate", "--config", path2]) == 2


@pytest.mark.parametrize(
    "command, stage, values",
    [("estimate-d", "stage1", [0.0, 1.0]), ("estimate", "stage2", [-1.0, 1.0])],
)
def test_cli_fixed_weights_must_be_positive(tmp_path, capsys, command, stage, values):
    """A zero or negative fixed weight is a config error (exit 2), in both
    stages, rather than a traceback from deep inside the estimator."""
    raw = toy_config(stage2={"sizes": [500, 500]})
    raw[stage]["weights"] = {"kind": "fixed", "values": values}
    path = write_config(tmp_path, raw)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{stage}.weights" in err


def test_cli_exit_code_convergence_failure(tmp_path, capsys):
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "pilot_sizes": [3, 3]}
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_cli_exit_code_insufficient_data(tmp_path, capsys):
    raw = toy_config(targets=None)
    raw["stage1"]["sizes"] = [3, 3]
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path]) == 4
    assert "insufficient data" in capsys.readouterr().err


def test_cli_exit_code_estimation_failure(tmp_path, capsys, monkeypatch):
    """An EstimationError without its own code exits 5 with one stderr line."""

    def undefined(cfg, rep_index=0):
        raise UndefinedPointError("all reference densities vanish at a state")

    monkeypatch.setattr(cli, "run_two_stage", undefined)
    path = write_config(tmp_path, toy_config(targets=None))
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("estimation failed: ")
    assert "UndefinedPointError" in err and err.count("\n") == 1



# ------------------------------------------------------------------ package


def test_package_exports_resolve():
    """Every name in genis.__all__ exists, so `from genis import *` works."""
    missing = [name for name in genis.__all__ if not hasattr(genis, name)]
    assert missing == []
    namespace: dict = {}
    exec("from genis import *", namespace)
    assert set(genis.__all__) <= set(namespace)
