"""Config handling, the two-stage driver, replications, and the CLI."""

import ast
import csv
import hashlib
import json
import math
from pathlib import Path

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
    ExperimentConfig,
    ReferenceConfig,
    StageConfig,
    TargetConfig,
    TruthConfig,
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
from genis.weights import DEFAULT_STEP

from conftest import read_chain_file


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
    # pilot weights cannot also weight stage 2, so this config has no targets
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot"}
    cfg = config_from_dict(raw)
    assert cfg.tail_guard == DEFAULT_TAIL_GUARD
    assert cfg.bm_spec == DEFAULT_BM_SPEC
    assert cfg.integrand == "x" and cfg.stage2 is None and cfg.truth is None
    assert cfg.stage1.weights == WeightConfig(kind="pilot")
    assert cfg.stage1.weights.step == DEFAULT_STEP
    assert config_from_dict(toy_config()).targets == TargetConfig(mu_grid=(0.5,))
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
        lambda c: c.update(targets=None, stage1={
            "sizes": [1000, 1000], "weights": {"kind": "pilot", "pilot_sizes": [300]}
        }),
        lambda c: c.update(targets=None, stage1={
            "sizes": [1000, 1000], "weights": {"kind": "pilot", "pilot_sizes": [0, 300]}
        }),
        lambda c: c.update(bm_explicit_b=0),
        lambda c: c.update(bm_explicit_b=-3),
        lambda c: c.update(tail_guard=0),
        lambda c: c.update(tail_guard=-1),
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


def test_shipped_configs_parse_to_expected():
    """configs/toy.json reads to this config, every field spelled out."""
    expected = ExperimentConfig(
        references=(
            ReferenceConfig(
                family="t", sampler="iid", df=5.0, mu=1.0, proposal_df=None,
                proposal_mu=None, table=None, with_regen=False,
                splitting_const=None, label=None,
            ),
            ReferenceConfig(
                family="t", sampler="imh", df=5.0, mu=0.0, proposal_df=5.0,
                proposal_mu=1.0, table=None, with_regen=True,
                splitting_const=None, label=None,
            ),
        ),
        stage1=StageConfig(
            sizes=(100000, 100000),
            weights=WeightConfig(kind="naive", values=None, step=0.05, pilot_sizes=None),
        ),
        stage2=StageConfig(
            sizes=(10000, 10000),
            weights=WeightConfig(kind="naive", values=None, step=0.05, pilot_sizes=None),
        ),
        targets=TargetConfig(
            family="t", df=5.0, mu_grid=(0.0, 0.25, 0.5, 0.75, 1.0), tables=()
        ),
        integrand="x",
        master_seed=1,
        burn_in=0,
        thinning=1,
        bm_nu=0.5,
        bm_explicit_b=None,
        se_method="both",
        assume_infinite_stage1=False,
        replications=1,
        size_grid=(),
        workers=1,
        tail_guard=DEFAULT_TAIL_GUARD,
        truth=TruthConfig(
            d=(1.0,), u=(1.0,) * 5, eta=(0.0, 0.25, 0.5, 0.75, 1.0)
        ),
    )
    cfg = config_from_json(Path(__file__).parents[1] / "configs" / "toy.json")
    assert cfg == expected
    assert all(type(s) is int for s in cfg.stage1.sizes)
    assert type(cfg.references[0].df) is float


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
    """Every stage-2 weight kind runs on a grid that includes the reference
    locations 0 and 1, where inv_dist and ess put all weight on one chain
    (the zero weight was once rejected by the mixture)."""
    raw = toy_config()
    weights = {"kind": kind}
    if kind == "fixed":
        weights["values"] = [0.6, 0.4]
    raw["stage2"] = {"sizes": [300, 300], "weights": weights}
    raw["stage1"]["sizes"] = [1200, 1200]
    raw["targets"]["mu_grid"] = [0.0, 0.5, 1.0]
    result = run_two_stage(config_from_dict(raw))
    for row in result.target_results:
        assert row.flags == ()
        assert np.isfinite(row.u_hat) and np.isfinite(row.eta_hat)
        assert np.isfinite(row.se_u) and np.isfinite(row.se_eta)
    assert result.target_results[1].se_u > 0
    if kind != "fixed":
        # the target is the first reference and takes only its chain: u = 1
        assert result.target_results[2].u_hat == 1.0


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


@pytest.mark.parametrize("command", ["estimate-d", "pilot-weights"])
@pytest.mark.parametrize("step", [0, 1.5, -0.1, 0.7])
def test_cli_bad_pilot_step_is_a_config_error(tmp_path, capsys, command, step):
    """A pilot grid step outside (0, 1), or one that leaves the grid empty
    (0.7 rounds to one step per unit, too few for two positive weights),
    exits 2 naming stage1.weights before any chain is drawn; it used to
    exit 1 with a ValueError traceback from the grid search."""
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": step, "pilot_sizes": [300, 300]}
    path = write_config(tmp_path, raw)
    argv = [command, "--config", path]
    if command == "estimate-d":
        argv += ["--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: stage1.weights: ")
    assert not (tmp_path / "o").exists()


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
    meta, table = read_chain_file(out / "chains" / "stage1_t5_mu0.txt")
    assert meta["n"] == 200 and table.shape == (200, 2)


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


NAN, INF = float("nan"), float("inf")
# (config, block edited, key, bad value, start of the config error message)
BAD_MODEL_VALUES = [
    (toy_config, ("references", 0), "df", 0, "references[0]: df "),
    (toy_config, ("references", 0), "df", -1, "references[0]: df "),
    (toy_config, ("references", 0), "mu", NAN, "references[0]: mu "),
    (toy_config, ("references", 1), "proposal_df", 0, "references[1] proposal: df "),
    (toy_config, ("targets",), "df", 0, "targets: df "),
    (toy_config, ("targets",), "mu_grid", [0.5, 0.5], "targets: target labels "),
    (toy_config, ("references", 1), "splitting_const", 0,
     "references[1]: splitting_const "),
    (toy_config, ("references", 1), "splitting_const", INF,
     "references[1]: splitting_const "),
    (table_config, ("references", 1), "table", [1, -1], "references[1]: table "),
    (table_config, ("references", 0), "table", [0, 0], "references[0]: table "),
    (table_config, ("references", 1), "table", [1, NAN], "references[1]: table "),
    (table_config, ("targets",), "tables", [[1, 1], [0, 0]],
     "targets.tables[1]: table "),
    (toy_config, (), "bm_explicit_b", 0,
     "config: bm_nu, bm_explicit_b: explicit_b "),
    (toy_config, (), "bm_explicit_b", -3,
     "config: bm_nu, bm_explicit_b: explicit_b "),
    (toy_config, (), "tail_guard", 0, "config: tail_guard "),
    (toy_config, (), "tail_guard", -1, "config: tail_guard "),
    (toy_config, (), "tail_guard", 0.5, "config: tail_guard "),
    (toy_config, (), "tail_guard", 1, "config: tail_guard "),
    (toy_config, (), "stage2", {"sizes": [3, 3], "weights": {"kind": "ess"}},
     "stage2.weights: ess weights need at least 4 draws per chain"),
    (toy_config, ("references",), 1, {"family": "table", "sampler": "mh", "table": [1, 2]},
     "config: references must be all t or all table densities"),
]


@pytest.mark.parametrize(
    "base, block, key, value, message",
    BAD_MODEL_VALUES,
    ids=[f"{'.'.join(map(str, b + (k,)))}={v}" for _, b, k, v, _ in BAD_MODEL_VALUES],
)
def test_cli_bad_model_values_are_config_errors(
    tmp_path, capsys, base, block, key, value, message
):
    """Values a density, sampler or batch-means constructor rejects, a
    tail guard of 1 or less, and ess weights on chains too short for batch
    means exit 2 with a message naming the field, not with a traceback
    (exit 1), a run that flags every target row (the largest weight is
    never below the mean) or, for an infinite splitting constant, a chain
    without regenerations (exit 4)."""
    raw = base()
    edited = raw
    for part in block:
        edited = edited[part]
    edited[key] = value
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "o").exists()


# (block edited, key, value of the wrong JSON type, field path in the message)
WRONG_TYPES = [
    (("references", 0), "df", "five", "references[0].df"),
    (("stage1",), "sizes", ["a", 10], "stage1.sizes[0]"),
    ((), "master_seed", "x", "master_seed"),
    (("references", 1), "with_regen", "no", "references[1].with_regen"),
    ((), "assume_infinite_stage1", "false", "assume_infinite_stage1"),
    (("stage1",), "sizes", [1000.7, 1000], "stage1.sizes[0]"),
    (("stage1",), "sizes", [True, 1000], "stage1.sizes[0]"),
    (("targets",), "mu_grid", "01", "targets.mu_grid"),
    (("targets",), "mu_grid", 0.5, "targets.mu_grid"),
    (("references", 0), "label", 3, "references[0].label"),
    (("stage1",), "weights", [1, 2], "stage1.weights"),
]


@pytest.mark.parametrize(
    "block, key, value, path",
    WRONG_TYPES,
    ids=[f"{'.'.join(map(str, b + (k,)))}={v!r}" for b, k, v, _ in WRONG_TYPES],
)
def test_cli_wrong_json_types_are_config_errors(tmp_path, capsys, block, key, value, path):
    """A value of the wrong JSON type exits 2 naming its field, instead of a
    traceback (exit 1), a silent cast ("no" as true, 1000.7 as 1000, "01" as
    two grid points) or a run on the cast value."""
    raw = toy_config()
    edited = raw
    for part in block:
        edited = edited[part]
    edited[key] = value
    config = write_config(tmp_path, raw)
    assert cli_main(["estimate", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: must be ")
    assert not (tmp_path / "o").exists()


def test_config_reader_numbers_nulls_and_required_fields():
    """Integers of any size stay exact, an integral float is an integer and an
    integer a float; a float beyond range, a null where the field is not
    optional, and a missing required field are config errors."""
    raw = toy_config(master_seed=10**400, replications=2.0)
    raw["stage1"]["sizes"] = [1e3, 1000]
    raw["references"][0]["df"] = 5
    cfg = config_from_dict(raw)
    assert cfg.master_seed == 10**400 and cfg.replications == 2
    assert cfg.stage1.sizes == (1000, 1000) and type(cfg.stage1.sizes[0]) is int
    assert cfg.references[0].df == 5.0 and type(cfg.references[0].df) is float
    with pytest.raises(ConfigError, match=r"references\[0\].df: number out of range"):
        config_from_dict(toy_config(references=[dict(raw["references"][0], df=10**400)]))
    raw = toy_config(integrand=None, stage2=None, truth=None)
    assert config_from_dict(raw).integrand is None
    with pytest.raises(ConfigError, match=r"^stage1.weights: must be an object"):
        config_from_dict(toy_config(stage1={"sizes": [10, 10], "weights": None}))
    with pytest.raises(ConfigError, match=r"^references\[0\]: family is required"):
        config_from_dict(toy_config(references=[{"sampler": "iid"}]))


def test_cli_huge_df_reference_converges(tmp_path):
    """A t reference at df = 1e300 carries the normal constant, so stage 1
    converges; the cancelling lgamma form made the fit exit 3."""
    raw = json.loads((Path(__file__).parents[1] / "configs" / "toy.json").read_text())
    raw["references"][0]["df"] = 1e300
    raw["stage1"]["sizes"] = [500, 500]
    out = tmp_path / "o"
    assert cli_main(["estimate-d", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
    with open(out / "d_estimate.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert abs(float(row["d_hat"]) - 1.0) <= 3.0 * float(row["se"])


def test_cli_huge_master_seed_runs(tmp_path):
    """An integer seed beyond float range is read exactly, as before."""
    config = write_config(tmp_path, toy_config(master_seed=10**400))
    assert cli_main(["estimate", "--config", config, "--out", str(tmp_path / "o")]) == 0


# (command, config, stage block, weights) whose weight kind cannot serve
WRONG_STAGE_KINDS = [
    ("replicate", toy_config(targets=None, replications=2), "stage1", {"kind": "inv_dist"}),
    ("estimate-d", toy_config(targets=None), "stage1", {"kind": "ess"}),
    ("estimate", toy_config(), "stage1", {"kind": "pilot"}),
    ("estimate", toy_config(stage2={"sizes": [300, 300]}), "stage2", {"kind": "pilot"}),
    ("estimate", table_config(), "stage2", {"kind": "inv_dist"}),
]


@pytest.mark.parametrize(
    "command, raw, stage, weights",
    WRONG_STAGE_KINDS,
    ids=[f"{c}-{s}-{w['kind']}" for c, _, s, w in WRONG_STAGE_KINDS],
)
def test_cli_weight_kinds_checked_when_read(tmp_path, capsys, command, raw, stage, weights):
    """Stage 1 takes naive, fixed or pilot weights and stage 2 naive, fixed,
    inv_dist or ess (the stage1 block serves both when targets have no stage2
    block).  A kind that cannot serve exits 2 before any chain is drawn and
    writes nothing; it used to fail after sampling, or per replication."""
    raw = json.loads(json.dumps(raw))
    raw[stage]["weights"] = weights
    config = write_config(tmp_path, raw)
    assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{stage}.weights: kind " in err or "inv_dist/ess weights need" in err
    assert not (tmp_path / "o").exists()


def test_cli_exit_code_convergence_failure(tmp_path, capsys):
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "pilot_sizes": [3, 3]}
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_cli_pilot_weights_exits_3_when_every_grid_point_fails(tmp_path, capsys):
    """Three draws per pilot chain are too few for batch means, so every
    grid point fails and the search raises ConvergenceError."""
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": 0.25, "pilot_sizes": [3, 3]}
    path = write_config(tmp_path, raw)
    assert cli_main(["pilot-weights", "--config", path]) == 3
    assert "every grid point failed" in capsys.readouterr().err


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



TOY_JSON = Path(__file__).parents[1] / "configs" / "toy.json"
ORACLE_JSON = Path(__file__).parents[1] / "configs" / "oracle.json"


def _toy_json(**overrides) -> dict:
    raw = json.loads(TOY_JSON.read_text())
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("kind", ["inv_dist", "ess"])
def test_cli_coincident_location_weights_run(tmp_path, kind):
    """configs/toy.json's grid holds the reference locations 0 and 1; with
    inv_dist or ess stage-2 weights the run once exited 1 with a ValueError
    from the mixture."""
    raw = _toy_json(stage1={"sizes": [2000, 2000]})
    raw["stage2"] = {"sizes": [1000, 1000], "weights": {"kind": kind}}
    config = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert cli_main(["estimate", "--config", config, "--out", str(out)]) == 0
    with open(out / "targets.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["flags"] for r in rows] == [""] * 5
    assert rows[-1]["target_label"] == "t5_mu1" and float(rows[-1]["u_hat"]) == 1.0


def _oracle_json(refs=None, targets=None) -> dict:
    raw = json.loads(ORACLE_JSON.read_text())
    raw.update(stage1={"sizes": [2000, 2000]}, stage2={"sizes": [500, 500]})
    for ref, table in zip(raw["references"], refs or ()):
        if table is not None:
            ref["table"] = table
    if targets is not None:
        raw["targets"]["tables"] = targets
    return raw


TABLE_MISMATCHES = {
    # the 5-state first reference's chain visits states the second lacks
    "short_reference": (_oracle_json(refs=[None, [2.0, 1.0, 1.0]]),
                        "config: tables must have one length, up to trailing zeros"),
    # once exit 0 with u_hat 0.87 against the exact 7/6: no reference
    # reaches states 5 and 6
    "wide_target": (_oracle_json(targets=[[1.5, 1.5, 1.0, 2.0, 1.0, 1.0, 1.0]]),
                    "config: tables must have one length, up to trailing zeros"),
    "target_mass_off_support": (
        _oracle_json(refs=[[1.0, 0.0, 0.5, 1.5, 1.0], [2.0, 0.0, 1.0, 0.5, 2.5]]),
        "targets.tables[0]: states [1] have mass under the target but under no "
        "reference",
    ),
}


@pytest.mark.parametrize("case", sorted(TABLE_MISMATCHES))
def test_cli_tables_share_one_state_space(tmp_path, capsys, case):
    """Tables of different lengths, or a target with mass where every
    reference vanishes, exit 2 when the config is read: they once exited 1
    with a ValueError, or 0 with a wrong answer."""
    raw, message = TABLE_MISMATCHES[case]
    config = write_config(tmp_path, raw)
    assert cli_main(["estimate", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    for command in ("oracle-check", "replicate"):
        assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_cli_tables_may_differ_by_trailing_zeros(tmp_path):
    """A target table padded with a zero-mass state reads the same state
    space, so the run writes the bytes of the unpadded one."""
    outputs = []
    for pad in ([], [0.0]):
        raw = _oracle_json(targets=[[1.5, 1.5, 1.0, 2.0, 1.0] + pad])
        config = write_config(tmp_path, raw)
        out = tmp_path / f"o{len(pad)}"
        assert cli_main(["estimate", "--config", config, "--out", str(out)]) == 0
        outputs.append([(out / n).read_bytes() for n in ("d_estimate.csv", "targets.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("ref", [0, 1], ids=["iid", "imh"])
def test_cli_overflowing_t_draws_are_invalid_models(tmp_path, capsys, ref):
    """With df = 1e-3 standard_t overflows to +-inf.  An iid reference once
    exited 1 with a ValueError from the chain container; both samplers now
    raise InvalidModelError (exit 5)."""
    raw = toy_config()
    raw["references"][ref]["df"] = 1e-3
    if ref == 1:
        raw["references"][ref]["proposal_df"] = None  # the target's df
    config = write_config(tmp_path, raw)
    assert cli_main(["estimate", "--config", config, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("estimation failed: InvalidModelError: ")


def test_cli_overrides_are_validated_with_the_config(tmp_path, capsys):
    """--se-method is checked by the config rules it can break: a chain
    without regeneration marks, or burn-in, under RS is exit 2 (the
    override once came after the checks and the run exited 1 with a
    ValueError)."""
    no_marks = _toy_json(se_method="bm")
    no_marks["references"][1]["with_regen"] = False
    cases = (
        ("estimate", no_marks, "rs", "config error: references[1]: regenerative SEs"),
        ("estimate-d", _toy_json(se_method="bm", burn_in=10), "both",
         "config error: regenerative standard errors are incompatible"),
    )
    for command, raw, method, message in cases:
        config = write_config(tmp_path, raw)
        out = tmp_path / "o"
        args = [command, "--config", config, "--out", str(out), "--se-method", method]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


def test_cli_assume_infinite_stage1_override(tmp_path):
    config = write_config(tmp_path, toy_config())
    out = tmp_path / "o"
    args = ["estimate", "--config", config, "--out", str(out), "--assume-infinite-stage1"]
    assert cli_main(args) == 0
    with open(out / "targets.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["q"], r["var_stage1_u"]) for r in rows] == [("0.0", "0.0")]


def test_negative_master_seed_is_a_config_error(tmp_path, capsys):
    """From the config file or from --seed, a negative seed is exit 2 naming
    the field (it was exit 1 with numpy's SeedSequence ValueError)."""
    cases = ((toy_config(master_seed=-5), []), (toy_config(), ["--seed", "-5"]))
    for raw, extra in cases:
        config = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert cli_main(["estimate", "--config", config, "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: master_seed must be nonnegative")
        assert not out.exists()


# sha256 of the CSVs that `genis estimate --seed 1` writes for configs/toy.json,
# recorded from the csv.writer-per-row writers with numpy 2.4 and its OpenBLAS
# 0.3.31 wheel on x86-64
TOY_CSV_SHA256 = {
    "d_estimate.csv": "9e13deeef4e5dc35471b8653d0a09c6ef9cd9d08d4b93daa75317f561a383775",
    "targets.csv": "034180ca38a814fcc4d2275dff9436a069bc7f3df94e4ff749de70cb57e8dc29",
    "tours.csv": "3ac5fc3a6a4d361bdf8e7fcc1785d1873d4847e282a9919bd606432cb2feda00",
}


def test_cli_toy_csvs_match_the_recorded_bytes(tmp_path):
    """The writers' bytes are unchanged.  d_estimate.csv and targets.csv also
    carry the rounding of the Newton steps and of BLAS dot products, so on
    another CPU or BLAS build their digests may differ with no change to the
    code; there, compare the CSVs with those of the previous commit instead."""
    out = tmp_path / "o"
    args = ["estimate", "--config", str(TOY_JSON), "--seed", "1", "--out", str(out)]
    assert cli_main(args) == 0
    got = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in TOY_CSV_SHA256}
    assert got == TOY_CSV_SHA256


@pytest.mark.parametrize(
    "integrand, digest, first",
    [
        ("x", "42eb05c02502ced8a38fda21f30e7a53c766c93524ca53ffa115d8bc2396095f",
         b'"imh, ""zero""",0,1.2891698690250806,5.539160589712195,5\r\n'),
        (None, "3dffc970322d3d2ddc2b42b500a6c32f733b0e1dbd6609fe30d5201097be0860",
         b'"imh, ""zero""",0,,5.539160589712195,5\r\n'),
    ],
)
def test_tours_csv_quotes_labels_as_csv_does(tmp_path, integrand, digest, first):
    """A label with a comma and a double quote is quoted as csv.writer quotes
    it; the bytes were recorded from the csv.writer-per-row writer."""
    raw = toy_config(stage2={"sizes": [300, 300]}, integrand=integrand)
    raw["references"][1]["label"] = 'imh, "zero"'
    out = tmp_path / "o"
    assert cli_main(["estimate", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    data = (out / "tours.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert first in data and data.endswith(b"\r\n")
    with open(out / "tours.csv", newline="") as fh:
        assert {r[0] for r in list(csv.reader(fh))[1:]} == {"t5_mu1", 'imh, "zero"'}


# ------------------------------------------------------------------ package


def test_package_exports_resolve():
    """Every name in genis.__all__ exists, so `from genis import *` works."""
    missing = [name for name in genis.__all__ if not hasattr(genis, name)]
    assert missing == []
    namespace: dict = {}
    exec("from genis import *", namespace)
    assert set(genis.__all__) <= set(namespace)


def _names_used(node) -> set[str]:
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.rpartition(".")[2])
    return used


def test_every_module_definition_has_a_non_test_caller():
    """Each top-level function and class in src/genis is used outside its
    own definition by src/genis, scripts/ or bench/; a use only by tests,
    or a re-export from genis/__init__.py, does not count."""
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "genis").glob("[!_]*.py"))
    callers = package + sorted((root / "scripts").glob("*.py"))
    callers += sorted((root / "bench").glob("*.py"))
    modules = {path: ast.parse(path.read_text()).body for path in callers}
    used_by_file = {
        path: [_names_used(stmt) for stmt in body] for path, body in modules.items()
    }
    unused = []
    for path in package:
        for i, stmt in enumerate(modules[path]):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            used = any(
                name in names
                for other, per_stmt in used_by_file.items()
                for j, names in enumerate(per_stmt)
                if other != path or j != i
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"no caller outside the tests: {unused}"


# defaulted parameters that only tests set
SET_ONLY_BY_TESTS = {
    # the seam through which tests pass fixed grids (a tie-break, a single
    # point, every point failing); the pipeline searches the simplex grid
    "pilot_optimal_weights.grid",
}


def _defaulted_params(tree):
    """(callee name, parameter, positional index or None) for each defaulted
    parameter of a top-level function or of a method of a top-level class.
    A method's index skips self or cls, and a class call counts for
    __init__.  Nested functions, the closures that bind values as
    defaults, are not visited."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            defs.append((stmt.name, stmt, 0))
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    name = stmt.name if item.name == "__init__" else item.name
                    defs.append((name, item, 0 if static else 1))
    for name, fn, skip in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _calls(tree):
    """(callee name, keyword names, positional count) of every call; a
    starred argument may fill any position or keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {kw.arg for kw in node.keywords}
        npos = math.inf if starred else len(node.args)
        yield name, keywords, npos


def test_every_defaulted_parameter_is_set_by_a_non_test_caller():
    """Each defaulted parameter in src/genis is passed, by keyword or by
    position, by some call in src/genis, scripts/ or bench/; a parameter
    that only tests set is a knob without a user and belongs in a constant."""
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "genis").glob("*.py"))
    callers = package + sorted((root / "scripts").glob("*.py"))
    callers += sorted((root / "bench").glob("*.py"))
    calls: dict[str, list] = {}
    for path in callers:
        for name, keywords, npos in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((keywords, npos))
    unset = []
    for path in package:
        for name, param, index in _defaulted_params(ast.parse(path.read_text())):
            is_set = any(
                param in keywords or None in keywords
                or (index is not None and npos > index)
                for keywords, npos in calls.get(name, ())
            )
            if not is_set and f"{name}.{param}" not in SET_ONLY_BY_TESTS:
                unset.append(f"{path.stem}.{name}.{param}")
    assert not unset, f"defaulted parameters set only by tests: {unset}"
