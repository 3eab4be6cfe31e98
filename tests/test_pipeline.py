"""Config handling, the two-stage driver, replications, and the CLI."""

import ast
import csv
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import genis
from genis import cli, pipeline, weights
from genis.batch_means import DEFAULT_BM_SPEC
from genis.cli import main as cli_main
from genis.errors import ConfigError, UndefinedPointError
from genis.importance import DEFAULT_TAIL_GUARD
from genis.pipeline import (
    STAGE1_TAG,
    STAGE2_TAG,
    Z_95,
    ExperimentConfig,
    ReferenceConfig,
    StageConfig,
    TargetConfig,
    TruthConfig,
    WeightConfig,
    build_references,
    config_from_dict,
    config_from_json,
    exact_truth,
    run_replications,
    run_two_stage,
    sample_stage,
    split_sizes,
    stage2_tours,
    truth_rows,
    write_replications_csv,
    z_score,
)
from genis.weights import DEFAULT_STEP

from conftest import byte_check_message, read_chain_file


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


@pytest.mark.parametrize("burn_in, thinning", [(50, 1), (0, 3), (50, 3)])
def test_sample_stage_keeps_only_the_retained_draws(burn_in, thinning):
    """Burnt-in or thinned states are a contiguous array of their own: a
    view would hold the whole raw chain and feed BLAS a strided vector,
    whose dot products round differently."""
    cfg = config_from_dict(toy_config(burn_in=burn_in, thinning=thinning, targets=None))
    for chain in sample_stage(cfg, build_references(cfg), (100, 100), STAGE1_TAG).chains:
        assert chain.states.flags.c_contiguous
        assert chain.states.flags.owndata


def test_sample_stage_seed_separation():
    cfg = config_from_dict(toy_config(targets=None))
    refs = build_references(cfg)
    s1 = sample_stage(cfg, refs, (50, 50), STAGE1_TAG)
    s2 = sample_stage(cfg, refs, (50, 50), STAGE2_TAG)
    r1 = sample_stage(cfg, refs, (50, 50), STAGE1_TAG, rep_index=1)
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
        assert np.array_equal(a.estimate.d_hat, b.estimate.d_hat)
        assert np.array_equal(a.estimate.cov_bm, b.estimate.cov_bm)


def test_run_replications_workers_start_clean(monkeypatch):
    """Pool workers are spawned, so they start from a fresh import: a
    forked worker would inherit the parent's state, here a patched
    run_two_stage, and in general a process with BLAS threads, whose fork
    Python 3.12 warns about."""
    raw = toy_config(replications=2, targets=None, workers=2)
    raw["stage1"]["sizes"] = [300, 300]
    expected = run_replications(config_from_dict(dict(raw, workers=1)))

    def refuse(cfg, rep_index=0):
        raise RuntimeError("run_two_stage ran with the parent's patch")

    monkeypatch.setattr(pipeline, "run_two_stage", refuse)
    report = run_replications(config_from_dict(raw))
    assert not report.failures()
    for a, b in zip(expected.records, report.records):
        assert np.array_equal(a.estimate.d_hat, b.estimate.d_hat)


def test_weight_comparison_script_runs(tmp_path):
    """scripts/weight_comparison.py end to end at a tiny size."""
    script = Path(__file__).parents[1] / "scripts" / "weight_comparison.py"
    run = subprocess.run(
        [sys.executable, "-W", "error", str(script),
         "--reps", "4", "--size", "500", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "pooled / tilted variance ratio: " in run.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "replications_pooled.csv", "replications_tilted.csv"]


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
        report.coverage(800)

    raw["truth"] = {"d": [1.0]}
    report = run_replications(config_from_dict(raw))
    cov = report.coverage(800)
    assert list(cov) == ["d[2]"] and 0.0 <= cov["d[2]"] <= 1.0


def test_replication_report_coverage_of_target_values():
    """Coverage is reported for every value the truth lists, u and the
    mean per target, by the same interval rule as the ratios."""
    raw = toy_config(replications=2, truth={"u": [1.0], "eta": [0.5]})
    raw["stage1"]["sizes"] = [600, 600]
    report = run_replications(config_from_dict(raw))
    cov = report.coverage(960)
    assert list(cov) == ["u:t5_mu0.5", "mean:t5_mu0.5"]
    rows = [r.targets[0] for r in report.at_size(960)]
    expect = np.mean([abs(r.eta_hat - 0.5) <= Z_95 * r.se_eta for r in rows])
    assert cov["mean:t5_mu0.5"] == expect


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


def _oracle_z(raw) -> dict:
    """z per label of a run against the config's exact truth."""
    cfg = config_from_dict(raw)
    result = run_two_stage(cfg)
    rows = truth_rows(exact_truth(cfg), result.ratio_estimate, result.target_results)
    return {label: z_score(est, truth, se) for label, truth, est, se in rows}


def test_exact_truth_matches_hand_sums():
    cfg = config_from_dict(table_config())
    assert exact_truth(cfg) == TruthConfig(d=(2.0,), u=(2.0,), eta=(0.5,))


def test_exact_truth_identical_tables():
    raw = table_config()
    raw["references"][1]["table"] = [1.0, 1.0]
    assert exact_truth(config_from_dict(raw)).d == (1.0,)


def test_exact_truth_of_t_configs():
    """t densities are normalized: every d and u is 1 and eta is mu, which
    exists only for df > 1; t targets over tables are refused when read."""
    assert exact_truth(config_from_dict(toy_config())) == TruthConfig(
        d=(1.0,), u=(1.0,), eta=(0.5,)
    )
    raw = toy_config(targets={"family": "t", "df": 1.0, "mu_grid": [0.5, 2.0]})
    assert exact_truth(config_from_dict(raw)) == TruthConfig(d=(1.0,), u=(1.0, 1.0))
    assert exact_truth(config_from_dict(toy_config(targets=None))) == TruthConfig(d=(1.0,))
    raw = table_config(targets={"family": "t", "df": 5.0, "mu_grid": [0.5]})
    with pytest.raises(ConfigError, match="config: t targets need t references"):
        config_from_dict(raw)


def test_z_score_rule():
    """se > 0 divides; at se = 0 an exact estimate is 0 and any other is
    +-inf (a wrong estimate once read z = 0 there); NaN stays NaN."""
    assert z_score(1.5, 1.0, 0.25) == 2.0
    assert z_score(1.0, 1.0, 0.0) == 0.0
    assert z_score(0.5, 1.0, 0.0) == -math.inf
    assert z_score(2.0, 1.0, 0.0) == math.inf
    assert math.isnan(z_score(math.nan, 1.0, 0.0))
    assert math.isnan(z_score(math.nan, 1.0, 0.1))
    assert math.isnan(z_score(1.0, 1.0, math.nan))


def test_truth_gate_fails_on_zero_se_and_nan(capsys):
    """The oracle gate takes each |z|: an exact estimate with se 0 passes,
    a wrong one fails, and so does a NaN (max() over |z| would skip it)."""
    truth = TruthConfig(d=(1.0,), u=(1.0,))
    row = SimpleNamespace(target_label="t", u_hat=math.nan, se_u=0.1, eta_hat=None)
    assert cli._print_truth(truth, SimpleNamespace(d_hat=[1.0], se=[0.0]), None)
    assert not cli._print_truth(truth, SimpleNamespace(d_hat=[2.0], se=[0.0]), None)
    assert not cli._print_truth(truth, SimpleNamespace(d_hat=[1.0], se=[0.1]), [row])
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "d[2]: true 1, estimate 1, z +0.000",
        "t: u true 1, estimate nan, z +nan",
    ]


def test_oracle_check_passes_on_tables():
    z = _oracle_z(table_config())
    assert sorted(z) == ["d[2]", "mean:target0", "u:target0"]
    assert all(abs(v) <= 3.0 for v in z.values())


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
    z = _oracle_z(raw)
    assert len(z) == 3 and all(abs(v) <= 3.0 for v in z.values())


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
@pytest.mark.parametrize("step", [0, 1.5, -0.1, 0.7, 1e-310, 5e-324, 1e-6])
def test_cli_bad_pilot_step_is_a_config_error(tmp_path, capsys, command, step):
    """A pilot grid step outside (0, 1), one that leaves the grid empty
    (0.7 rounds to one step per unit, too few for two positive weights), or
    one finer than the grid's bound exits 2 naming stage1.weights before any
    chain is drawn.  Steps outside (0, 1) or leaving the grid empty used to
    exit 1 with a ValueError traceback from the grid search, and subnormal
    steps, whose 1/step is inf, with an OverflowError from rounding it."""
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "pilot", "step": step, "pilot_sizes": [300, 300]}
    path = write_config(tmp_path, raw)
    argv = [command, "--config", path]
    if command == "estimate-d":
        argv += ["--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: stage1.weights: ")
    assert not (tmp_path / "o").exists()


_BAD_SIZES = "config error: stage1.weights: pilot_sizes must list one positive size per reference"


@pytest.mark.parametrize("pilot, err", [
    pytest.param({"step": 0}, "config error: stage1.weights: ", id="0"),
    pytest.param({"step": 0.7}, "config error: stage1.weights: ", id="0.7"),
    pytest.param({"pilot_sizes": [0, 300]}, _BAD_SIZES, id="sizes-0-300"),
    pytest.param({"pilot_sizes": [-5, 300]}, _BAD_SIZES, id="sizes-neg5-300"),
    pytest.param({"pilot_sizes": [300]}, _BAD_SIZES, id="sizes-300"),
    pytest.param({"pilot_sizes": [300, 300, 300]}, _BAD_SIZES, id="sizes-300-300-300"),
])
def test_cli_pilot_weights_checks_the_step_whatever_the_kind(tmp_path, capsys, pilot, err):
    """pilot-weights searches the stage-1 grid on pilot chains even for
    weights of another kind, whose step and pilot_sizes are not checked
    when the config is read; a bad step once ended there in a ValueError
    traceback (exit 1), as did a nonpositive size or too few sizes, and
    too many sizes printed a size for a chain that does not exist."""
    raw = toy_config(targets=None)
    raw["stage1"]["weights"] = {"kind": "naive", **pilot}
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert cli_main(["pilot-weights", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(err)


def _three_t_pilot(step) -> dict:
    refs = [{"family": "t", "sampler": "iid", "df": 5.0, "mu": mu} for mu in (0.0, 1.0, 2.0)]
    weights_block = {"kind": "pilot", "step": step, "pilot_sizes": [200, 200, 200]}
    return {"references": refs, "stage1": {"sizes": [300, 300, 300], "weights": weights_block},
            "master_seed": 5}


def test_reading_a_pilot_config_lists_no_grid_point(tmp_path, monkeypatch, capsys):
    """At k = 3 and step 0.005 the pilot grid has C(199, 2) = 19,701 points.
    Reading the config and exporting its chains check the step, the grid's
    emptiness and its size without listing one: the config reader once
    listed the whole grid to learn that it was nonempty.  At step 1e-4 the
    grid would have C(9999, 2), about 5e7, points, which the bound refuses
    by their count."""
    def refuse(pool, r):
        raise AssertionError("the pilot grid was listed")

    monkeypatch.setattr(weights, "combinations", refuse)
    raw = _three_t_pilot(0.005)
    assert config_from_dict(raw).stage1.weights.step == 0.005
    out = tmp_path / "o"
    path = write_config(tmp_path, raw)
    assert cli_main(["export-chains", "--config", path, "--out", str(out)]) == 0
    assert len(list((out / "chains").iterdir())) == 3
    path = write_config(tmp_path, _three_t_pilot(1e-4), name="fine.json")
    assert cli_main(["export-chains", "--config", path, "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == ("config error: stage1.weights: step 0.0001 gives "
                                       "49985001 grid points for 3 references, more than 100000\n")
    assert not (tmp_path / "f").exists()
    # an empty grid is still a config error with its own text, exit 2
    path = write_config(tmp_path, _three_t_pilot(0.4), name="empty.json")
    assert cli_main(["export-chains", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: stage1.weights: step 0.4 leaves an empty weight grid for 3 references\n")


@pytest.mark.parametrize("where, command", [
    ("targets", "estimate"),
    ("references[1] proposal", "export-chains"),
    ("references[0]", "export-chains"),
])
def test_cli_df_whose_half_underflows_is_a_config_error(tmp_path, capsys, where, command):
    """At df = 5e-324 the half df underflows to 0, where lgamma has a pole,
    so a t density has no normalizing constant.  Such a targets.df or imh
    proposal_df once exited 1 with "math domain error" from the target
    sweep or the proposal draws, and a reference df exited 5 when its iid
    draws overflowed; each now exits 2 naming its field, before any chain
    is drawn."""
    raw = toy_config()
    if where == "targets":
        raw["targets"]["df"] = 5e-324
    elif where.endswith("proposal"):
        raw["references"][1]["proposal_df"] = 5e-324
    else:
        raw["references"][0]["df"] = 5e-324
    path = write_config(tmp_path, raw)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {where}: df 5e-324 must be positive and finite, with a nonzero half\n")
    assert not (tmp_path / "o").exists()


def test_cli_oracle_check(tmp_path, capsys):
    path = write_config(tmp_path, table_config())
    assert cli_main(["oracle-check", "--config", path]) == 0
    assert "oracle check passed" in capsys.readouterr().out


def test_cli_oracle_check_runs_on_t_configs(capsys):
    """t densities are normalized, so a t config has exact truth too (it
    exited 2 as tables-only); configs/toy.json checks 11 values."""
    assert cli_main(["oracle-check", "--config", str(TOY_JSON)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.count(" z ") for line in lines) == 11
    assert lines[-1] == "oracle check passed (all |z| <= 3)"


def test_cli_estimate_prints_z_against_the_truth_block(tmp_path, capsys):
    """With a truth block, estimate and estimate-d print each value against
    it in the oracle's format; the CSVs are the same as without it."""
    outputs = []
    for truth in (None, {"d": [1.0], "u": [1.0], "eta": [0.5]}):
        path = write_config(tmp_path, toy_config(truth=truth))
        out = tmp_path / f"o{truth is None}"
        assert cli_main(["estimate", "--config", path, "--out", str(out)]) == 0
        outputs.append([(out / n).read_bytes() for n in ("d_estimate.csv", "targets.csv")])
    assert outputs[0] == outputs[1]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("d[2]: true 1, estimate ")
    assert lines[-2].startswith("t5_mu0.5: u true 1, estimate ")
    assert "; mean true 0.5, estimate " in lines[-2]
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "d")]) == 0
    assert capsys.readouterr().out.splitlines()[-2].startswith("d[2]: true 1, estimate ")


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
    """Too few draws for batch means exit 4; so does a splitting constant of
    1e-300 on the regenerative route, which leaves the imh chain with only
    its first mark, and the message names that chain."""
    raw = toy_config(targets=None)
    raw["stage1"]["sizes"] = [3, 3]
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path]) == 4
    assert "insufficient data" in capsys.readouterr().err
    raw = toy_config(targets=None, se_method="rs")
    raw["stage1"]["sizes"] = [500, 500]
    raw["references"][1]["splitting_const"] = 1e-300
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "insufficient data: chain 't5_mu0': fewer than two regeneration marks\n"
    )


DISJOINT_TABLES = {
    "references": [
        {"family": "table", "sampler": "mh", "table": [1.0, 2.0, 0.0, 0.0]},
        {"family": "table", "sampler": "mh", "table": [0.0, 0.0, 3.0, 4.0]},
    ],
    "stage1": {"sizes": [2000, 2000]},
}
PILOT_WEIGHTS = {"kind": "pilot", "step": 0.25, "pilot_sizes": [300, 300]}


@pytest.mark.parametrize("weights", [None, PILOT_WEIGHTS], ids=["naive", "pilot"])
def test_cli_references_without_overlap_exit_4(tmp_path, capsys, weights):
    """No draw has mass under both tables, so the ratio (7/3) is not
    identified: the fit once stopped at zeta = 0 and exited 0 with d 1 and
    se 0, and the pilot search exited 3 after every grid point failed."""
    raw = json.loads(json.dumps(DISJOINT_TABLES))
    if weights is not None:
        raw["stage1"]["weights"] = weights
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "o")]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "o" / "d_estimate.csv").exists()
    assert captured.err == (
        "insufficient data: no draw has mass under a reference of ['table0'] and "
        "one of ['table1'], so the ratios between the two groups are not identified\n"
    )


def test_cli_far_apart_t_references_exit_4(tmp_path, capsys):
    """iid t5 references at mu = +-1e308: each one's density underflows at
    the other's draws.  The run once exited 0 with d 1 and se 0 after an
    overflow RuntimeWarning, which this suite raises as an error."""
    ref = {"family": "t", "sampler": "iid", "df": 5.0}
    raw = {"references": [dict(ref, mu=1e308), dict(ref, mu=-1e308)],
           "stage1": {"sizes": [2000, 2000]}}
    path = write_config(tmp_path, raw)
    assert cli_main(["estimate-d", "--config", path, "--out", str(tmp_path / "o")]) == 4
    assert "are not identified" in capsys.readouterr().err


def test_cli_stage2_tours_failure_writes_nothing(tmp_path, capsys):
    """A stage-2 imh chain with fewer than two regeneration marks exits 4
    before any row is printed or CSV written; both once came first."""
    raw = _toy_json(stage1={"sizes": [2000, 2000]}, stage2={"sizes": [1000, 1000]},
                    se_method="bm")
    raw["references"][1]["splitting_const"] = 1e-300
    out = tmp_path / "o"
    assert cli_main(["estimate", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "insufficient data: chain 't5_mu0': fewer than two regeneration marks\n"
    )
    assert list(out.glob("*.csv")) == []


def test_cli_overflowing_tour_sums_leave_out_only_tours_csv(tmp_path, capsys):
    """A stage-2 chain at 1e308 overflows the tour sums of the first target.
    As in estimate_family, where the same overflow flags that target's row,
    the run writes d_estimate.csv and targets.csv, says on stderr that
    tours.csv was not written, and exits 0; it once exited 5 with no file."""
    raw = {"references": [{"family": "t", "sampler": "iid", "df": 0.05, "mu": 1e308}],
           "stage1": {"sizes": [50]}, "stage2": {"sizes": [50]},
           "targets": {"family": "t", "df": 1.0, "mu_grid": [1e308, 0.0]},
           "master_seed": 214}
    out = tmp_path / "o"
    assert cli_main(["estimate", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("tours.csv not written: importance weights or their tour "
                            "sums overflow for target 't1_mu1e+308'\n")
    assert sorted(p.name for p in out.iterdir()) == ["d_estimate.csv", "targets.csv"]
    assert "tours.csv" not in captured.out


@pytest.mark.parametrize("command", ["estimate-d", "pilot-weights"])
def test_cli_pilot_state_where_every_reference_vanishes_exits_5(tmp_path, capsys, command):
    """A df-1e-3 pilot draw where both t densities underflow: the pilot
    raises the single fit's UndefinedPointError (exit 5); it once replayed
    the error at every grid point and exited 3."""
    raw = {"references": [{"family": "t", "sampler": "iid", "df": 0.001, "mu": 0.0},
                          {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0}],
           "stage1": {"sizes": [1, 1], "weights": {"kind": "pilot", "step": 0.25,
                                                   "pilot_sizes": [2, 2]}},
           "master_seed": 620}
    path = write_config(tmp_path, raw)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err == (
        "estimation failed: UndefinedPointError: all reference densities vanish at a state\n")


THIRD_REF = {"family": "t", "sampler": "iid", "df": 5.0, "mu": 2.0}
TRUTH_MISMATCHES = {
    # once a numpy broadcasting traceback with exit 1
    "d-per-reference": (3, {"d": [1.0, 1.0, 1.0]}, "truth.d"),
    # once exit 0 with a coverage of 0.000 for a ratio that does not exist
    "d-extra-value": (2, {"d": [1.0, 2.0]}, "truth.d"),
    "u-without-targets": (2, {"u": [1.0]}, "truth.u"),
    "eta-per-target": (2, {"eta": [0.0, 0.5]}, "truth.eta"),
}


@pytest.mark.parametrize("case", sorted(TRUTH_MISMATCHES))
def test_cli_truth_lengths_are_checked_when_read(tmp_path, capsys, case):
    """truth.d has one value per reference after the first; truth.u and
    truth.eta need a targets block and one value per target."""
    k, truth, where = TRUTH_MISMATCHES[case]
    raw = toy_config(replications=2, truth=truth)
    raw["references"] = (raw["references"] + [THIRD_REF])[:k]
    raw["stage1"]["sizes"] = [300] * k
    if case == "u-without-targets":
        del raw["targets"]
    path = write_config(tmp_path, raw)
    assert cli_main(["replicate", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {where}: ")


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


def _scaled_oracle(tmp_path, scale, target_too):
    """oracle-check on configs/oracle.json with the second reference's
    table, and the target's when target_too, multiplied by scale."""
    raw = json.loads(ORACLE_JSON.read_text())
    tables = [raw["references"][1]["table"]] + (raw["targets"]["tables"] if target_too else [])
    for table in tables:
        table[:] = [scale * v for v in table]
    return cli_main(["oracle-check", "--config", write_config(tmp_path, raw)])


def test_oracle_check_holds_at_any_scale_of_the_reference_constants(tmp_path, capsys):
    """The chains do not depend on the tables' scale, so every z-score is
    that of the run at 1e-8.  From zeta = 0 the unbounded Newton step once
    overshot so far that no line search recovered (exit 3) at each of
    these scales; with the step capped, the fit converges wherever the
    ratios stay in float range, and a ratio whose square leaves it, so
    that its covariance cannot be formed, exits 5 instead of printing se 0."""
    assert _scaled_oracle(tmp_path, 1e-8, True) == 0
    z_scores = re.findall(r"z ([^;\s]+)", capsys.readouterr().out)
    assert len(z_scores) == 3
    for scale, target_too in ((1e-40, True), (1e-120, True), (1e100, False)):
        assert _scaled_oracle(tmp_path, scale, target_too) == 0
        assert re.findall(r"z ([^;\s]+)", capsys.readouterr().out) == z_scores
    for scale, target_too in ((1e-200, True), (1e160, False)):
        assert _scaled_oracle(tmp_path, scale, target_too) == 5
        assert capsys.readouterr().err == (
            "estimation failed: DegenerateDenominatorError: "
            "ratio estimates or their covariance leave float range\n")


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


def test_cli_t_targets_over_tables_exit_2(tmp_path, capsys):
    """A t density summed over a table's integer states estimates no ratio
    of normalizing constants: estimate and replicate once exited 0 with one
    (u 0.168 at mu = 2), while oracle-check refused it.  Every command now
    refuses it when the config is read."""
    config = write_config(tmp_path, _oracle_json() | {
        "targets": {"family": "t", "df": 5.0, "mu_grid": [2.0]}})
    for command in ("estimate", "replicate", "oracle-check"):
        assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: config: t targets need t references\n")
    assert not (tmp_path / "o").exists()


# an imh chain of three draws from a near-normal t whose proposal sits 50
# away, beside a Cauchy one: the reduced Hessian is numerically singular
SINGULAR_HESSIAN = {
    "references": [
        {"family": "t", "sampler": "imh", "df": 1e300, "mu": 0.0, "proposal_mu": 50.0},
        {"family": "t", "sampler": "imh", "df": 1.0, "mu": 0.0, "proposal_df": 1.0,
         "proposal_mu": 50.0, "label": "a"},
    ],
    "stage1": {"sizes": [3, 3]},
    "thinning": 3,
}
# a near-normal t at 30 drawn near 1: every weight is finite, but their
# batch means overflow
OVERFLOWING_WEIGHTS = {
    "references": [{"family": "t", "sampler": "imh", "df": 1e300, "mu": 30.0,
                    "proposal_mu": 1.0}],
    "stage1": {"sizes": [400]},
    "targets": {"mu_grid": [0.0]},
    "master_seed": 81,
}


def test_cli_values_out_of_float_range_end_in_documented_codes(tmp_path, capsys):
    """Each of these once warned (an error under this suite) and went on
    with inf or NaN.  A Newton step that overflows is a convergence failure,
    pilot grid points whose ratios leave float range are skipped, and a
    target whose variance overflows gets an error row."""
    out = str(tmp_path / "o")
    config = write_config(tmp_path, SINGULAR_HESSIAN)
    assert cli_main(["estimate-d", "--config", config, "--out", out]) == 3
    assert "Newton step overflows" in capsys.readouterr().err
    assert cli_main(["pilot-weights", "--config", config, "--out", out]) == 0
    config = write_config(tmp_path, OVERFLOWING_WEIGHTS)
    assert cli_main(["estimate", "--config", config, "--out", out]) == 0
    assert "[error:DegenerateDenominatorError]" in capsys.readouterr().out


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
    assert hashlib.sha256(data).hexdigest() == digest, byte_check_message("tours.csv")
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


def _self_assignments(method):
    """Names of the attributes that `method` assigns on self."""
    for n in ast.walk(method):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            if isinstance(n.value, ast.Name) and n.value.id == "self":
                yield n.attr


def _class_members(tree):
    """(class, member) for each method, property and annotated field of a
    top-level class, and each attribute that one of its methods assigns on
    self; dunder methods serve protocols and are left out, but what they
    assign on self is not."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for item in stmt.body:
            if isinstance(item, ast.FunctionDef):
                if not item.name.startswith("__"):
                    yield stmt.name, item.name
                for attr in dict.fromkeys(_self_assignments(item)):
                    yield stmt.name, attr
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield stmt.name, item.target.id


def _attribute_reads(tree):
    """(owner, name) of each attribute read; owner is the top-level class
    whose __init__ or __post_init__ holds the read, else None."""
    owner = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if getattr(item, "name", None) in ("__init__", "__post_init__"):
                    owner.update((id(n), stmt.name) for n in ast.walk(item))
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield owner.get(id(n)), n.attr


def test_every_class_member_is_read_outside_the_tests():
    """Each method, property, annotated field and self-assigned attribute
    of a top-level class in src/genis is read as an attribute somewhere in
    src/genis, scripts/ or bench/; a read in the class's own __init__ or
    __post_init__, which only checks or converts the value, does not count.

    Reads are matched by attribute name, not by the type of the object
    read, so a member passes when a member of that name on any class is
    read: an exception attribute named `grad_norm` or `iterations` would
    pass on RatioEstimate's fields.  TwoStageResult.q is read by no caller
    and passes on TargetResult.q; it stays because bench/ops.py builds
    TwoStageResult by position.  Matching by type, and dropping q, wait
    for the bench harness to read genis's own spans."""
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "genis").glob("*.py"))
    callers = package + sorted((root / "scripts").glob("*.py"))
    callers += sorted((root / "bench").glob("*.py"))
    reads = set()
    for path in callers:
        reads.update(_attribute_reads(ast.parse(path.read_text())))
    unread = []
    for path in package:
        for cls, member in _class_members(ast.parse(path.read_text())):
            is_read = any(name == member and by != cls for by, name in reads)
            if not is_read:
                unread.append(f"{path.stem}.{cls}.{member}")
    assert not unread, f"class members read only by tests: {unread}"


# defaulted parameters that only tests set
SET_ONLY_BY_TESTS: set[str] = set()


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
