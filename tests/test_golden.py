"""A golden corpus of CLI runs: exit codes, printed text and written bytes.

Each case is a small config plus a `genis` argv, run in-process through
`cli.main`.  For each the test compares, with tests/golden.json, the exit
code (or the type of an uncaught exception), the sha256 of stdout and of
stderr with the temporary directory masked as `<tmp>`, and the sha256 of
every file written under `--out`.

The corpus also holds the digests of the pilot searches in
conftest.FROZEN_PILOTS, which tests/test_weights.py checks.

The digests carry the rounding of the Newton steps and of BLAS dot
products, so on another CPU or BLAS build they may differ with no change
to the code; a failure names the kernels it ran under and those the corpus
was recorded under.  On such a host, compare the outputs with those of the
previous commit instead.  They were recorded with numpy 2.4 and its OpenBLAS 0.3.31
wheel on x86-64.

To re-record on purpose, run this file and tests/test_weights.py with
GENIS_RECORD_GOLDEN=1; it rewrites the entry of every check it runs and
drops entries without a check.  A change that re-records names every
changed entry and says why.
"""

import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

import pytest

from genis import cli

from conftest import (
    FROZEN_PILOTS,
    RECORD,
    check_golden,
    frozen_pilot_entry,
    load_golden,
    store_golden,
)

CONFIGS = Path(__file__).parents[1] / "configs"

T_IID = {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0}
T_IMH = {"family": "t", "sampler": "imh", "df": 5.0, "mu": 0.0,
         "proposal_df": 5.0, "proposal_mu": 1.0, "with_regen": True}
T_TARGETS = {"family": "t", "df": 5.0, "mu_grid": [0.0, 0.5, 1.0]}
T_TRUTH = {"d": [1.0], "u": [1.0, 1.0, 1.0], "eta": [0.0, 0.5, 1.0]}
TABLES = ([1.0, 2.0, 0.5, 1.5, 1.0], [2.0, 1.0, 1.0, 0.5, 2.5])
TABLE_TARGETS = {"family": "table", "tables": [[1.5, 1.5, 1.0, 2.0, 1.0]]}
PILOT = {"kind": "pilot", "step": 0.25, "pilot_sizes": [300, 300]}


def _t(sizes=(2000, 2000), stage2=None, weights=None, **top):
    """The t pair (iid at 1, imh at 0), optionally with a stage-2 block."""
    raw = {"references": [T_IID, T_IMH],
           "stage1": {"sizes": list(sizes)}, "master_seed": 3}
    if weights is not None:
        raw["stage1"]["weights"] = weights
    if stage2 is not None:
        raw["stage2"] = {"sizes": [1000, 1000], **stage2}
        raw["targets"] = T_TARGETS
    raw.update(top)
    return copy.deepcopy(raw)


def _tables(refs=TABLES, **top):
    """Two mh table references with a table target, as configs/oracle.json."""
    raw = {
        "references": [{"family": "table", "sampler": "mh", "table": list(t),
                        "with_regen": True, "label": f"ref{i}"}
                       for i, t in enumerate(refs)],
        "stage1": {"sizes": [2000, 2000]},
        "stage2": {"sizes": [1000, 1000]},
        "targets": TABLE_TARGETS,
        "se_method": "both",
        "master_seed": 1,
    }
    raw.update(top)
    return copy.deepcopy(raw)


def _unlabeled_tables(**top):
    """`_tables` whose references take their default labels, table0 and table1."""
    raw = _tables(**top)
    for ref in raw["references"]:
        del ref["label"]
    return raw


def _t_targets_over_tables():
    """configs/oracle.json with t targets, which have no ratio to the tables."""
    raw = json.loads((CONFIGS / "oracle.json").read_text())
    raw["targets"] = {"family": "t", "df": 5.0, "mu_grid": [2.0]}
    return raw


def _far_apart_t():
    return {"references": [dict(T_IID, mu=1e308), dict(T_IID, mu=-1e308)],
            "stage1": {"sizes": [2000, 2000]}, "master_seed": 3}


def _few_stage2_marks():
    raw = _t(stage2={}, se_method="bm")
    raw["references"][1]["splitting_const"] = 1e-300
    return raw


def _tiny_df():
    raw = _t()
    raw["references"][0]["df"] = 1e-3
    return raw


def _underflowing_splitting_const():
    """An imh chain whose tuned splitting constant is exp(-1071)."""
    raw = _t()
    raw["references"][1] = {"family": "t", "sampler": "imh", "df": 1e6, "mu": 0.0,
                            "proposal_mu": 50.0, "with_regen": True}
    return raw


def _overflowing_ratio_variance():
    """One draw-starved chain whose u_hat squared overflows."""
    return {"references": [{"family": "t", "sampler": "imh", "df": 1e300, "mu": 30.0,
                            "proposal_mu": 1.0}],
            "stage1": {"sizes": [4]}, "stage2": {"sizes": [5]},
            "targets": {"family": "t", "df": 0.5, "mu_grid": [0.5]},
            "bm_explicit_b": 2, "master_seed": 81}


def _pilot_vanishing_state():
    """A t reference with df 1e-3 whose pilot draw lies where both
    reference densities underflow to zero."""
    return {"references": [{"family": "t", "sampler": "iid", "df": 0.001, "mu": 0.0},
                           {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0}],
            "stage1": {"sizes": [1, 1], "weights": {"kind": "pilot", "step": 0.25,
                                                    "pilot_sizes": [2, 2]}},
            "master_seed": 620}


def _overflowing_tour_sums():
    """A stage-2 chain at 1e308 whose importance weights for the target at
    1e308 overflow in the tour sums."""
    return {"references": [{"family": "t", "sampler": "iid", "df": 0.05, "mu": 1e308,
                            "label": "r0"}],
            "stage1": {"sizes": [50]}, "stage2": {"sizes": [50]},
            "targets": {"family": "t", "df": 1.0, "mu_grid": [1e308, 0.0]},
            "master_seed": 214}


def _stage2_without_marks():
    """configs/toy.json with no regeneration marks on its imh chain, so
    `estimate` writes no tours.csv."""
    raw = json.loads((CONFIGS / "toy.json").read_text())
    raw["references"][1]["with_regen"] = False
    raw.update(se_method="bm", stage1={"sizes": [2000, 2000]}, stage2={"sizes": [1000, 1000]})
    return raw


def _three_refs_unequal_stage2():
    """Three t5 references (iid at 1, imh at 0 with marks, iid at 2) whose
    stage-2 chain lengths, normalized once more, would round differently
    in the tours.csv mixture."""
    raw = _t(stage2={}, se_method="both")
    raw["references"].append(dict(T_IID, mu=2.0))
    raw["stage1"]["sizes"] = [2000, 2000, 2000]
    raw["stage2"]["sizes"] = [2500, 800, 3000]
    raw["targets"] = {"family": "t", "df": 5.0, "mu_grid": [0.5, 1.5]}
    raw["integrand"] = "x"
    return raw


def _scaled_tables(scale):
    """Tables [1, 1, 1] and scale * [1, 3, 2], whose ratio is 2 * scale."""
    return {"references": [{"family": "table", "sampler": "mh", "table": [1.0, 1.0, 1.0]},
                           {"family": "table", "sampler": "mh",
                            "table": [scale, 3.0 * scale, 2.0 * scale]}],
            "stage1": {"sizes": [2000, 2000]}, "master_seed": 1}


# name: (config, argv without --config and --out)
CASES = {
    "estimate-d-bm": (_t(), ["estimate-d"]),
    "estimate-d-rs-override": (_t(), ["estimate-d", "--se-method", "rs"]),
    "estimate-d-fixed-both": (
        _t(weights={"kind": "fixed", "values": [0.8, 0.2]}, se_method="both"),
        ["estimate-d"]),
    "estimate-d-pilot": (_t(weights=PILOT), ["estimate-d", "--seed", "5"]),
    "estimate-d-truth": (_t(truth={"d": [1.0]}), ["estimate-d"]),
    "estimate-both": (_t(stage2={}, se_method="both"), ["estimate"]),
    "estimate-default-split": (_t(sizes=(2500, 2500), targets=T_TARGETS), ["estimate"]),
    "estimate-stage2-fixed": (
        _t(stage2={"weights": {"kind": "fixed", "values": [1.0, 3.0]}}),
        ["estimate", "--assume-infinite-stage1"]),
    "estimate-stage2-inv-dist": (_t(stage2={"weights": {"kind": "inv_dist"}}), ["estimate"]),
    "estimate-stage2-ess": (_t(stage2={"weights": {"kind": "ess"}}), ["estimate"]),
    "estimate-burn-in-thinning": (_t(stage2={}, burn_in=50, thinning=3), ["estimate"]),
    "estimate-null-integrand": (_t(stage2={}, integrand=None), ["estimate"]),
    "estimate-truth": (_t(stage2={}, se_method="both", truth=T_TRUTH), ["estimate"]),
    "estimate-table": (_tables(), ["estimate"]),
    "estimate-table-unlabeled": (_unlabeled_tables(), ["estimate"]),
    "estimate-stage2-without-marks": (_stage2_without_marks(), ["estimate"]),
    "estimate-three-refs-unequal-stage2": (_three_refs_unequal_stage2(), ["estimate"]),
    "estimate-toy-seed-1": (json.loads((CONFIGS / "toy.json").read_text()),
                            ["estimate", "--seed", "1"]),
    "replicate-size-grid": (
        _t(replications=3, size_grid=[3, 300, 1000], se_method="both",
           truth={"d": [1.0]}),
        ["replicate"]),
    "replicate-size-grid-workers": (
        _t(replications=3, size_grid=[3, 300, 1000], se_method="both",
           truth={"d": [1.0]}, workers=2),
        ["replicate"]),
    "replicate-truth-targets": (
        _t(sizes=(1000, 1000), stage2={"sizes": [500, 500]}, replications=3,
           truth=T_TRUTH),
        ["replicate"]),
    "pilot-weights": (_t(weights=PILOT), ["pilot-weights"]),
    "oracle-check-table": (_tables(), ["oracle-check"]),
    "oracle-check-t": (_t(stage2={}, se_method="both"), ["oracle-check"]),
    "export-chains": (_t(sizes=(200, 200), stage2={"sizes": [50, 50]}), ["export-chains"]),
    "export-chains-table": (
        _unlabeled_tables(stage1={"sizes": [200, 200]}, stage2={"sizes": [50, 50]}),
        ["export-chains"]),
    "exit-2-config-error": (_t(bogus=1), ["estimate-d"]),
    "exit-3-pilot-fails": (
        _t(weights={"kind": "pilot", "pilot_sizes": [3, 3]}), ["estimate-d"]),
    "exit-4-too-few-draws": (_t(sizes=(3, 3)), ["estimate-d"]),
    "exit-5-tiny-df": (_tiny_df(), ["estimate-d"]),
    "repro-disjoint-tables": (
        _tables(refs=([1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 4.0]), stage2=None,
                targets=None, se_method="bm"),
        ["estimate-d"]),
    "repro-far-apart-t": (_far_apart_t(), ["estimate-d"]),
    "repro-few-stage2-marks": (_few_stage2_marks(), ["estimate"]),
    "repro-t-targets-over-tables": (_t_targets_over_tables(), ["estimate"]),
    "repro-underflowing-splitting-const": (_underflowing_splitting_const(), ["estimate-d"]),
    "repro-overflowing-ratio-variance": (_overflowing_ratio_variance(), ["estimate"]),
    "repro-pilot-vanishing-state": (_pilot_vanishing_state(), ["estimate-d"]),
    "repro-overflowing-tour-sums": (_overflowing_tour_sums(), ["estimate"]),
    "repro-scaled-tables-1e-60": (_scaled_tables(1e-60), ["estimate-d"]),
    "repro-scaled-tables-1e-200": (_scaled_tables(1e-200), ["estimate-d"]),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_case(tmp_path, raw, argv) -> tuple[dict, str]:
    """The recorded outcome of one case, and its masked stdout for messages."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
        except Exception as exc:  # pinned by type, as an exit code is
            code = f"raised {type(exc).__name__}"
    text = stdout.getvalue().replace(str(tmp_path), "<tmp>")
    files = {}
    if out.exists():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    outcome = {
        "exit": code,
        "stdout": _sha(text),
        "stderr": _sha(stderr.getvalue().replace(str(tmp_path), "<tmp>")),
        "files": files,
    }
    return outcome, text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_run_matches_the_corpus(tmp_path, name):
    raw, argv = CASES[name]
    got, text = run_case(tmp_path, raw, argv)
    check_golden(name, got, f"stdout was:\n{text}")


def test_corpus_holds_exactly_the_cases():
    names = {*CASES, *map(frozen_pilot_entry, FROZEN_PILOTS)}
    corpus = load_golden()
    if RECORD:  # prune only, since tests/test_weights.py may record after this
        store_golden({name: corpus[name] for name in corpus if name in names})
    else:
        assert sorted(corpus) == sorted(names)
