"""Golden corpus: every CLI command's bytes and exit codes, pinned by digest.

Each case runs `chainlab.cli.main` in process and compares the SHA-256 of
its stdout (and of the file it writes, if any) and its exit code with the
recorded values below.  Error cases pin the exit code and the single
`input-error:` line on stderr instead, since their messages name temporary
paths.  Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from chainlab import core
from chainlab.cli import main

SEEDS = ("0", "1", "7")
GENERATE_FLAGS = {
    "chain": ("--ground-size", "12", "--count", "6"),
    "perturbed": ("--ground-size", "20", "--count", "10", "--flips", "2"),
    "marciszewski": ("--depth", "5", "--count", "10"),
    "sign": ("--ground-size", "10", "--count", "6"),
}
# The reader reads 11 of this family's 12 sets run by run.
WIDE_FLAGS = ("--kind", "perturbed", "--seed", "1", "--ground-size", "512", "--count", "12",
              "--flips", "1")

# name -> (argv, artifact written besides stdout).  "{in}" is the directory of
# shared inputs, "{out}" a fresh directory per case.
CASES: dict[str, tuple[tuple[str, ...], str | None]] = {
    **{
        f"generate-{kind}-{seed}": (
            ("generate", "--kind", kind, "--seed", seed, *flags,
             "--output", "{out}/family.json"),
            "family.json",
        )
        for kind, flags in GENERATE_FLAGS.items()
        for seed in SEEDS
    },
    "generate-stdout": (("generate", "--kind", "perturbed", "--seed", "5"), None),
    "generate-config": (("generate", "--config", "{in}/config.json"), None),
    "check-budget-1": (("check", "--input", "{in}/perturbed.json", "--budget", "1"), None),
    "check-marciszewski": (("check", "--input", "{in}/marc.json"), None),
    "check-chain": (("check", "--input", "{in}/chain.json", "--budget", "2"), None),
    **{
        f"adjust-{order}": (
            ("adjust", "--input", "{in}/unsorted.json", "--order", order, "--seed", "7",
             "--output", "{out}/adjusted.json"),
            "adjusted.json",
        )
        for order in ("sorted", "given", "random")
    },
    "adjust-perturbed-random": (
        ("adjust", "--input", "{in}/perturbed.json", "--order", "random", "--seed", "3",
         "--output", "{out}/adjusted.json"),
        "adjusted.json",
    ),
    "triples-marciszewski": (("triples", "--input", "{in}/marc.json"), None),
    "triples-model": (
        ("triples", "--input", "{in}/alt.json", "--model", "{in}/model.json"), None),
    "triples-output": (
        ("triples", "--input", "{in}/alt.json", "--output", "{out}/triples.tsv"),
        "triples.tsv",
    ),
    "operator-marciszewski": (("operator", "--input", "{in}/marc.json"), None),
    "operator-chain": (("operator", "--input", "{in}/chain.json"), None),
    "operator-function": (
        ("operator", "--input", "{in}/alt.json", "--function", "{in}/function.json"), None),
    "compat-compatible": (
        ("compat", "--input", "{in}/left.json", "--input", "{in}/right.json"), None),
    "compat-incompatible": (
        ("compat", "--input", "{in}/left.json", "--input", "{in}/clash.json"), None),
    "gap": (("gap", "--input", "{in}/towers.json", "--budget", "2"), None),
    "sweep-perturbed": (
        ("sweep", "--kind", "perturbed", "--seed", "4", "--ground-size", "12",
         "--count", "8", "--flips", "2", "--reps", "2"),
        None,
    ),
    "sweep-marciszewski": (
        ("sweep", "--kind", "marciszewski", "--seed", "4", "--depth", "5",
         "--count", "9", "--reps", "2"),
        None,
    ),
    # Families large enough for the fast paths of `chainlab.core` (FAST_PATHS below).
    "check-counter-rows": (("check", "--input", "{in}/dense.json", "--budget", "2"), None),
    "generate-runs": (
        ("generate", *WIDE_FLAGS, "--output", "{out}/family.json"), "family.json"),
    "adjust-runs-random": (
        ("adjust", "--input", "{in}/wide.json", "--order", "random", "--seed", "5",
         "--output", "{out}/adjusted.json"),
        "adjusted.json",
    ),
    "triples-runs": (("triples", "--input", "{in}/wide-adjusted.json"), None),
}

# Case -> (the function of `chainlab.core` its fast path runs, how many of its
# calls return a result).  `_counter_rows` is the vertical-counter defect scan,
# `_line_table` is called by the writer once per set it copies run by run, and
# `_run_pair` returns None for each set it hands to the JSON decoder.
FAST_PATHS = {
    "check-counter-rows": ("_counter_rows", 1),
    "generate-runs": ("_line_table", 4),
    "adjust-runs-random": ("_run_pair", 11),
    "triples-runs": ("_run_pair", 11),
}

# name -> (exit code, stdout digest, artifact digest or None)
GOLDEN: dict[str, tuple[int, str, str | None]] = {
    "adjust-given": (
        0, "95da65a8c5b07bdfca168d67bb2b6d3c0300ab1fa20c6755b4e08207fe1c19e6",
        "82cb638c93461a2c9081c88b0b580602a0f3f27729311a59879f7fade543d877"),
    "adjust-perturbed-random": (
        0, "4a11794e67fb3e2e6e12b900732ffe0411a505ebd3ad9b3dc973e66991283061",
        "8e5cc92c431d785f61bf72f8a8b4edb6458713674b335aa69307140395edcdd7"),
    "adjust-random": (
        0, "f6973f1968cc0081a165d17e1f4220550edef33877a91c0554b9388112550e55",
        "d788726be8c4f6a431928639fd184c4c81ab8790a47cb0fc85585b0dd0cb2589"),
    "adjust-runs-random": (
        0, "e17984452f06c777f5ee62db11d42cb5bb7870956ce407a847b5b5eff4c40fc8",
        "99293c20c58f7ea0f0a3351aa3e4bdde308bafffce2364f4e5e9fb2509595ff9"),
    "adjust-sorted": (
        0, "4d913a26ce364d80f9299d7279e68e4fe1e57c85c49a803adf63388b414bd9da",
        "42b10c3817c747c9b32f0395b1cd5f0be074b8cdc557f26912bdff294296387f"),
    "check-budget-1": (
        0, "6dc20208a13409add85946816877c856229f2483211c7d46e99dc3b8c68e65d9",
        None),
    "check-chain": (
        0, "c08ec206a68c5846552ccbab0209cdf9e7051bee0c9485d8f549f85f2f95c595",
        None),
    "check-counter-rows": (
        0, "154e6574371ef65c8591490a2629bb87a7d93e9802b83bb9525533d93ddaa70a",
        None),
    "check-marciszewski": (
        0, "e9f13f456678ab2f1b40449b17b32b562cf09b7ee6d1dd49da95f268937a1c20",
        None),
    "compat-compatible": (
        0, "59fced518973bb7288c467713ad7e5281496bbf97b47dfba6f9646ffba98daa9",
        None),
    "compat-incompatible": (
        0, "4115dfff934914041813b12256d1db288ebb5237ad7cafd9b94738da7f76f4be",
        None),
    "gap": (
        0, "7b1e4d5ee6db2f6217bf9e1c6e3a19ef896a62141fb743eddc1379ccbaaf5c84",
        None),
    "generate-chain-0": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3e300cb5e0ed4e841923578a719cd50f4c0cdb55531cf13fd61467b61c7c3e30"),
    "generate-chain-1": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e571ae4e7fc7e0ba76e192a7405bfb7d47b03a83b94238465418edc0436db7bd"),
    "generate-chain-7": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cb5b05608026c3f86990e786bf95c2a5d4c7648657f283932e2e7b8384ba89d8"),
    "generate-config": (
        0, "a71f4d1f69ee3aec1df71af69290ba95d3f1150f81f50aa23e5e34f4c2cd5665",
        None),
    "generate-marciszewski-0": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "47f6f2f035653217e03c398ac14cac9e04d39a9bc91f9d70e30c8f210af779f6"),
    "generate-marciszewski-1": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d433f249ca78aafe0fbc7d71be32ec45af0e1121457c2b9f8519d416556211c5"),
    "generate-marciszewski-7": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2f047d7199e900393d53b043144220b1f9d13aa9ead66102be8bcb3de9cac1ef"),
    "generate-perturbed-0": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2e3d59981d56baaa83a017351239a792a7c0a745eb9eedd74f8982f11570e57e"),
    "generate-perturbed-1": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "73b84c6883e388d37cf38a34038dfb1460e591d1adb42e2b98401e892ae9e13c"),
    "generate-perturbed-7": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1fe926055f7c63d6af3286a36fb202d49ac33fac66832d5fed9f58aecd30036f"),
    "generate-runs": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4871d43700bc318194e94a7c535ed7f1eb4b5e3008faa059700710a8373b2db5"),
    "generate-sign-0": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "32487c23986581f2811ee6e5aef67959b075ab48b88bbcb912a70525e88d9965"),
    "generate-sign-1": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9a0dfd085e2d968464d04f81eba797235a0fd2dbaa8e9ad6c1af7e1917c14e82"),
    "generate-sign-7": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c9745779f4bcc94373057e7719b7c60bbe01907744831cfeea7b991b3882dd11"),
    "generate-stdout": (
        0, "81dbe74468af7cfa56d0e96205a4c9b6bf6fbf883a4c7e78ba6de9346ada230b",
        None),
    "operator-chain": (
        0, "835b255a17167f0fdac23b94fd21cba4c8fe0bd56cb7e4caa40131870db1eff7",
        None),
    "operator-function": (
        0, "e038320c75595c82336be2d3bb0eaedc980332493405f390ee923dab83116b9e",
        None),
    "operator-marciszewski": (
        0, "0f386515f9004995bb49fc41ec79fbc41af72f90134f6d7e797be9100e0aa850",
        None),
    "sweep-marciszewski": (
        0, "f3f245c93c059a4475648271cde8186c08afe0c9501798d0b6aef685cc0ac124",
        None),
    "sweep-perturbed": (
        0, "9c78b9f9fc8a8632cca03f42bace31a19f2084e963484df26833e9e9a4e5ef55",
        None),
    "triples-marciszewski": (
        0, "0215818c3ac6bf79f1edf77e91c8e5a8adecf69cb864e7e7165f807af7149149",
        None),
    "triples-model": (
        0, "77730b8cdabde209bcc3957c2d3b4dbd1b37bc505b3ca2b376552c5558792b17",
        None),
    "triples-output": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7076649ab6dc7252662a496d93864f85043d18b984723f90f68f6926847eb91c"),
    "triples-runs": (
        0, "fed44279b967050e59344548de1c8b3d9bfaea7e56036f1a715b15605158b278",
        None),
}

ERROR_CASES = {
    "compat-one-input": ("compat", "--input", "{in}/left.json"),
    "missing-file": ("check", "--input", "{in}/no-such-family.json"),
    "adjust-output-stdout": ("adjust", "--input", "{in}/unsorted.json", "--output", "-"),
}


def _family(ground_size: int, entries: list[tuple[str, list[int]]]) -> str:
    doc = {"ground_size": ground_size,
           "entries": [{"index": x, "set": s} for x, s in entries]}
    return json.dumps(doc)


def write_inputs(root: Path) -> None:
    """The shared input files; the generated ones come from the CLI itself."""
    for name, argv in {
        "perturbed.json": ("generate", "--kind", "perturbed", "--seed", "3",
                           "--ground-size", "20", "--count", "14", "--flips", "2"),
        "marc.json": ("generate", "--kind", "marciszewski", "--seed", "4",
                      "--depth", "5", "--count", "12"),
        "chain.json": ("generate", "--kind", "chain", "--seed", "2",
                       "--ground-size", "8", "--count", "5"),
        # At budget 2, 4,272 pairs are over the budget.
        "dense.json": ("generate", "--kind", "perturbed", "--seed", "1",
                       "--ground-size", "256", "--count", "300", "--flips", "2"),
        "wide.json": ("generate", *WIDE_FLAGS),
    }.items():
        code, _, _ = run(argv + ("--output", str(root / name)))
        assert code == 0, name
    code, _, _ = run(("adjust", "--input", str(root / "wide.json"), "--order", "random",
                      "--seed", "5", "--output", str(root / "wide-adjusted.json")))
    assert code == 0
    alt = [("1/4", [1]), ("1/2", [0, 2]), ("3/4", [2]), ("7/8", [1, 2])]
    files = {
        "config.json": json.dumps({"kind": "marciszewski", "depth": 5,
                                   "xs": ["011011", "100101", "001111"]}),
        "unsorted.json": _family(6, [("3/4", [0, 1, 5]), ("1/8", [2, 3]),
                                     ("1/2", [1, 4]), ("5/8", [0, 2, 3, 4]),
                                     ("1/4", [5])]),
        "alt.json": _family(3, alt),
        "model.json": json.dumps({"carrier": ["1/8", "1/4", "1/2", "3/4", "7/8", "1"],
                                  "dense": [x for x, _ in alt]}),
        "function.json": json.dumps({"values": {
            x: str(Fraction(x) * Fraction(x) - Fraction(1, 3)) for x, _ in alt}}),
        "left.json": _family(4, [("1/4", [0]), ("1/2", [0, 1])]),
        "right.json": _family(4, [("1/2", [0, 1]), ("3/4", [0, 1, 3])]),
        "clash.json": _family(4, [("1/8", [0, 2]), ("5/8", [2]), ("3/4", [0])]),
        "towers.json": json.dumps({"ground_size": 8,
                                   "ascending": [[0], [0, 1, 5], [0, 1, 2, 6]],
                                   "descending": [[0, 1, 2, 3, 4], [0, 1, 2, 6], [0, 1]]}),
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argv(template, in_dir: Path, out_dir: Path) -> list[str]:
    return [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in template]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(name: str, in_dir: Path, out_dir: Path) -> tuple[tuple[int, str, str | None], str]:
    """Run one case; returns (exit code, stdout digest, artifact digest) and stderr."""
    template, artifact = CASES[name]
    code, out, err = run(_argv(template, in_dir, out_dir))
    art = _sha((out_dir / artifact).read_bytes()) if artifact else None
    return (code, _sha(out.encode("utf-8")), art), err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(root)
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, inputs, tmp_path):
    observed, err = observe(name, inputs, tmp_path)
    assert err == ""
    assert observed == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_fast_path_case_takes_its_path(name, inputs, tmp_path, monkeypatch):
    path, results = FAST_PATHS[name]
    returned = []
    real = getattr(core, path)
    monkeypatch.setattr(core, path, lambda *args: returned.append(real(*args)) or returned[-1])
    observed, _ = observe(name, inputs, tmp_path)
    assert observed == GOLDEN[name]
    assert len(returned) - returned.count(None) == results


def test_check_case_flags_pairs_over_budget(inputs):
    _, out, _ = run(_argv(CASES["check-budget-1"][0], inputs, inputs))
    assert "over_budget: (" in out


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_golden_error(name, inputs, tmp_path):
    code, out, err = run(_argv(ERROR_CASES[name], inputs, tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("input-error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        in_dir = Path(tmp, "in")
        in_dir.mkdir()
        write_inputs(in_dir)
        print("GOLDEN: dict[str, tuple[int, str, str | None]] = {")
        for i, name in enumerate(sorted(CASES)):
            out_dir = Path(tmp, f"case-{i}")
            out_dir.mkdir()
            code, out, art = observe(name, in_dir, out_dir)[0]
            art = "None" if art is None else f'"{art}"'
            print(f'    "{name}": (\n        {code}, "{out}",\n        {art}),')
        print("}")
    sys.exit(0)
