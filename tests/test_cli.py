"""End-to-end command behaviour, format plumbing, and error reporting."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import chainlab
from chainlab.cli import main

from oracles import count_fraction_ops


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_check_chain(tmp_path, capsys):
    fam = tmp_path / "chain.json"
    code, _, _ = run_cli(
        capsys, "generate", "--kind", "chain", "--seed", "1",
        "--ground-size", "10", "--count", "5", "--output", str(fam),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--input", str(fam))
    assert code == 0
    assert "chain: ok" in out
    assert "barely_alternating: ok" in out
    assert "max_defect: 0" in out


def test_adjust_marciszewski_then_check(tmp_path, capsys):
    fam = tmp_path / "marc.json"
    adj = tmp_path / "marc.adjusted.json"
    code, _, _ = run_cli(
        capsys, "generate", "--kind", "marciszewski", "--seed", "5",
        "--depth", "5", "--count", "12", "--output", str(fam),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "adjust", "--input", str(fam), "--output", str(adj)
    )
    assert code == 0
    assert out.startswith("# index\tcost\tdelta\n")
    assert "total_cost=" in out
    code, out, _ = run_cli(capsys, "check", "--input", str(adj))
    assert code == 0
    assert "barely_alternating: ok" in out


def test_operator_reports_norm_one_on_a_chain(tmp_path, capsys):
    fam = tmp_path / "chain.json"
    run_cli(
        capsys, "generate", "--kind", "chain", "--seed", "2",
        "--ground-size", "8", "--count", "4", "--output", str(fam),
    )
    code, out, _ = run_cli(capsys, "operator", "--input", str(fam))
    assert code == 0
    assert out.splitlines()[0] == "norm: 1"
    assert "witness_n" not in out


def test_operator_norm_three_with_witness(tmp_path, capsys):
    fam = tmp_path / "alt.json"
    fam.write_text(
        json.dumps(
            {
                "ground_size": 1,
                "entries": [
                    {"index": "1/4", "set": []},
                    {"index": "1/2", "set": [0]},
                    {"index": "3/4", "set": []},
                    {"index": "7/8", "set": []},
                ],
            }
        )
    )
    # trace 0100 gives the strict triple (1/2, 3/4, 7/8) on the default model
    code, out, _ = run_cli(capsys, "operator", "--input", str(fam))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "norm: 3"
    assert "witness_n: 0" in lines
    assert "witness_value: 3" in lines


def test_triples_table_output(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "ground_size": 1,
                "entries": [
                    {"index": "1/4", "set": []},
                    {"index": "1/2", "set": [0]},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "triples", "--input", str(fam))
    assert code == 0
    assert out == "# n\tx0\tx1\tx2\tpattern\n0\t1/2\t1/2\t1/2\tx0=x1=x2\n"


def test_triples_with_explicit_model(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "ground_size": 1,
                "entries": [
                    {"index": "1/4", "set": []},
                    {"index": "1/2", "set": [0]},
                ],
            }
        )
    )
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({"carrier": ["1/4", "1/2", "1/1"], "dense": ["1/4", "1/2"]})
    )
    code, out, _ = run_cli(
        capsys, "triples", "--input", str(fam), "--model", str(model)
    )
    assert code == 0
    assert "0\t1/2\t1/1\t1/1\tx0<x1=x2" in out


def test_compat_verdicts(tmp_path, capsys):
    shared = tmp_path / "shared.json"
    shared.write_text(
        json.dumps(
            {"ground_size": 1, "entries": [{"index": "1/2", "set": [0]}]}
        )
    )
    code, out, _ = run_cli(
        capsys, "compat", "--input", str(shared), "--input", str(shared)
    )
    assert code == 0 and out == "compatible\n"

    other = tmp_path / "other.json"
    other.write_text(
        json.dumps(
            {
                "ground_size": 1,
                "entries": [
                    {"index": "1/8", "set": [0]},
                    {"index": "1/4", "set": []},
                    {"index": "3/4", "set": []},
                ],
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "compat", "--input", str(shared), "--input", str(other)
    )
    assert code == 0
    assert out == "witness n=0 x1=1/8 x2=1/4 x3=1/2 x4=3/4\n"


def test_compat_requires_two_inputs_and_agreement(tmp_path, capsys):
    fam = tmp_path / "a.json"
    fam.write_text(
        json.dumps({"ground_size": 1, "entries": [{"index": "1/2", "set": [0]}]})
    )
    code, _, err = run_cli(capsys, "compat", "--input", str(fam))
    assert code == 1 and "input-error" in err
    clash = tmp_path / "b.json"
    clash.write_text(
        json.dumps({"ground_size": 1, "entries": [{"index": "1/2", "set": []}]})
    )
    code, _, err = run_cli(
        capsys, "compat", "--input", str(fam), "--input", str(clash)
    )
    assert code == 1
    assert "disagree at shared index" in err


def test_gap_command(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    inst.write_text(
        json.dumps(
            {"ground_size": 4, "ascending": [[0, 1]], "descending": [[1]]}
        )
    )
    code, out, _ = run_cli(
        capsys, "gap", "--input", str(inst), "--budget", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["interpolant"] == [1]
    assert all(e["covered"] for e in doc["ascending_exceptions"])
    assert all(e["covered"] for e in doc["descending_exceptions"])
    code, _, err = run_cli(capsys, "gap", "--input", str(inst), "--budget", "0")
    assert code == 1 and "input-error" in err and "exceeds budget" in err
    code, out, err = run_cli(capsys, "gap", "--input", str(inst), "--budget", "-1")
    assert (code, out) == (1, "")
    assert err == "input-error: defect_budget must be non-negative, got -1\n"


def test_generate_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "initial-chain",
                "points": ["1/8", "3/8", "5/8"],
                "X": ["1/4", "1/2", "3/4"],
            }
        )
    )
    code, out, _ = run_cli(capsys, "generate", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0] == {"index": "1/4", "set": [0]}


@pytest.mark.parametrize("kind", ["sign", "chain", "perturbed", "marciszewski"])
def test_generate_count_zero_writes_an_empty_family(capsys, kind):
    code, out, err = run_cli(capsys, "generate", "--kind", kind, "--count", "0",
                             "--ground-size", "2")
    assert (code, err) == (0, "")
    size = 31 if kind == "marciszewski" else 2  # the default depth 5 fixes the ground
    assert json.loads(out) == {"ground_size": size, "entries": []}


def test_sign_matrix_config_without_rows_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sign-matrix", "Y": [], "rows": []}))
    code, out, err = run_cli(capsys, "generate", "--config", str(cfg))
    assert (code, out, err) == (1, "", "input-error: sign matrix has no rows\n")


def test_order_flag_changes_insertion_order_not_validity(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    run_cli(
        capsys, "generate", "--kind", "perturbed", "--seed", "9",
        "--ground-size", "12", "--count", "6", "--flips", "2",
        "--output", str(fam),
    )
    outputs = {}
    for order in ("sorted", "given", "random"):
        out_path = tmp_path / f"adj.{order}.json"
        code, _, _ = run_cli(
            capsys, "adjust", "--input", str(fam), "--order", order,
            "--seed", "4", "--output", str(out_path),
        )
        assert code == 0
        outputs[order] = out_path.read_text()
        code, out, _ = run_cli(capsys, "check", "--input", str(out_path))
        assert "barely_alternating: ok" in out
    # generated files list entries sorted, so `given` coincides with `sorted`
    assert outputs["sorted"] == outputs["given"]


def test_sweep_table_shape_and_determinism(capsys):
    args = (
        "sweep", "--kind", "perturbed", "--seed", "11", "--ground-size", "8",
        "--count", "4", "--flips", "1", "--reps", "2",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("kind\tparam\trep\tseed")
    assert len(lines) == 1 + 2 * 2
    assert all(line.split("\t")[10] == "yes" for line in lines[1:])


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("sweep", "--count", "0"), "--count of at least 1"),
        (("sweep", "--kind", "marciszewski", "--count", "0"), "--count of at least 1"),
        (("sweep", "--reps", "0"), "--reps of at least 1"),
        (("sweep", "--kind", "marciszewski", "--reps", "-1"), "--reps of at least 1"),
        (("sweep", "--flips", "-1"), "--flips of at least 0"),
        (("sweep", "--kind", "marciszewski", "--depth", "2"), "--depth of at least 3"),
    ],
    ids=["count-zero", "marciszewski-count-zero", "reps-zero", "marciszewski-reps-negative",
         "flips-negative", "marciszewski-depth-two"],
)
def test_sweep_refuses_an_empty_grid_up_front(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"input-error: sweep needs {flag}\n"


def test_sweep_refuses_too_many_flips_before_building_any_cell(capsys, monkeypatch):
    from chainlab import generators

    built = []
    real = generators.family_from_config
    monkeypatch.setattr(generators, "family_from_config", lambda cfg: built.append(cfg) or real(cfg))
    code, out, err = run_cli(
        capsys, "sweep", "--kind", "perturbed", "--ground-size", "4", "--count", "3",
        "--flips", "5", "--reps", "1",
    )
    assert (code, out, built) == (1, "", [])
    assert err == "input-error: cannot flip 5 distinct bits in a ground of 4\n"


# Grid values times reps over core.MAX_FAMILY_SIZE (2^16) rows are refused
# before any cell is built.
@pytest.mark.parametrize(
    "argv, cells",
    [
        (("--reps", "100000000"), "4 values times 100000000 reps"),
        (("--reps", "100000000", "--ground-size", "8", "--count", "4", "--flips", "0"),
         "1 values times 100000000 reps"),
        (("--ground-size", "1048576", "--flips", "1048576", "--reps", "1"),
         "1048577 values times 1 reps"),
        (("--kind", "marciszewski", "--depth", "20", "--reps", "3856"),
         "18 values times 3856 reps"),
    ],
    ids=["default-grid", "one-value", "flips-at-the-ground-cap", "marciszewski"],
)
def test_sweep_grid_over_the_cap_is_one_input_error_line(capsys, monkeypatch, argv, cells):
    from chainlab import cli

    monkeypatch.setattr(cli, "_sweep_cell", None)  # a built cell would raise TypeError
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"input-error: sweep grid of {cells} exceeds the cap 65536\n"


def test_sweep_grid_at_the_cap_runs(capsys, monkeypatch):
    from chainlab import cli

    cells = []
    monkeypatch.setattr(cli, "_sweep_cell", lambda args, param, rep: cells.append(rep) or "")
    code, _, err = run_cli(capsys, "sweep", "--kind", "marciszewski", "--depth", "4",
                           "--reps", "32768")
    assert (code, err, len(cells)) == (0, "", 65536)


def test_sweep_compares_only_the_perturbed_cuts_once_and_hashes_none(capsys, monkeypatch):
    # The perturbed generator checks its k cuts in order, k - 1 comparisons
    # per cell; Marciszewski words are ordered as strings, and generation, the
    # defect scan, adjust, the line model and triples work on ranks.
    counts = count_fraction_ops(monkeypatch)
    code, _, _ = run_cli(capsys, "sweep", "--seed", "3", "--reps", "1",
                         "--ground-size", "16", "--count", "20", "--flips", "2")
    assert code == 0
    assert counts == {"__lt__": 3 * (20 - 1)}  # flips 0, 1 and 2
    counts.clear()
    code, _, _ = run_cli(capsys, "sweep", "--seed", "3", "--reps", "1",
                         "--kind", "marciszewski", "--depth", "5", "--count", "20")
    assert code == 0
    assert counts == {}


def test_marciszewski_sweep_runs(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "marciszewski", "--seed", "3",
        "--depth", "4", "--count", "6", "--reps", "1",
    )
    assert code == 0
    assert len(out.splitlines()) == 3  # header + depths 3 and 4


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "check", "--input", "/nonexistent/f.json")
    assert code == 1
    assert err.startswith("input-error:")


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    text = json.dumps(
        {"ground_size": 2, "entries": [{"index": "1/2", "set": [0]}]}
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "check", "--input", "-")
    assert code == 0
    assert "chain: ok" in out


@pytest.mark.parametrize(
    "raw",
    [
        b'{"ground_size": 2, "entries": [{"index": "1/0", "set": [0]}]}',
        b'\xff\xfe{"ground_size": 2, "entries": []}',
        b'{"ground_size": true, "entries": []}',
        b'{"ground_size": 2, "entries": [{"index": "1/2", "set": [false, true]}]}',
        b'{"ground_size": 2, "entries": [{"index": "1/2\\n", "set": [0]}]}',
        '{"ground_size": 2, "entries": [{"index": "\uff11/2", "set": [0]}]}'.encode(),
        '{"ground_size": 2, "entries": [{"index": "\u0663/4", "set": [0]}]}'.encode(),
    ],
    ids=["zero-denominator", "not-utf8", "bool-ground-size", "bool-elements",
         "trailing-newline-index", "fullwidth-digit-index", "arabic-indic-digit-index"],
)
def test_malformed_input_is_one_input_error_line(tmp_path, capsys, raw):
    fam = tmp_path / "bad.json"
    fam.write_bytes(raw)
    code, out, err = run_cli(capsys, "check", "--input", str(fam))
    assert code == 1
    assert out == ""
    assert err.startswith("input-error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        ({"kind": "sign-matrix", "Y": ["1/3", "2/3"], "rows": [3, 4]},
         "matrix row must be a list of values, got 3"),
        ({"kind": "sign-matrix", "Y": ["1/3", "2/3"], "rows": [[True, -1], [False, "-1/2"]]},
         "malformed index True, expected 'p/q'"),
        ({"kind": "sign-matrix", "Y": ["1/2"], "rows": 5}, "'rows' must be a list of lists, got 5"),
    ],
    ids=["rows-not-lists", "bool-values", "rows-not-a-list"],
)
def test_malformed_sign_matrix_rows_are_one_input_error_line(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "generate", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"input-error: {message}\n")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"kind": "marciszewski", "depth": 3, "xs": [5]},
         "bit word must be nonempty over 0/1, got 5"),
        ({"kind": "marciszewski", "depth": 3, "xs": [["0", "1", "1", "0", "1"]]},
         "bit word must be nonempty over 0/1, got ['0', '1', '1', '0', '1']"),
        ({"kind": "marciszewski", "depth": 3, "xs": "0101"},
         "'xs' must be a list of bit words, got '0101'"),
    ],
    ids=["word-not-string", "word-as-list", "words-not-a-list"],
)
def test_malformed_bit_words_are_one_input_error_line(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "generate", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"input-error: {message}\n")


# A string carrier is not iterated character by character: "12" is not (1, 2).
@pytest.mark.parametrize(
    "model",
    [
        {"carrier": 5, "dense": ["1/1"]},
        {"carrier": ["1/1"], "dense": 5},
        {"carrier": "12", "dense": ["1/1"]},
    ],
    ids=["int-carrier", "int-dense", "string-carrier"],
)
def test_malformed_model_is_one_input_error_line(tmp_path, capsys, model):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"ground_size": 1, "entries": [{"index": "1/1", "set": [0]}]}))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "operator", "--input", str(fam), "--model", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("input-error:")
    assert err.count("\n") == 1


# Each case asks for a ground far above core.MAX_GROUND_SIZE (2^20 elements)
# and must be refused before anything of that size is built.
@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--kind", "marciszewski", "--depth", "40"),
        ("check", "--input", "{big}"),
        ("generate", "--ground-size", "1000000000"),
        ("generate", "--kind", "perturbed", "--ground-size", "1000000000"),
        ("generate", "--kind", "sign", "--ground-size", "1000000000"),
        ("sweep", "--kind", "marciszewski", "--depth", "40"),
        ("sweep", "--ground-size", "1000000000"),
        ("gap", "--input", "{gap}"),
    ],
    ids=["marciszewski-depth", "family-document", "chain", "perturbed", "sign",
         "sweep-depth", "sweep-ground-size", "gap-instance"],
)
def test_ground_size_cap_is_one_input_error_line(tmp_path, capsys, argv):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"ground_size": 10**9, "entries": []}))
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps({"ground_size": 10**9, "ascending": [[0]], "descending": []}))
    argv = [a.format(big=big, gap=gap) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("input-error:") and "cap 1048576" in err
    assert err.count("\n") == 1


# Each case asks for a count of indices below 0 or far above
# core.MAX_FAMILY_SIZE (2^16) and must be refused before anything is sampled.
@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--kind", "marciszewski", "--count", "-1"),
        ("sweep", "--kind", "marciszewski", "--count", "-5"),
        ("generate", "--count", "1000000000"),
        ("generate", "--kind", "perturbed", "--count", "1000000000"),
        ("generate", "--kind", "sign", "--count", "1000000000"),
        ("generate", "--kind", "marciszewski", "--depth", "20", "--count", "1000000000"),
        ("sweep", "--count", "1000000000"),
        ("sweep", "--kind", "marciszewski", "--count", "1000000000"),
    ],
    ids=["marciszewski-negative", "sweep-marciszewski-negative", "chain", "perturbed",
         "sign", "marciszewski", "sweep-perturbed", "sweep-marciszewski"],
)
def test_count_out_of_range_is_one_input_error_line(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("input-error: count ")
    assert err.count("\n") == 1


# A family document of more than core.MAX_FAMILY_SIZE entries is refused, in
# either spelling; the canonical walk stops at the entry past the cap.  The
# hook keeps the entries' count, so no document here is decoded a second,
# plain time (`core.parse_json`).
@pytest.mark.parametrize("spelling", ["canonical", "compact"])
def test_family_document_over_the_entry_cap_is_one_input_error_line(
        tmp_path, capsys, monkeypatch, spelling):
    from chainlab import core

    walked, plain = [], []
    real, real_parse = core._canonical_document, core.parse_json
    monkeypatch.setattr(core, "_canonical_document",
                        lambda text: walked.append(doc := real(text)) or doc)
    monkeypatch.setattr(core, "parse_json", lambda *args: plain.append(args) or real_parse(*args))
    monkeypatch.setattr(core, "MAX_FAMILY_SIZE", 3)
    for entries in (3, 4, 10):
        doc = {"ground_size": 2,
               "entries": [{"index": f"{i + 1}/16", "set": [i % 2]} for i in range(entries)]}
        path = tmp_path / f"{spelling}-{entries}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n" if spelling == "canonical"
                        else json.dumps(doc, separators=(",", ":")))
        walked.clear()
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        if entries == 3:
            assert code == 0 and out.startswith("chain: witness n=0 x=1/16 y=1/8\n")
        else:
            assert (code, out, err) == (1, "", "input-error: entries exceed the cap 3\n")
            if spelling == "canonical":
                assert len(walked[0]["entries"]) == 4
        assert (walked[0] is None) == (spelling == "compact")
    assert plain == []


# Each case asks for a family over core.MAX_FAMILY_BITS (2^25) bits, its
# count times its ground size, and must be refused before any set is built.
_WORDS_20 = [format(2 * i + 1, "028b") for i in range(33)]


@pytest.mark.parametrize(
    "argv, doc, count, size",
    [
        (("generate", "--kind", "sign", "--ground-size", "1048576", "--count", "33"),
         None, 33, 1048576),
        (("generate", "--kind", "perturbed", "--ground-size", "1048576", "--count", "64",
          "--flips", "0"), None, 64, 1048576),
        (("generate", "--config", "{doc}"),
         {"kind": "initial-chain", "ground_size": 1048576, "count": 33}, 33, 1048576),
        (("generate", "--config", "{doc}"),
         {"kind": "marciszewski", "depth": 20, "seed": 1, "count": 65536}, 65536, 1048575),
        (("generate", "--config", "{doc}"),
         {"kind": "perturbed", "ground_size": 1048576, "flips": 0,
          "X": [f"{2 * i + 1}/67" for i in range(33)]}, 33, 1048576),
        (("generate", "--config", "{doc}"),
         {"kind": "marciszewski", "depth": 20, "xs": _WORDS_20}, 33, 1048575),
        (("sweep", "--ground-size", "1048576", "--count", "64", "--flips", "0", "--reps", "1"),
         None, 64, 1048576),
        (("sweep", "--kind", "marciszewski", "--depth", "20", "--count", "33", "--reps", "1"),
         None, 33, 1048575),
    ],
    ids=["sign-flags", "perturbed-flags", "seeded-chain-config", "seeded-marciszewski-config",
         "explicit-perturbed-cuts", "explicit-marciszewski-words", "sweep-perturbed",
         "sweep-marciszewski"],
)
def test_family_over_the_bit_cap_is_one_input_error_line(tmp_path, capsys, argv, doc, count,
                                                          size):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *(a.format(doc=path) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"input-error: {count} sets over {size} elements exceed the cap 33554432\n"


# The bit cap runs after every other check, so each of these keeps its message.
@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (("generate", "--ground-size", "1048576", "--count", "65537"), None,
         "count 65537 exceeds the cap 65536"),
        (("generate", "--kind", "perturbed", "--ground-size", "1048576", "--count", "64",
          "--flips", "1048577"), None, "cannot flip 1048577 distinct bits in a ground of 1048576"),
        (("generate", "--config", "{doc}"),
         {"kind": "perturbed", "ground_size": 1048576, "count": 64, "flips": -1},
         "flips_per_set must be non-negative, got -1"),
        (("generate", "--config", "{doc}"),
         {"kind": "marciszewski", "depth": 20, "xs": [*_WORDS_20, "0101"]},
         "bit word of length 4 is shorter than depth 20"),
        (("generate", "--config", "{doc}"),
         {"kind": "marciszewski", "depth": 20, "xs": [*_WORDS_20, _WORDS_20[0] + "0"]},
         f"duplicate index value {F(1, 1 << 28)}"),
        (("generate", "--config", "{doc}"),
         {"kind": "perturbed", "ground_size": 1048576, "flips": 0, "X": ["1/2"] * 33},
         "cut indices not strictly increasing at 1/2 >= 1/2"),
        (("generate", "--config", "{doc}"),
         {"kind": "perturbed", "ground_size": 1048576, "flips": 0,
          "X": ["1/1048577", *(f"{i}/64" for i in range(2, 34))]},
         "cut index 1/1048577 coincides with a ground position"),
        (("sweep", "--ground-size", "1048576", "--count", "64", "--reps", "0"), None,
         "sweep needs --reps of at least 1"),
        (("sweep", "--ground-size", "1048576", "--count", "64", "--flips", "1048576"), None,
         "sweep grid of 1048577 values times 3 reps exceeds the cap 65536"),
    ],
    ids=["count", "flips-flag", "flips-config", "short-word", "duplicate-word", "cut-order",
         "coinciding-cut", "sweep-reps", "sweep-grid"],
)
def test_the_bit_cap_comes_after_every_other_check(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(doc=path) for a in argv))
    assert (code, out, err) == (1, "", f"input-error: {message}\n")


def _family_doc(size, *sets, indices=None):
    indices = indices or [f"{i + 1}/{len(sets) + 1}" for i in range(len(sets))]
    return {"ground_size": size,
            "entries": [{"index": x, "set": s} for x, s in zip(indices, sets)]}


# Each message was recorded from the element-by-element parser this one
# replaced: range errors name the first offender in file order, and come
# after every shape error and after the ground size check.
@pytest.mark.parametrize(
    "doc, message",
    [
        (_family_doc(2048, [1, 5000, 6000]), "element 5000 outside ground range [0, 2048)"),
        (_family_doc(2048, [0, 1], [3, 9000, 9001], [4096]),
         "element 9000 outside ground range [0, 2048)"),
        (_family_doc(4, [-1, 0]), "element -1 outside ground range [0, 4)"),
        (_family_doc(4, [True]), "element True outside ground range [0, 4)"),
        (_family_doc(4, [0, True]), "element True outside ground range [0, 4)"),
        (_family_doc(4, [2, 1]), "set elements must be strictly increasing: [2, 1]"),
        (_family_doc(4, [1, 1]), "set elements must be strictly increasing: [1, 1]"),
        (_family_doc(4, [2, 1, 1.5]), "set must be a list of integers: [2, 1, 1.5]"),
        (_family_doc(4, [3, True]), "set elements must be strictly increasing: [3, True]"),
        (_family_doc(4, [7], [2, 1]), "set elements must be strictly increasing: [2, 1]"),
        (_family_doc(4, [7], [1], indices=["1/2", "x"]), "malformed index 'x', expected 'p/q'"),
        (_family_doc(True, [3]), "ground size must be a positive integer, got True"),
        (_family_doc(4, [0], [9], indices=["1/2", "2/4"]),
         "element 9 outside ground range [0, 4)"),
        (_family_doc(4, [0], [1], indices=["1/2", "2/4"]), "duplicate index 1/2"),
        (_family_doc(4, [0, 1.0]), "set must be a list of integers: [0, 1.0]"),
        (_family_doc(4, [5, 1]), "set elements must be strictly increasing: [5, 1]"),
        (_family_doc(4, [[0]]), "set must be a list of integers: [[0]]"),
        (_family_doc(4, ["0"]), "set must be a list of integers: ['0']"),
        ({"ground_size": 4, "entries": [{"index": "x", "set": [0]}, {"index": "1/2"}]},
         "malformed index 'x', expected 'p/q'"),
        ({"ground_size": 4, "entries": 5}, "entries must be a list"),
        ({"ground_size": 4, "entries": [{"index": "1/2", "set": 5}]},
         "set must be a list of integers: 5"),
    ],
    ids=["first-offender-not-max", "later-entry", "negative", "bool", "bool-after-int",
         "decreasing", "repeated", "non-int-before-order", "bool-out-of-order",
         "shape-before-range", "index-before-range", "ground-size-before-range",
         "range-before-duplicate", "duplicate-index", "float-after-int",
         "last-in-range-but-unsorted", "nested-list", "string", "index-before-later-entry",
         "entries-not-a-list", "set-not-a-list"],
)
def test_family_parse_error_messages(tmp_path, capsys, doc, message):
    fam = tmp_path / "bad.json"
    fam.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", "--input", str(fam))
    assert (code, out, err) == (1, "", f"input-error: {message}\n")


def test_gap_tower_rows_may_be_unsorted_but_not_out_of_range(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    inst.write_text(json.dumps(
        {"ground_size": 4, "ascending": [[2, 1, 2]], "descending": [[3, 2, 1]]}))
    code, out, _ = run_cli(capsys, "gap", "--input", str(inst), "--budget", "3")
    assert code == 0
    assert json.loads(out)["interpolant"] == [1, 2]
    inst.write_text(json.dumps(
        {"ground_size": 4, "ascending": [[2, 9, 1]], "descending": [[1]]}))
    code, out, err = run_cli(capsys, "gap", "--input", str(inst), "--budget", "3")
    assert (code, out, err) == (1, "", "input-error: element 9 outside ground range [0, 4)\n")


# Every document kind goes through one JSON reader; an integer over Python's
# 4300-digit conversion limit and nesting past the recursion limit are input
# errors there, not tracebacks.
_DOCUMENT_KINDS = {
    "family": (("check", "--input", "{doc}"), '{"ground_size": BIG, "entries": []}'),
    "gap": (("gap", "--input", "{doc}"),
            '{"ground_size": 3, "ascending": [[BIG]], "descending": []}'),
    "config": (("generate", "--config", "{doc}"),
               '{"kind": "perturbed", "ground_size": BIG, "flips": 1, "count": 2}'),
    "function": (("operator", "--input", "{fam}", "--function", "{doc}"),
                 '{"values": {"1/1": BIG}}'),
    "model": (("operator", "--input", "{fam}", "--model", "{doc}"),
              '{"carrier": [BIG], "dense": []}'),
}


@pytest.mark.parametrize("payload", ["long-integer", "deep-nesting"])
@pytest.mark.parametrize("kind", list(_DOCUMENT_KINDS))
def test_unparsable_json_is_one_input_error_line(tmp_path, capsys, kind, payload):
    argv, template = _DOCUMENT_KINDS[kind]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"ground_size": 1, "entries": [{"index": "1/1", "set": [0]}]}))
    doc = tmp_path / "doc.json"
    if payload == "long-integer":
        doc.write_text(template.replace("BIG", "7" * 5000))
    else:
        doc.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, *(a.format(doc=doc, fam=fam) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("input-error:") and "cannot be parsed" in err
    assert err.count("\n") == 1


# An object that names a key twice is refused in every document kind, not read
# with its last value.  The canonical family is walked entry by entry, the
# compact ones decoded in one go.
_REPEATED_KEYS = {
    "family": (("check", "--input", "{doc}"),
               '{"ground_size": 2, "entries": [{"index": "1/2", "set": [0], "set": [1]}]}',
               "family document repeats the key 'set'"),
    "family-canonical": (
        ("check", "--input", "{doc}"),
        '{\n  "ground_size": 2,\n  "entries": [\n    {\n      "index": "1/2",\n'
        '      "set": [\n        0\n      ],\n      "set": [\n        1\n      ]\n    }\n  ]\n}\n',
        "family document repeats the key 'set'"),
    "family-head": (("check", "--input", "{doc}"),
                    '{"ground_size": 2, "ground_size": 3, "entries": []}',
                    "family document repeats the key 'ground_size'"),
    "gap": (("gap", "--input", "{doc}"),
            '{"ground_size": 4, "ascending": [[0]], "ascending": [[1]], "descending": [[0, 1]]}',
            "gap instance repeats the key 'ascending'"),
    "config": (("generate", "--config", "{doc}"),
               '{"kind": "perturbed", "seed": 1, "seed": 2, "ground_size": 8, "count": 4,'
               ' "flips": 1}',
               "generator config repeats the key 'seed'"),
    "function": (("operator", "--input", "{fam}", "--function", "{doc}"),
                 '{"values": {"1/1": "1/2", "1/1": "5/1"}}',
                 "function document repeats the key '1/1'"),
    "model": (("operator", "--input", "{fam}", "--model", "{doc}"),
              '{"carrier": ["1/1"], "carrier": ["1/1", "2/1"], "dense": ["1/1"]}',
              "model document repeats the key 'carrier'"),
}


@pytest.mark.parametrize("kind", list(_REPEATED_KEYS))
def test_a_repeated_key_is_one_input_error_line(tmp_path, capsys, kind):
    argv, text, message = _REPEATED_KEYS[kind]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"ground_size": 1, "entries": [{"index": "1/1", "set": [0]}]}))
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code, out, err = run_cli(capsys, *(a.format(doc=doc, fam=fam) for a in argv))
    assert (code, out, err) == (1, "", f"input-error: {message}\n")


def _strict_family_and_function(tmp_path, denominators):
    """A one-element family with the strict triple (1/4, 1/2, 3/4), and f = 1/d there."""
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"ground_size": 1, "entries": [
        {"index": "1/4", "set": [0]}, {"index": "1/2", "set": []},
        {"index": "3/4", "set": [0]}]}))
    f = tmp_path / "f.json"
    values = {p: f"1/{d}" for p, d in zip(("1/4", "1/2", "3/4"), denominators)}
    f.write_text(json.dumps({"values": values}))
    return fam, f


def _coprime_denominators(digits):
    """Three pairwise coprime integers of exactly `digits` digits: n, n+1, n+2 for odd n."""
    n = 10**digits - 3
    return n, n + 1, n + 2


def test_function_values_at_the_digit_cap_format(tmp_path, capsys):
    # Ef(0) = 1/n - 1/(n+1) + 1/(n+2) has a denominator of about 3000 digits.
    denominators = _coprime_denominators(1000)
    fam, f = _strict_family_and_function(tmp_path, denominators)
    code, out, err = run_cli(capsys, "operator", "--input", str(fam), "--function", str(f))
    assert (code, err) == (0, "")
    n, a, b = denominators
    ef = F(1, n) - F(1, a) + F(1, b)
    assert out.splitlines()[-1] == f"0\t{ef}"
    assert len(str(ef.denominator)) == 3000


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("check", "--input", "{doc}"), {"ground_size": 1, "entries": [
            {"index": "1" * 1001 + "/3", "set": []}]}),
        (("check", "--input", "{doc}"), {"ground_size": 1, "entries": [
            {"index": "1/" + "3" * 1001, "set": []}]}),
        (("generate", "--config", "{doc}"), {"kind": "marciszewski", "depth": 3,
                                             "xs": ["0" * 14_999 + "1"]}),
        (("generate", "--config", "{doc}"), {"kind": "marciszewski", "depth": 3,
                                             "xs": ["1" * 1001]}),
    ],
    ids=["numerator", "denominator", "bit-word-15000", "bit-word-1001"],
)
def test_index_over_the_digit_cap_is_one_input_error_line(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(doc=path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("input-error:") and "1000" in err
    assert err.count("\n") == 1


def test_function_values_over_the_digit_cap_are_refused(tmp_path, capsys):
    fam, f = _strict_family_and_function(tmp_path, _coprime_denominators(3000))
    code, out, err = run_cli(capsys, "operator", "--input", str(fam), "--function", str(f))
    assert (code, out) == (1, "")
    assert err == "input-error: index numerator or denominator exceeds 1000 digits\n"


def test_function_naming_one_point_twice_is_one_input_error_line(tmp_path, capsys):
    # 2/4 is 1/2 again: the later value must not silently replace the earlier one.
    fam = tmp_path / "s.json"
    fam.write_text(json.dumps(_family_doc(3, [0], [1], [0, 1, 2])))
    f = tmp_path / "fn.json"
    f.write_text(json.dumps({"values": {"1/4": "1/1", "1/2": "-1/1", "2/4": "5/1", "3/4": "1/1"}}))
    code, out, err = run_cli(capsys, "operator", "--input", str(fam), "--function", str(f))
    assert (code, out, err) == (1, "", "input-error: duplicate point 1/2\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["check", "--input", "{family}"],
    ["generate", "--kind", "perturbed", "--ground-size", "512", "--count", "200"],
    ["triples", "--input", "{family}"],
    ["adjust", "--input", "{family}", "--output", "{adjusted}"],
    ["compat", "--input", "{family}", "--input", "{family}"],
    ["gap", "--input", "{gap}", "--budget", "1"],
    ["operator", "--input", "{family}"],
    ["sweep"],
], ids=["check", "generate", "triples", "adjust-receipts", "compat", "gap", "operator", "sweep"])
def test_a_failed_stdout_write_is_one_input_error_line(tmp_path, argv):
    # The output is flushed where the error is caught: nothing is left for exit to fail on.
    family = tmp_path / "f.json"
    family.write_text(json.dumps(_family_doc(3, [0], [1], [0, 1, 2])))
    gap = tmp_path / "t.json"
    gap.write_text(json.dumps({"ground_size": 4, "ascending": [[0], [0, 3]],
                               "descending": [[0, 1, 2], [0, 1]]}))
    args = [a.format(family=family, adjusted=tmp_path / "a.json", gap=gap) for a in argv]
    env = dict(os.environ)
    src = str(Path(chainlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "chainlab.cli", *args],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "input-error: cannot write stdout: [Errno 28] No space left on device\n"
