"""End-to-end command behaviour, format plumbing, and error reporting."""

from __future__ import annotations

import json

import pytest

from chainlab.cli import main


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
    ],
    ids=["zero-denominator", "not-utf8", "bool-ground-size", "bool-elements"],
)
def test_malformed_input_is_one_input_error_line(tmp_path, capsys, raw):
    fam = tmp_path / "bad.json"
    fam.write_bytes(raw)
    code, out, err = run_cli(capsys, "check", "--input", str(fam))
    assert code == 1
    assert out == ""
    assert err.startswith("input-error:")
    assert err.count("\n") == 1
