"""What scripts/compare_outputs.py reports about differing output files."""

import importlib.util
import json
import os
import subprocess

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_differing_csv_columns_and_json_keys(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a / "run" / "trace.csv", "t,F_hat,lambda_norm,subopt\n0,1.5,0.0,2.0\n1,1.25,0.5,1.0\n")
    write(b / "run" / "trace.csv", "t,F_hat,lambda_norm,subopt\n0,1.5,0.0,2.5\n1,1.5,0.5,1.0\n")
    summary = {"f_star": 1.0, "seeds": [0, 1], "slope": float("nan"),
               "advisor": {"L_f": 2.0, "sigma_f2": 3.0}}
    write(a / "run" / "summary.json", json.dumps(summary))
    summary.update(f_star=1.5, advisor={"L_f": 2.5, "sigma_f2": 3.0, "extra": 1})
    write(b / "run" / "summary.json", json.dumps(summary))
    write(a / "run" / "same.csv", "t\n0\n")
    write(b / "run" / "same.csv", "t\n0\n")
    write(a / "only_here.json", "{}")

    diff = compare_outputs.differing_files(str(a), str(b))
    assert diff == ["only_here.json", os.path.join("run", "summary.json"),
                    os.path.join("run", "trace.csv")]
    said = {path: compare_outputs.what_differs(str(a / path), str(b / path)) for path in diff}
    assert said == {
        "only_here.json": "only on one side",
        os.path.join("run", "summary.json"): "keys f_star, advisor.L_f, advisor.extra",
        os.path.join("run", "trace.csv"): "columns F_hat, subopt",
    }


def test_columns_present_on_one_side_and_byte_only_differences(tmp_path):
    write(tmp_path / "a.csv", "t,x\n0,1\n")
    write(tmp_path / "b.csv", "t,y\n0,1\n")
    assert compare_outputs.what_differs(str(tmp_path / "a.csv"),
                                        str(tmp_path / "b.csv")) == "columns x, y"
    # the same values written differently: no column or key to name
    write(tmp_path / "c.json", '{"k": 1}')
    write(tmp_path / "d.json", '{"k":  1}')
    assert compare_outputs.what_differs(str(tmp_path / "c.json"),
                                        str(tmp_path / "d.json")) == "content"


def test_advise_and_audit_stdout_is_saved_per_config_and_verb(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        verb, config = cmd[3], os.path.basename(cmd[4])
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{verb} of {config}\n", stderr="")

    monkeypatch.setattr(compare_outputs.subprocess, "run", fake_run)
    out = tmp_path / "out"
    compare_outputs.run_outputs("checkout", str(out), T=7)
    stems = [os.path.splitext(c)[0] for c in compare_outputs.CONFIGS]
    assert sorted(os.listdir(out)) == sorted(f"{s}-{v}.txt" for s in stems
                                             for v in ("advise", "audit"))
    assert (out / "pricing-audit.txt").read_text(encoding="utf-8") == "audit of pricing.json\n"
    # every config runs all four verbs at the horizon; only run and compare write files
    assert [(cmd[3], cmd[5:7], "--out" in cmd) for cmd in calls[:-2]] == [
        (verb, ["--T", "7"], verb in ("run", "compare"))
        for _ in stems for verb in ("run", "compare", "advise", "audit")]
    # then pricing once more with a stale window wider than an observation block
    tau70 = calls[-2]
    assert (tau70[3], os.path.basename(tau70[4]), tau70[5:9]) == (
        "run", "pricing.json", ["--T", "7", "--tau", "70"])
    assert tau70[-2:] == ["--out", str(out / "pricing-run-tau70")]
    # and consensus at a horizon of two whole blocks: the last --T wins
    last = calls[-1]
    assert (last[3], os.path.basename(last[4]), last[5:9]) == (
        "run", "consensus.json", ["--T", "7", "--T", "128"])
    assert last[-2:] == ["--out", str(out / "consensus-run-T128")]
