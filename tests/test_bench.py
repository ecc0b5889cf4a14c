"""Benchmark pipeline and CLI tests at desk scale."""

import argparse
import dataclasses
import json
import re
import time

import numpy as np
import pytest

from dltf import baselines, bench, cli, core, encoder, guarantees, trainer
from dltf.errors import InvalidK, SingularSubproblem


def tiny_config(**overrides):
    base = dict(n=16, m=24, N_train=200, N_test=200, k_list=(2,), seeds=(0,),
                methods=("original", "random"), dltf_outer_iters=3,
                ksvd_iters=3)
    base.update(overrides)
    return bench.BenchConfig(**base)


def test_generate_synthetic_deterministic():
    a = bench.generate_synthetic(12, 20, 50, 3, 0.1, seed=7)
    b = bench.generate_synthetic(12, 20, 50, 3, 0.1, seed=7)
    assert a.W0.data.tobytes() == b.W0.data.tobytes()
    assert a.Ztrue.data.tobytes() == b.Ztrue.data.tobytes()
    assert a.X.data.tobytes() == b.X.data.tobytes()
    c = bench.generate_synthetic(12, 20, 50, 3, 0.1, seed=8)
    assert not np.array_equal(a.X.data, c.X.data)


def test_generate_synthetic_structure():
    inst = bench.generate_synthetic(10, 16, 40, 3, 0.1, seed=1)
    assert inst.W0.data.shape == (10, 16)
    assert np.allclose(np.linalg.norm(inst.W0.data, axis=0), 1.0, atol=1e-8)
    Z = inst.Ztrue.data
    assert np.all(np.isin(Z, (0.0, 1.0)))
    assert np.all((Z != 0).sum(axis=0) == 3)


def test_generate_synthetic_noiseless_exact():
    inst = bench.generate_synthetic(10, 16, 30, 2, 0.0, seed=4)
    assert np.array_equal(inst.X.data, inst.W0.data @ inst.Ztrue.data)


def test_generate_synthetic_noise_variance():
    # 50 * 2000 = 1e5 noise draws; sample variance of nstd=0.1 noise
    inst = bench.generate_synthetic(50, 64, 2000, 3, 0.1, seed=11)
    E = inst.X.data - inst.W0.data @ inst.Ztrue.data
    assert abs(np.var(E) - 0.01) <= 0.001


def test_generate_synthetic_invalid_k():
    with pytest.raises(InvalidK):
        bench.generate_synthetic(8, 12, 10, 13, 0.1, seed=0)


def test_generate_synthetic_rejects_bad_noise_and_seed():
    with pytest.raises(TypeError, match="^noise_std=True must be a real number$"):
        bench.generate_synthetic(6, 8, 5, 2, True, 0)
    with pytest.raises(ValueError, match="^noise_std=-1.0 must be finite and nonnegative$"):
        bench.generate_synthetic(6, 8, 5, 2, -1.0, 0)
    with pytest.raises(ValueError, match="^seed=-1 must be at least 0$"):
        bench.generate_synthetic(6, 8, 5, 2, 0.1, -1)


@pytest.mark.parametrize("sizes, error, message", [
    ((6, 8, -1), ValueError, "^N=-1 must be at least 1$"),
    ((0, 8, 5), ValueError, "^n=0 must be at least 1$"),
    ((6, 8.5, 5), TypeError, "^m=8.5 must be an integer$"),
    ((6, 8, True), TypeError, "^N=True must be an integer$"),
], ids=["N=-1", "n=0", "m=8.5", "N=True"])
def test_generate_synthetic_names_a_bad_size(sizes, error, message):
    with pytest.raises(error, match=message):
        bench.generate_synthetic(*sizes, 2, 0.1, 0)


def test_align_atoms_recovers_permutation():
    for seed in range(5):
        rng = np.random.default_rng(80 + seed)
        W = core.normalize_columns(rng.standard_normal((20, 12)))
        perm = rng.permutation(12)
        signs = rng.choice((-1.0, 1.0), size=12)
        W_shuf = core.Dictionary(W.data[:, perm] * signs)
        back = bench.align_atoms(W_shuf, W)
        cos = np.abs(np.einsum("ij,ij->j", back.data, W.data))
        assert np.allclose(cos, 1.0, atol=1e-10)


def test_align_atoms_requires_square_match():
    rng = np.random.default_rng(5)
    A = core.normalize_columns(rng.standard_normal((8, 6)))
    B = core.normalize_columns(rng.standard_normal((8, 7)))
    with pytest.raises(ValueError):
        bench.align_atoms(A, B)


def test_bench_config_validation():
    with pytest.raises(ValueError):
        tiny_config(n=0)
    with pytest.raises(InvalidK):
        tiny_config(k_list=(50,))
    with pytest.raises(ValueError):
        tiny_config(methods=("original", "mystery"))
    for bad in (dict(noise_std=-0.1), dict(noise_std=float("nan")),
                dict(noise_std=float("inf")), dict(k_list=()), dict(seeds=()),
                dict(methods=())):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name}"):
            tiny_config(**bad)
    for bad in (dict(beta=0.0), dict(lam=-1.0), dict(theta=-1.0),
                dict(lam=float("nan")), dict(theta=float("inf")),
                dict(dltf_outer_iters=0), dict(ksvd_iters=0)):
        with pytest.raises(ValueError):
            tiny_config(**bad)
    for bad in (dict(m=24.0), dict(n=16.5), dict(N_train=200.0), dict(N_test=1.5),
                dict(ksvd_iters=2.5), dict(dltf_outer_iters=1.5), dict(ksvd_iters=3.0),
                dict(k_list=(2, 4.0)), dict(n=True), dict(ksvd_iters=True),
                dict(k_list=(True,)), dict(seeds=(True,)), dict(seeds=(0, 0.5))):
        name = next(iter(bad))
        field = "k" if name == "k_list" else name
        with pytest.raises(TypeError, match=f"^{field}=.* must be an integer$"):
            tiny_config(**bad)
    with pytest.raises(ValueError, match="^seeds=-1 must be at least 0$"):
        tiny_config(seeds=(0, -1))
    for name in ("n", "m", "N_train", "N_test", "dltf_outer_iters", "ksvd_iters"):
        with pytest.raises(ValueError, match=f"^{name}=0 must be at least 1$"):
            tiny_config(**{name: 0})
    for name in ("lam", "theta", "beta", "noise_std"):
        for bad in (True, "1", None):
            with pytest.raises(TypeError, match=f"^{name}=.* must be a real number$"):
                tiny_config(**{name: bad})
    with pytest.raises(ValueError):
        tiny_config(out="")


def test_bench_report_structure():
    cfg = tiny_config(methods=("original", "random", "ksvd", "dltf"))
    report = bench.run_support_recovery_bench(cfg)
    assert not report["partial"]
    assert report["config"]["n"] == 16
    assert report["version"]
    assert len(report["cells"]) == 4
    for cell in report["cells"]:
        assert 0.0 <= cell["ave_dif"] <= cfg.k_list[0]
        assert cell["encode_ms"] >= 0.0
    by_method = {c["method"]: c for c in report["cells"]}
    assert by_method["original"]["ave_dif"] <= by_method["random"]["ave_dif"]
    assert "coherence" in by_method["dltf"]
    assert "init_coherence" in by_method["dltf"]
    assert by_method["dltf"]["rounds"] == cfg.dltf_outer_iters
    assert by_method["dltf"]["iht_steps"] >= cfg.dltf_outer_iters
    assert 0 <= by_method["dltf"]["w_steps"] <= cfg.dltf_outer_iters * 30


def test_bench_init_coherence_is_the_trainers_start(monkeypatch):
    # the dltf cell reports the coherence of init_state's dictionary, drawn
    # again with core.random_dictionary instead of a second init_state call
    cfg = tiny_config(methods=("dltf",))
    k, seed = cfg.k_list[0], cfg.seeds[0]
    dltf_seed = bench._cell_seed_int(seed, bench._STREAM_DLTF, k)
    X = core.DataMatrix(np.random.default_rng(3).standard_normal((cfg.n, 50)))
    hp = trainer.Hyperparams(m=cfg.m, k=k)
    drawn = core.random_dictionary(cfg.n, cfg.m, dltf_seed).data
    assert drawn.tobytes() == trainer.init_state(X, hp, dltf_seed).W.data.tobytes()
    starts = []
    init_state = trainer.init_state

    def recorded(X, hp, seed):
        state = init_state(X, hp, seed)
        starts.append(state.W)
        return state

    monkeypatch.setattr(trainer, "init_state", recorded)
    cell = bench.run_support_recovery_bench(cfg)["cells"][0]
    assert len(starts) == 1  # train's own call
    assert cell["init_coherence"] == guarantees.mutual_coherence(starts[0]).mu


def test_bench_noiseless_original_k1_recovers_exactly():
    cfg = tiny_config(n=16, m=16, k_list=(1,), noise_std=0.0,
                      methods=("original",))
    report = bench.run_support_recovery_bench(cfg)
    assert report["cells"][0]["ave_dif"] == 0.0


def test_bench_partial_flag(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(bench.baselines, "ksvd_train", boom)
    cfg = tiny_config(methods=("original", "ksvd"))
    report = bench.run_support_recovery_bench(cfg)
    assert report["partial"]
    errs = [c for c in report["cells"] if "error" in c]
    assert len(errs) == 1 and errs[0]["method"] == "ksvd"
    assert bench.report_csv(report).splitlines()[-1].endswith("error")


def test_report_csv_byte_identical_across_runs():
    cfg = tiny_config(methods=("original", "random", "dltf"))
    a = bench.report_csv(bench.run_support_recovery_bench(cfg))
    b = bench.report_csv(bench.run_support_recovery_bench(cfg))
    assert a == b
    assert a.splitlines()[0] == "method,k,seed,ave_dif"


def test_report_json_round_trip():
    cfg = tiny_config()
    report = bench.run_support_recovery_bench(cfg)
    text = bench.report_json(report)
    assert json.loads(text)["cells"] == report["cells"]


def test_write_report_creates_files(tmp_path):
    cfg = tiny_config()
    report = bench.run_support_recovery_bench(cfg)
    prefix = str(tmp_path / "rep")
    json_path, csv_path = bench.write_report(report, prefix)
    assert json_path.endswith(".json") and csv_path.endswith(".csv")
    with open(csv_path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "method,k,seed,ave_dif"
    with open(json_path, encoding="utf-8") as fh:
        assert json.load(fh)["config"]["m"] == cfg.m


def test_sweep_rejects_unknown_param():
    with pytest.raises(ValueError):
        bench.run_param_sweep(tiny_config(), "beta", [1.0])
    with pytest.raises(ValueError):
        bench.run_param_sweep(tiny_config(), "lambda", [])


def test_sweep_n_rejects_a_fractional_size(monkeypatch):
    # 8.7 must not run n=8 under the label 8.7, and a bad point stops the
    # sweep before any point runs; whole floats (argparse's parse of
    # "--grid 16") still run
    def no_run(cfg):
        raise AssertionError("a point ran before the grid was checked")

    with monkeypatch.context() as patch:
        patch.setattr(bench, "run_support_recovery_bench", no_run)
        for param, grid in (("n", [16.0, 8.7]), ("lambda", [0.05, float("nan")])):
            with pytest.raises(ValueError):
                bench.run_param_sweep(tiny_config(), param, grid)
    series = bench.run_param_sweep(tiny_config(), "n", [12.0])
    assert series[0]["value"] == 12.0
    assert series[0]["report"]["config"]["n"] == 12


def test_sweep_theta_leaves_instances_alone():
    # original cells depend only on the instances, never on theta
    cfg = tiny_config(methods=("original",))
    series = bench.run_param_sweep(cfg, "theta", [0.005, 0.02])
    vals = [pt["report"]["cells"][0]["ave_dif"] for pt in series]
    assert vals[0] == vals[1]
    assert [pt["value"] for pt in series] == [0.005, 0.02]


def test_sweep_theta_flat_for_dltf():
    cfg = tiny_config(methods=("dltf",), seeds=(0, 1), dltf_outer_iters=4)
    series = bench.run_param_sweep(cfg, "theta", [0.005, 0.01, 0.02])
    means = []
    for pt in series:
        vals = [c["ave_dif"] for c in pt["report"]["cells"]]
        means.append(sum(vals) / len(vals))
    spread = (max(means) - min(means)) / max(means)
    assert spread < 0.25


def test_sweep_n_helps_original():
    cfg = tiny_config(methods=("original",), seeds=(0, 1, 2), N_test=300)
    series = bench.run_param_sweep(cfg, "n", [12, 24, 48])
    means = []
    for pt in series:
        vals = [c["ave_dif"] for c in pt["report"]["cells"]]
        means.append(sum(vals) / len(vals))
    assert means[0] >= means[1] >= means[2]


def test_timing_compare_fields():
    cfg = tiny_config(N_test=150)
    rec = bench.timing_compare(cfg)
    for key in ("n", "m", "N", "k", "thresholded_s", "omp_s", "ratio"):
        assert key in rec
    assert rec["ratio"] > 0.0


def test_timing_compare_times_one_omp_call_per_test_column(monkeypatch):
    # criterion 7's baseline is per-sample omp, not Batch OMP
    calls = []
    for name in ("omp_batch", "omp"):
        fn = getattr(baselines, name)
        monkeypatch.setattr(baselines, name,
                            lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    cfg = tiny_config(N_test=40)
    bench.timing_compare(cfg)
    assert calls == ["omp"] * cfg.N_test


def test_timing_thresholded_scales_linearly():
    # doubling N should roughly double one batched encode
    inst_small = bench.generate_synthetic(64, 128, 4000, 8, 0.1, seed=0)
    inst_big = bench.generate_synthetic(64, 128, 8000, 8, 0.1, seed=0)

    def best_of(inst, reps=5):
        t = []
        for _ in range(reps):
            t0 = time.perf_counter()
            encoder.encode_batch(inst.W0, inst.X, 8)
            t.append(time.perf_counter() - t0)
        return min(t)

    factor = best_of(inst_big) / best_of(inst_small)
    assert 1.5 <= factor <= 3.0


def run_cli(argv):
    return cli.main(argv)


def test_cli_synth_bench_writes_reports(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = run_cli(["synth-bench", "--n", "16", "--m", "24", "--N", "150",
                    "--k", "2", "--seed", "0", "--methods", "original,random",
                    "--out", prefix])
    assert code == 0
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "out.csv").exists()
    assert "ave_dif" in capsys.readouterr().out


def test_cli_synth_bench_csv_deterministic(tmp_path):
    args = ["synth-bench", "--n", "16", "--m", "24", "--N", "150", "--k", "2",
            "--seed", "0", "--methods", "original,random,dltf"]
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(args + ["--out", p1]) == 0
    assert run_cli(args + ["--out", p2]) == 0
    with open(p1 + ".csv", "rb") as fh:
        blob1 = fh.read()
    with open(p2 + ".csv", "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 16, "m": 24, "N_train": 120, "N_test": 120, "k_list": [2],
        "seeds": [0], "methods": ["original"], "lambda": 0.5,
        "theta": 0.5, "beta": 3.0,
    }))
    prefix = str(tmp_path / "r")
    code = run_cli(["synth-bench", "--config", str(cfg_path),
                    "--N", "100", "--out", prefix])
    assert code == 0
    with open(prefix + ".json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["config"]["lam"] == 0.5
    assert report["config"]["N_train"] == 100
    assert report["config"]["N_test"] == 100
    assert (report["config"]["theta"], report["config"]["beta"]) == (0.5, 3.0)

    # every flag that sets a field overrides the file's value
    code = run_cli(["synth-bench", "--config", str(cfg_path), "--n", "12",
                    "--m", "20", "--k", "3", "--seed", "1", "2",
                    "--methods", "random,original", "--lambda", "0.2",
                    "--theta", "0.03", "--beta", "2", "--out", prefix])
    assert code == 0
    with open(prefix + ".json", encoding="utf-8") as fh:
        config = json.load(fh)["config"]
    assert {key: config[key] for key in ("n", "m", "k_list", "seeds", "methods",
                                         "lam", "theta", "beta", "N_train")} == {
        "n": 12, "m": 20, "k_list": [3], "seeds": [1, 2],
        "methods": ["random", "original"], "lam": 0.2, "theta": 0.03,
        "beta": 2.0, "N_train": 120}


def test_cli_rejects_unknown_method(tmp_path):
    code = run_cli(["synth-bench", "--n", "16", "--m", "24", "--N", "100",
                    "--k", "2", "--seed", "0", "--methods", "original,ghost",
                    "--out", str(tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize("flag", [["--methods", ""], ["--out", ""]])
def test_cli_empty_methods_or_out_exits_one_without_report(tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)  # an empty --out would write .json/.csv here
    code = run_cli(["synth-bench", "--n", "16", "--m", "24", "--N", "100",
                    "--k", "2", "--seed", "0", "--methods", "original",
                    "--out", str(tmp_path / "x")] + flag)
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ['"methods": []', '"k_list": []', '"seeds": []',
                                 '"noise_std": NaN', '"noise_std": Infinity',
                                 '"seeds": [true]', '"n": true', '"seeds": [-1]',
                                 '"seeds": [0.5]', '"methods": "dltf"',
                                 '"k_list": 4', '"lam": true', '"noise_std": true',
                                 '"beta": "1"', '"theta": null'])
def test_cli_bad_config_file_exits_one_without_report(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"n": 16, "m": 24, "N_train": 100, "N_test": 100, '
                        '"k_list": [2], "seeds": [0], "methods": ["original"], '
                        + bad + "}")
    out = tmp_path / "out"
    out.mkdir()
    code = run_cli(["synth-bench", "--config", str(cfg_path), "--out", str(out / "r")])
    assert code == 1
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    field = bad.split(":")[0].strip('"')
    assert re.match(rf"error: {field}[= ]", err), err


def test_cli_sweep_fractional_n_exits_one_without_report(tmp_path):
    code = run_cli(["sweep", "--param", "n", "--grid", "16", "8.7", "--m", "24",
                    "--N", "100", "--k", "2", "--seed", "0", "--methods", "original",
                    "--out", str(tmp_path / "sw")])
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--beta", "0"], ["--lambda", "-1"], ["--lambda", "nan"]])
def test_cli_bad_trainer_weight_exits_one_without_report(tmp_path, flag):
    prefix = tmp_path / "x"
    code = run_cli(["synth-bench", "--n", "16", "--m", "24", "--N", "100",
                    "--k", "2", "--seed", "0", "--out", str(prefix)] + flag)
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_train_encode_coherence_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    X = core.DataMatrix(rng.standard_normal((12, 80)))
    data_path = str(tmp_path / "X.dltx")
    core.save_data_matrix(X, data_path)
    dict_path = str(tmp_path / "W.dltf")
    log_path = str(tmp_path / "train.json")
    code = run_cli(["train", "--data", data_path, "--m", "16", "--k", "2",
                    "--iters", "2", "--seed", "5", "--out", dict_path,
                    "--log", log_path])
    assert code == 0
    with open(log_path, encoding="utf-8") as fh:
        log = json.load(fh)
    assert len(log) == 2 and "lagrangian" in log[0]

    codes_path = str(tmp_path / "Z.csv")
    code = run_cli(["encode", "--dict", dict_path, "--data", data_path,
                    "--k", "2", "--out", codes_path])
    assert code == 0
    with open(codes_path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert len(rows) == 80
    assert all(len(r) == 16 for r in rows)
    assert all(sum(float(v) != 0.0 for v in r) <= 2 for r in rows)

    code = run_cli(["coherence", "--dict", dict_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "mutual coherence" in out


def test_cli_train_negative_seed_exits_one_naming_the_field(tmp_path, capsys):
    data_path = str(tmp_path / "X.dltx")
    core.save_data_matrix(core.DataMatrix(np.random.default_rng(7).standard_normal((6, 20))),
                          data_path)
    dict_path = tmp_path / "W.dltf"
    code = run_cli(["train", "--data", data_path, "--m", "8", "--k", "2",
                    "--seed", "-1", "--out", str(dict_path)])
    assert code == 1
    assert not dict_path.exists()
    assert capsys.readouterr().err.startswith("error: seed=-1 ")


def test_cli_train_without_weight_flags_uses_hyperparams_defaults(tmp_path):
    rng = np.random.default_rng(6)
    X = core.DataMatrix(rng.standard_normal((10, 60)))
    data_path = str(tmp_path / "X.dltx")
    core.save_data_matrix(X, data_path)
    dict_path = str(tmp_path / "W.dltf")
    code = run_cli(["train", "--data", data_path, "--m", "14", "--k", "2",
                    "--seed", "9", "--out", dict_path])
    assert code == 0
    W, _ = trainer.train(X, trainer.Hyperparams(m=14, k=2), seed=9)
    expected = str(tmp_path / "expected.dltf")
    core.save_dictionary(W, expected)
    with open(dict_path, "rb") as got, open(expected, "rb") as want:
        assert got.read() == want.read()


# Flags that set no field of the command's dataclass, each read by name.
NON_FIELD_FLAGS = {
    "synth-bench": {"config", "N"},
    "sweep": {"config", "N", "param", "grid"},
    "train": {"data", "seed", "out", "log"},
}


@pytest.mark.parametrize("command, cls", [("synth-bench", bench.BenchConfig),
                                          ("sweep", bench.BenchConfig),
                                          ("train", trainer.Hyperparams)])
def test_cli_flag_dests_are_fields(command, cls):
    # cli._given passes on only the flags whose dest is a field, so a
    # misspelt dest would be dropped without a word
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(cls)}
    stray = [action.dest for action in sub.choices[command]._actions
             if action.option_strings and not isinstance(action, argparse._HelpAction)
             and action.dest not in fields | NON_FIELD_FLAGS[command]]
    assert not stray, stray


def test_cli_missing_file_is_validation_error(tmp_path):
    code = run_cli(["coherence", "--dict", str(tmp_path / "nope.dltf")])
    assert code == 1


def test_cli_library_errors_exit_one(tmp_path, capsys):
    rng = np.random.default_rng(4)
    data_path = str(tmp_path / "X.dltx")
    core.save_data_matrix(core.DataMatrix(rng.standard_normal((6, 10))), data_path)
    dict_path = str(tmp_path / "W.dltf")
    core.save_dictionary(core.normalize_columns(rng.standard_normal((6, 8))), dict_path)
    # a data container read as a dictionary has the wrong magic
    assert run_cli(["coherence", "--dict", data_path]) == 1
    assert "bad magic" in capsys.readouterr().err
    assert run_cli(["encode", "--dict", dict_path, "--data", data_path,
                    "--k", "0", "--out", str(tmp_path / "Z.csv")]) == 1
    assert "k=0" in capsys.readouterr().err


def test_cli_prox_selftest_rejects_zero_count(capsys):
    assert run_cli(["prox-selftest", "--count", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "count=0" in captured.err


def test_cli_prox_selftest_smoke(capsys):
    code = run_cli(["prox-selftest", "--count", "10"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_ok"] and report["sweep_ok"]


def test_cli_timing_smoke(capsys):
    code = run_cli(["timing", "--n", "16", "--m", "24", "--N", "200",
                    "--k", "2", "--seed", "0"])
    assert code == 0
    assert "ratio" in capsys.readouterr().out


def test_cli_sweep_smoke(tmp_path, capsys):
    prefix = str(tmp_path / "sw")
    code = run_cli(["sweep", "--param", "theta", "--grid", "0.01", "0.02",
                    "--n", "16", "--m", "24", "--N", "100", "--k", "2",
                    "--seed", "0", "--methods", "original", "--out", prefix])
    assert code == 0
    with open(prefix + ".json", encoding="utf-8") as fh:
        series = json.load(fh)
    assert len(series) == 2


def _failing_train(monkeypatch):
    def boom(*args, **kwargs):
        raise SingularSubproblem("forced failure")

    monkeypatch.setattr(trainer, "train", boom)


def test_cli_sweep_partial_report_exits_two(tmp_path, capsys, monkeypatch):
    _failing_train(monkeypatch)
    prefix = str(tmp_path / "sw")
    code = run_cli(["sweep", "--param", "theta", "--grid", "0.01",
                    "--n", "16", "--m", "24", "--N", "100", "--k", "2",
                    "--seed", "0", "--methods", "original,dltf", "--out", prefix])
    assert code == 2
    assert "theta=0.01: dltf mean ave_dif=n/a" in capsys.readouterr().out
    with open(prefix + ".json", encoding="utf-8") as fh:
        series = json.load(fh)
    assert len(series) == 1 and series[0]["report"]["partial"]


def test_cli_synth_bench_partial_report_exits_two(tmp_path, capsys, monkeypatch):
    _failing_train(monkeypatch)
    prefix = str(tmp_path / "out")
    code = run_cli(["synth-bench", "--n", "16", "--m", "24", "--N", "100",
                    "--k", "2", "--seed", "0", "--methods", "original,dltf",
                    "--out", prefix])
    assert code == 2
    out = capsys.readouterr().out
    assert "  dltf k=2 seed=0: ERROR\n" in out
    assert "  original k=2 seed=0: ave_dif=" in out
    assert (tmp_path / "out.json").exists() and (tmp_path / "out.csv").exists()


def test_cli_bad_flags_exit_code_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["synth-bench", "--k", "not-an-int"])
    assert exc.value.code == 1


def test_cli_module_entry_point():
    import os
    import subprocess
    import sys
    import dltf
    # the subprocess does not see pytest's pythonpath setting
    src = os.path.dirname(os.path.dirname(dltf.__file__))
    proc = subprocess.run([sys.executable, "-m", "dltf", "--version"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0
