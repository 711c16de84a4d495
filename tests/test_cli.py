"""Command-line interface: record formats, determinism, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from histmix import build_source, kl_trajectory, load_config

UNIFORM_CFG = """\
source = uniform-iid
levels = 3
n = 256
checkpoints = 128,256
seeds = 0,1,2
"""

MIXED_CFG = """\
source = mixed-atom
levels = 2
n = 128
checkpoints = 64,128
seeds = 0,1
"""

COUNTABLE_CFG = "source = countable-geometric\nlevels = 3\nn = 128\n"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "histmix.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture
def cfgdir(tmp_path):
    for name, text in [
        ("uniform.cfg", UNIFORM_CFG),
        ("mixed.cfg", MIXED_CFG),
        ("countable.cfg", COUNTABLE_CFG),
    ]:
        (tmp_path / name).write_text(text)
    return tmp_path


def synth(cfgdir, cfg, out, *extra):
    run_cli("synth", "--config", str(cfgdir / cfg), "--output", str(cfgdir / out), *extra)
    return cfgdir / out


def test_synth_deterministic_bytes(cfgdir):
    a = synth(cfgdir, "uniform.cfg", "a.obs").read_bytes()
    b = synth(cfgdir, "uniform.cfg", "b.obs").read_bytes()
    assert a == b
    c = synth(cfgdir, "uniform.cfg", "c.obs", "--seed", "9").read_bytes()
    assert a != c


def test_synth_header_and_values(cfgdir):
    lines = synth(cfgdir, "uniform.cfg", "u.obs").read_text().splitlines()
    assert lines[0].startswith("# source=uniform-iid seed=0 n=256 digest=")
    values = [float(s) for s in lines[1:]]
    assert len(values) == 256
    assert all(0.0 <= v < 1.0 for v in values)


def test_synth_mixed_lines(cfgdir):
    lines = synth(cfgdir, "mixed.cfg", "m.obs").read_text().splitlines()[1:]
    atoms = [s for s in lines if s == "-1.0"]
    others = [s for s in lines if s != "-1.0"]
    assert atoms and others
    assert all("." in s for s in others)
    assert all(0.0 <= float(s) < 1.0 for s in others)


def test_synth_countable_integer_lines(cfgdir):
    lines = synth(cfgdir, "countable.cfg", "g.obs").read_text().splitlines()[1:]
    assert all(s.isdigit() for s in lines)
    assert all(int(s) >= 1 for s in lines)


def test_estimate_records(cfgdir):
    obs = synth(cfgdir, "uniform.cfg", "u.obs")
    proc = run_cli("estimate", "--config", str(cfgdir / "uniform.cfg"), "--input", str(obs))
    records = [l for l in proc.stdout.splitlines() if l.startswith("record=estimate")]
    assert len(records) == 2
    for rec, n in zip(records, (128, 256)):
        fields = dict(kv.split("=", 1) for kv in rec.split()[1:])
        assert fields["n"] == str(n)
        assert len(fields["digest"]) == 12
        assert float(fields["logloss_bits"]) > 0.0
        assert "kl_bits" in fields  # source with an oracle reports the gap too
        post = [float(x) for x in fields["posterior"].split(",")]
        assert len(post) == 3
        assert abs(sum(post) - 1.0) < 1e-9


def test_estimate_deterministic(cfgdir):
    obs = synth(cfgdir, "uniform.cfg", "u.obs")
    args = ("estimate", "--config", str(cfgdir / "uniform.cfg"), "--input", str(obs))
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_estimate_out_of_support_names_line(cfgdir):
    bad = cfgdir / "bad.obs"
    bad.write_text("0.5\n0.25\n1.5\n")
    proc = run_cli(
        "estimate", "--config", str(cfgdir / "uniform.cfg"), "--input", str(bad), check=False
    )
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_estimate_weight_penalty_bound(cfgdir):
    # more levels cannot cost more than the coarsest level's log weight
    (cfgdir / "one.cfg").write_text("levels = 1\nn = 4096\ncheckpoints = 4096\n")
    (cfgdir / "four.cfg").write_text("levels = 4\nn = 4096\ncheckpoints = 4096\n")
    (cfgdir / "synth4k.cfg").write_text("source = uniform-iid\nn = 4096\n")
    obs = synth(cfgdir, "synth4k.cfg", "u.obs")

    def logloss(cfg):
        proc = run_cli("estimate", "--config", str(cfgdir / cfg), "--input", str(obs))
        rec = proc.stdout.splitlines()[-1]
        return float(dict(kv.split("=", 1) for kv in rec.split()[1:])["logloss_bits"])

    assert abs(logloss("four.cfg") - logloss("one.cfg")) < 0.2


def test_predict_row_per_observation(cfgdir):
    obs = cfgdir / "short.obs"
    obs.write_text("0.25\n0.75\n0.1\n")
    proc = run_cli("predict", "--config", str(cfgdir / "uniform.cfg"), "--input", str(obs))
    rows = [l for l in proc.stdout.splitlines() if l.startswith("record=predict")]
    assert len(rows) == 3
    fields = dict(kv.split("=", 1) for kv in rows[0].split()[1:])
    assert fields["j"] == "0"
    assert fields["realized"] == "0.25"


def test_predict_constant_functional(cfgdir):
    obs = cfgdir / "short.obs"
    obs.write_text("0.25\n0.75\n")
    proc = run_cli(
        "predict", "--config", str(cfgdir / "uniform.cfg"), "--input", str(obs), "--r", "one"
    )
    for row in proc.stdout.splitlines():
        if row.startswith("record=predict"):
            fields = dict(kv.split("=", 1) for kv in row.split()[1:])
            assert fields["prediction"] == "1"
            assert fields["realized"] == "1"


def test_predict_cell_indicator_tracks_frequency(cfgdir):
    (cfgdir / "synth2k.cfg").write_text("source = uniform-iid\nlevels = 3\nn = 2048\n")
    obs = synth(cfgdir, "synth2k.cfg", "u.obs")
    proc = run_cli(
        "predict", "--config", str(cfgdir / "uniform.cfg"), "--input", str(obs), "--r", "cell:0"
    )
    rows = [l for l in proc.stdout.splitlines() if l.startswith("record=predict")]
    preds = []
    for row in rows:
        fields = dict(kv.split("=", 1) for kv in row.split()[1:])
        preds.append(float(fields["prediction"]))
    # finest level of 3 has eight cells; late forecasts hover near 1/8
    late = np.array(preds[-512:])
    assert abs(late.mean() - 0.125) < 0.03


def test_predict_before_consume(cfgdir):
    # the j-th forecast cannot depend on the j-th observation
    a = cfgdir / "a.obs"
    b = cfgdir / "b.obs"
    a.write_text("0.25\n0.1\n")
    b.write_text("0.25\n0.9\n")
    cfg = str(cfgdir / "uniform.cfg")
    ra = run_cli("predict", "--config", cfg, "--input", str(a)).stdout.splitlines()
    rb = run_cli("predict", "--config", cfg, "--input", str(b)).stdout.splitlines()
    pa = next(l for l in ra if "j=1 " in l).split("prediction=")[1].split()[0]
    pb = next(l for l in rb if "j=1 " in l).split("prediction=")[1].split()[0]
    assert pa == pb


def test_evaluate_record_counts(cfgdir):
    proc = run_cli("evaluate", "--config", str(cfgdir / "uniform.cfg"), "--jobs", "1")
    lines = proc.stdout.splitlines()
    kinds = {}
    for l in lines:
        if l.startswith("record="):
            kind = l.split()[0].split("=")[1]
            kinds[kind] = kinds.get(kind, 0) + 1
            assert "digest=" in l
    assert kinds["kl"] == 3 * 2  # seeds x checkpoints
    assert kinds["pred"] == 3 * 2
    assert kinds["kl_aggregate"] == 2
    assert kinds["pred_aggregate"] == 2


def test_evaluate_deterministic_bytes(cfgdir):
    args = ("evaluate", "--config", str(cfgdir / "uniform.cfg"), "--jobs", "2")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout.encode() == b.stdout.encode()


def test_evaluate_jobs_equivalent(cfgdir):
    cfg = str(cfgdir / "uniform.cfg")
    serial = run_cli("evaluate", "--config", cfg, "--jobs", "1").stdout
    parallel = run_cli("evaluate", "--config", cfg, "--jobs", "3").stdout
    assert serial == parallel


def test_evaluate_kl_records_match_kl_trajectory(cfgdir):
    path = cfgdir / "countable.cfg"
    path.write_text(COUNTABLE_CFG + "checkpoints = 32,128\nseeds = 0,1\n")
    lines = run_cli("evaluate", "--config", str(path), "--jobs", "1", "--r", "cell:0").stdout
    got = [l for l in lines.splitlines() if l.startswith("record=kl ")]
    config = load_config(path.read_text())
    want = [
        f"record=kl digest={config.digest} seed={run.seed} n={rec.n} "
        f"kl_bits={'%.12g' % rec.kl_bits} "
        f"posterior={','.join('%.12g' % w for w in rec.posterior_weights)}"
        for run in kl_trajectory(build_source(config), config)
        for rec in run.checkpoints
    ]
    assert got == want


def test_identity_rejected_on_countable_support(cfgdir):
    cfg = str(cfgdir / "countable.cfg")
    obs = synth(cfgdir, "countable.cfg", "g.obs")
    for args in (("predict", "--input", str(obs)), ("evaluate", "--jobs", "1")):
        proc = run_cli(*args, "--config", cfg, "--r", "identity", check=False)
        assert proc.returncode == 3
        assert "config error" in proc.stderr
        assert "one" in proc.stderr and "cell:IDX" in proc.stderr
    # the config's default functional is cell:0 on a countable family
    proc = run_cli("evaluate", "--config", cfg, "--jobs", "1", "--seed", "0", check=False)
    assert proc.returncode == 0


def test_exit_usage_errors(cfgdir):
    assert run_cli("bogus", check=False).returncode == 1
    assert run_cli("estimate", "--config", str(cfgdir / "uniform.cfg"), check=False).returncode == 1
    assert run_cli("synth", check=False).returncode == 1


def test_exit_config_error(cfgdir):
    bad = cfgdir / "broken.cfg"
    bad.write_text("levels = 0\n")
    proc = run_cli("estimate", "--config", str(bad), "--input", "whatever", check=False)
    assert proc.returncode == 3
    assert "config error" in proc.stderr


def test_exit_data_error(cfgdir):
    bad = cfgdir / "bad.obs"
    bad.write_text("0.5\nnot-a-number\n")
    proc = run_cli(
        "estimate", "--config", str(cfgdir / "uniform.cfg"), "--input", str(bad), check=False
    )
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_missing_config_file(cfgdir):
    proc = run_cli("estimate", "--config", str(cfgdir / "nope.cfg"), "--input", "x", check=False)
    assert proc.returncode == 3


def test_missing_input_file(cfgdir):
    proc = run_cli(
        "estimate",
        "--config",
        str(cfgdir / "uniform.cfg"),
        "--input",
        str(cfgdir / "nope.obs"),
        check=False,
    )
    assert proc.returncode == 2


@pytest.fixture
def counted(monkeypatch):
    """Runs cli.main in this process as a new command would run, with a cold
    prototype cache, and counts its family builds and cell averages."""
    from histmix import PartitionFamily, ReferenceMeasure, ingest
    from histmix.cli import main

    counts = {}

    def counting(cls, attr, key):
        orig = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counting(PartitionFamily, "__init__", "family")
    counting(ReferenceMeasure, "average_over_cell", "average")

    def run(*args):
        ingest._prototype.cache_clear()
        counts.update(family=0, average=0)
        assert main(list(args)) == 0
        return dict(counts)

    yield run
    ingest._prototype.cache_clear()


def test_one_family_per_command(cfgdir, counted):
    cfg = cfgdir / "countable.cfg"
    cfg.write_text(COUNTABLE_CFG + "seeds = 0,1,2\ncheckpoints = 64,128\n")
    obs = synth(cfgdir, "countable.cfg", "g.obs")
    common = ("--config", str(cfg), "--output", str(cfgdir / "out.txt"), "--quiet")
    assert counted("estimate", "--input", str(obs), *common)["family"] == 1
    assert counted("predict", "--input", str(obs), "--r", "cell:0", *common)["family"] == 1
    # three seeds forecast cell:0, averaged over the 4 finest cells once
    # for the command, not once per seed
    assert counted("evaluate", "--jobs", "1", "--r", "cell:0", *common) == {
        "family": 1,
        "average": 4,
    }
