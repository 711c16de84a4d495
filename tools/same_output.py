"""Check that the CLI's records are byte-identical to those of another commit.

Extracts REF's `src/` with `git archive` (local, no network), writes seven
small configs, runs the same `histmix` commands against REF's source and
against this tree's, and compares each command's exit code and stdout.
Usage:

    python tools/same_output.py REF     # e.g. HEAD, HEAD~1, a commit id

prints `same NAME` or `DIFF NAME` per output and exits 1 on any DIFF.
Both sides read the observations that REF's `synth` wrote, so a `synth`
difference shows once rather than in every later command.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N = 4096


def _piecewise() -> str:
    # eight irregular pieces, drawn the way the replay-highres workload draws them
    rng = random.Random(1)
    g = [0.25 + rng.random() for _ in range(8)]
    mean = sum(g) / len(g)
    breaks = ",".join(repr(j / 8) for j in range(9))
    densities = ",".join(repr(v / mean) for v in g)
    return (
        f"source = piecewise-density-iid\nbreaks = {breaks}\ndensities = {densities}\n"
        "levels = 12\nseeds = 0,1\n"
    )


CONFIGS = {
    "piecewise": _piecewise(),
    "countable": "source = countable-geometric\nratio = 0.8\nlevels = 8\nseeds = 0,1,2,3,4,5\n",
    "markov-0.7": "source = binary-markov\nstay = 0.7\nlevels = 8\nseeds = 0,1\n",
    "markov-0.9": "source = binary-markov\nstay = 0.9\nlevels = 8\nseeds = 0,1\n",
    "mixed": "source = mixed-atom\natom_mass = 0.3\neta_atom_mass = 0.6\nlevels = 8\nseeds = 0,1\n",
    "mixed-exponential": "source = mixed-atom\ncontinuous = exponential\nlevels = 8\nseeds = 0,1\n",
    "uniform": "source = uniform-iid\nlevels = 8\nseeds = 0,1\n",
}
COMMON = f"n = {N}\ncheckpoints = 256,1024\nmax_order = 2\n"

# (output name, command, config, extra arguments); estimate and predict read
# the config's synth output
COMMANDS = (
    [(f"synth {c}", "synth", c, ()) for c in CONFIGS]
    + [(f"estimate {c}", "estimate", c, ()) for c in CONFIGS]
    + [
        ("predict markov-0.9 identity", "predict", "markov-0.9", ("--r", "identity")),
        ("predict countable cell:0", "predict", "countable", ("--r", "cell:0")),
        ("evaluate countable cell:0 jobs 1", "evaluate", "countable", ("--r", "cell:0", "--jobs", "1")),
        ("evaluate countable cell:0 jobs 2", "evaluate", "countable", ("--r", "cell:0", "--jobs", "2")),
        ("evaluate markov-0.7", "evaluate", "markov-0.7", ()),
        ("evaluate markov-0.9", "evaluate", "markov-0.9", ()),
        ("evaluate mixed", "evaluate", "mixed", ()),
        ("evaluate mixed-exponential", "evaluate", "mixed-exponential", ()),
        ("evaluate uniform cell:1", "evaluate", "uniform", ("--r", "cell:1")),
    ]
)


def _extract(ref: str, dest: Path) -> Path:
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def _run(src: Path, workdir: Path, command: str, config: str, extra) -> tuple:
    args = [sys.executable, "-m", "histmix.cli", command, "--config", f"{config}.cfg", "--quiet"]
    if command in ("estimate", "predict"):
        args += ["--input", f"{config}.obs"]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([*args, *extra], cwd=workdir, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ref_src = _extract(argv[0], work / "ref")
        for name in CONFIGS:
            (work / f"{name}.cfg").write_text(CONFIGS[name] + COMMON)
        differ = 0
        for label, command, config, extra in COMMANDS:
            ref = _run(ref_src, work, command, config, extra)
            if command == "synth":
                (work / f"{config}.obs").write_bytes(ref[1])
            ours = _run(ROOT / "src", work, command, config, extra)
            # a command that fails on both sides compares nothing
            same = ref == ours and ref[0] == 0
            differ += not same
            codes = "" if same else f" (exit {ref[0]} vs {ours[0]})"
            print(f"{'same' if same else 'DIFF'} {label}{codes}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} outputs the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
