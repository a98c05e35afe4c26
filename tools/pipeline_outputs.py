"""Run the byte-identity pipeline and keep every output it makes.

    OPENBLAS_NUM_THREADS=1 python tools/pipeline_outputs.py <dir>

Runs the command line of the tree this file is in (``python -m
flightwatch.cli``, with that tree's ``src`` first on the path) in ``<dir>``,
which must be new or empty:

- ``synth --counts 10,10,10,5 --seed 42``, then ``preprocess`` with obstacles
  and labels, ``train`` for 20 epochs and ``calibrate --apply``;
- ``detect --logs --obstacles``, ``--windows`` and ``--stream``, then
  ``evaluate`` on both report sets;
- the walkthroughs ``demos/01``-``03``;
- ``fitness`` on four 5-execution test cases, one per class (synth seeds
  100-103), at the defaults and at ``--resample-n 37 --max-dtw 1``;
- ``preprocess`` and ``detect --logs`` on nine logs with one value fault each,
  each beside a clean log, so that every run processes a flight.

Each command's stdout, stderr and exit code go to ``<dir>/cmd/<step>.out``,
``.err`` and ``.rc``, with the paths of ``<dir>`` and of the tree replaced by
fixed tokens.  Run manifests, which hold times, are deleted.  Two trees give
the same outputs iff ``diff -r`` of their two directories prints nothing.

The model's bits depend on the BLAS thread count, which OpenBLAS reads when
NumPy loads, so the tool refuses to run unless ``OPENBLAS_NUM_THREADS=1``.
Exit status: 0 when every step ran (whatever the steps' own statuses), 2 on a
bad argument or environment.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
MANIFEST_NAME = "run_manifest.json"

# Each fault edits a clean log's body: (line, field, value) sets that field of
# that line, and a field of None puts the value before the line.
_FAULTS = {
    "heading": [(10, 5, "180.5")],
    "heading-after-blank-line": [(10, 5, "180.5"), (10, None, "\n")],
    "timestamp-goes-back": [(10, 0, "0")],
    "negative-timestamp": [(10, 0, "-1")],
    "nan": [(10, 5, "nan")],
    "inf": [(10, 2, "inf")],
    "gps": [(10, 1, "gps")],
    "padded-safe": [(10, 1, " safe")],
    "heading-before-long-channel": [(10, 5, "180.5"), (20, 1, "c" * 70)],
}


def _faulty(lines: list[str], edits) -> str:
    lines = list(lines)
    for i, k, value in edits:
        if k is None:
            lines[i] = value + lines[i]
        else:
            fields = lines[i].rstrip("\n").split(",")
            fields[k] = value
            lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


class _Runner:
    def __init__(self, work: Path):
        self.work = work
        self.cmd = work / "cmd"
        self.cmd.mkdir()
        src = os.pathsep.join(filter(None, [str(TREE / "src"), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": src}

    def __call__(self, step: str, *argv, script: Path | None = None, stdin: str | None = None):
        """Run one command in the work directory and keep what it printed."""
        head = [str(script)] if script else ["-m", "flightwatch.cli"]
        proc = subprocess.run([sys.executable, *head, *map(str, argv)], cwd=self.work,
                              env=self.env, input=stdin, capture_output=True, text=True,
                              timeout=3600)
        for ext, text in (("out", proc.stdout), ("err", proc.stderr),
                          ("rc", f"{proc.returncode}\n")):
            text = text.replace(str(self.work), "<WORK>").replace(str(TREE), "<TREE>")
            (self.cmd / f"{step}.{ext}").write_text(text, encoding="utf-8")
        print(f"{step}: exit {proc.returncode}", flush=True)


def run_pipeline(work: Path) -> None:
    run = _Runner(work)
    run("synth", "synth", "--counts", "10,10,10,5", "--seed", 42, "--out", "data")
    run("preprocess", "preprocess", "--logs", "data/logs", "--obstacles", "data/obstacles.json",
        "--labels", "data/labels.csv", "--out", "pre")
    run("train", "train", "--windows", "pre/windows.csv", "--max-epochs", 20, "--out", "model")
    run("calibrate", "calibrate", "--model", "model/model.json", "--windows", "pre/windows.csv",
        "--apply", "--out", "calib")
    model = ["--model", "calib/model.json"]
    run("detect-logs", "detect", *model, "--logs", "data/logs",
        "--obstacles", "data/obstacles.json", "--out", "det-logs")
    run("detect-windows", "detect", *model, "--windows", "pre/windows.csv",
        "--out", "det-windows")
    run("detect-stream", "detect", *model, "--stream",
        stdin=(work / "pre" / "windows.csv").read_text(encoding="utf-8"))
    for source in ("logs", "windows"):
        run(f"evaluate-{source}", "evaluate", "--reports", f"det-{source}/reports",
            "--labels", "data/labels.csv", "--out", f"eval-{source}")
    for demo in sorted((TREE / "demos").glob("0[1-3]_*.py")):
        run(f"demo-{demo.stem}", script=demo)
    for c, seed in enumerate(range(100, 104)):
        counts = ",".join("5" if k == c else "0" for k in range(4))
        case = f"cases/case{c}"
        run(f"synth-case{c}", "synth", "--counts", counts, "--seed", seed, "--out", case)
        fitness = ["fitness", "--logs", f"{case}/logs", "--obstacles", f"{case}/obstacles.json"]
        run(f"fitness-case{c}", *fitness, "--out", f"fitness/case{c}")
        run(f"fitness-case{c}-n37", *fitness, "--resample-n", 37, "--max-dtw", 1,
            "--out", f"fitness/case{c}-n37")
    clean = sorted((work / "data" / "logs").glob("certain_safe-*.csv"))[0]
    lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    for name, fault in _FAULTS.items():
        logs = work / "faults" / name / "logs"
        logs.mkdir(parents=True)
        shutil.copy(clean, logs)
        (logs / f"{name}.csv").write_text(_faulty(lines, fault), encoding="utf-8")
        run(f"fault-{name}-preprocess", "preprocess", "--logs", f"faults/{name}/logs",
            "--out", f"faults/{name}/pre")
        run(f"fault-{name}-detect", "detect", *model, "--logs", f"faults/{name}/logs",
            "--out", f"faults/{name}/det")
    for manifest in work.rglob(MANIFEST_NAME):
        manifest.unlink()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: OPENBLAS_NUM_THREADS=1 python tools/pipeline_outputs.py <dir>",
              file=sys.stderr)
        return 2
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("error: set OPENBLAS_NUM_THREADS=1; the model's bits depend on the BLAS "
              "thread count", file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    if work.exists() and any(work.iterdir()):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    run_pipeline(work)
    files = sum(p.is_file() for p in work.rglob("*"))
    print(f"{files} files in {work}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
