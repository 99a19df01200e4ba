"""Benchmark of the dqc1lab command line, end to end and layer by layer.

Run from the root of a source checkout:

    for w in discord-sweep reproduce closed-form-cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

With ``--trace 0`` one closed-loop client runs the workload's ``dqc1-lab``
commands as child processes, one at a time, for ``--seconds`` seconds, and
reports end-to-end metrics: the median wall and CPU time of one pass over
the commands and the median import time of a fresh interpreter, each scaled
for the host's speed (see ``REFERENCE_CODE``), and the largest resident set
of any child.  With ``--trace 1`` the same argument lists run
in process through ``dqc1lab.cli.main``, alternating untraced passes and
passes with every layer's functions wrapped in spans, and the per-layer
metrics are reported.  Every command's output goes through a correctness
gate; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, and for traced runs the spans of one pass, is written to
``perfbench/out/``.  Every process runs with one BLAS thread (see
``BLAS_THREADS``); a traced run also times one pass of child processes
under the user's own BLAS setting.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 150
GRID_SHAPES = ((16, 32), (64, 128), (128, 256))


# One BLAS thread per process.  With OpenBLAS's default of one thread per
# core, a discord-sweep pass on a 2-core host took either about 2.75 s or
# about 3.45 s, depending on whether the other core was free, and its CPU
# time was 1.6 times its wall time; over five seeds the spread (quartile
# distance over median) of the wall time was 0.22 against 0.07 with one
# thread.  The user's setting is recorded, and a traced run times one pass
# of child processes under it (blas.unpinned_*), so the spin stays visible.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
USER_ENV = dict(os.environ)


def run_child(args: list[str], blas_threads: dict[str, str] = BLAS_THREADS) -> tuple[int, str]:
    env = {**USER_ENV, **blas_threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout


def environment() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "dqc1lab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_threads_user": {k: USER_ENV.get(k, "unset") for k in BLAS_THREADS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# The speed of a shared host drifts over minutes: on a 2-core VM the median
# pass time of closed-form-cli rose from 1.66 s to 2.69 s across ten runs in
# five minutes, and the import time rose in step (quartile distance over
# median 0.28 across those runs; 0.08 and 0.09 in two later sets of ten runs
# with the scaling below).  Each end-to-end time is therefore scaled by
# REFERENCE_S over the median time of this fixed computation, which does not
# touch dqc1lab and is timed between passes: a change to dqc1lab moves a
# scaled time as much as the raw time, while the host's drift cancels.  The
# raw times are kept in the record.
REFERENCE_CODE = """
import numpy as np
a = np.linspace(0.0, 1.0, 4 * 4 * 512).reshape(512, 4, 4)
h = a + a.transpose(0, 2, 1)
for _ in range(40):
    np.linalg.eigvalsh(h)
    np.einsum("gij,gjk->gik", h, h)
s = 0
for i in range(400000):
    s += i % 7
"""
REFERENCE_S = 0.25  # about the reference's time on that VM when it was quiet


def child_time(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    rc, _ = run_child(["-c", code])
    if rc != 0:
        raise RuntimeError(f"a fresh interpreter failed to run {code!r}")
    return time.perf_counter() - t0


class Tally:
    """Counts operations and failures, and runs the gate self-check once."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.self_check_problems: list[str] | None = None

    def record_pass(self, outputs: list[tuple[int, str]]) -> None:
        for op, (rc, out) in zip(self.ops, outputs):
            self.attempted += 1
            reason = op.verdict(rc, out)
            if reason is not None:
                self.failed += 1
                print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
        if self.self_check_problems is None:
            self.self_check_problems = workloads.self_check(self.ops, outputs)
            for problem in self.self_check_problems:
                print(f"SELF-CHECK {problem}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.self_check_problems


def child_pass(ops: list[workloads.Op], blas_threads: dict[str, str] = BLAS_THREADS
               ) -> tuple[list[tuple[int, str]], float, float]:
    """Run each command as a child process; outputs, wall time and child CPU time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outputs = [run_child(["-m", "dqc1lab.cli", *op.argv], blas_threads) for op in ops]
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return outputs, wall, (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)


def run_end_to_end(ops: list[workloads.Op], seconds: float, tally: Tally) -> dict:
    child_time("import dqc1lab")  # fills the bytecode cache, which users pay for once
    setups, refs, walls, cpus = [], [], [], []
    start = time.perf_counter()
    while True:
        # set-up and reference samples are spread over the run so that a
        # burst of load from elsewhere on the host cannot move all of them
        for _ in range(SETUP_REPEATS):
            setups.append(child_time("import dqc1lab"))
            refs.append(child_time(REFERENCE_CODE))
        outputs, wall, cpu = child_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
        tally.record_pass(outputs)
        if time.perf_counter() - start >= seconds:
            break
    raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
           "setup_s": statistics.median(setups)}
    scale = REFERENCE_S / statistics.median(refs)
    # ru_maxrss of reaped children is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {**{k: (v * scale, "s") for k, v in raw.items()}, "peak_rss_mb": (peak_mb, "MB")}
    return {"metrics": metrics, "raw": raw, "reference_s": statistics.median(refs),
            "passes": {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "reference_s": refs}}


def import_package():
    sys.path.insert(0, str(SRC))
    import dqc1lab.cli

    if not Path(dqc1lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"dqc1lab imported from {dqc1lab.__file__}, not from {SRC}")
    return dqc1lab.cli


def kernel_microtimings() -> dict[str, float]:
    """The grid kernel on the shapes of the former grid benchmark."""
    import numpy as np
    from dqc1lab import _kernels, rho3

    # (2, 2, 4, 4) blocks of rho3(0.5) indexed by register qubit 1
    m = rho3(0.5).state.matrix.reshape([2] * 6)
    blocks = np.ascontiguousarray(
        np.moveaxis(m, (1, 4), (0, 3)).reshape(2, 4, 2, 4).transpose(0, 2, 1, 3))

    def timed(thetas, phis, repeats):
        _kernels.conditional_entropy_grid(blocks, thetas, phis)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernels.conditional_entropy_grid(blocks, thetas, phis)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    out = {}
    for n_theta, n_phi in GRID_SHAPES:
        tg, pg = np.meshgrid(np.linspace(0, np.pi, n_theta),
                             np.linspace(0, 2 * np.pi, n_phi, endpoint=False), indexing="ij")
        out[f"_kernels.grid_{n_theta}x{n_phi}_s"] = timed(tg.ravel(), pg.ravel(), 5)
    out["_kernels.single_point_us"] = timed(np.array([1.0]), np.array([2.0]), 201) * 1e6
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us", ".us_per_point")):
        return "us"
    return "count"


def run_traced(ops: list[workloads.Op], seconds: float, tally: Tally) -> dict:
    cli = import_package()

    def one_pass() -> list[tuple[int, str]]:
        outputs = []
        for op in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(list(op.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            outputs.append((rc, buf.getvalue()))
        return outputs

    start = time.perf_counter()
    micro = kernel_microtimings()
    outputs, unpinned_wall, unpinned_cpu = child_pass(ops, blas_threads={})
    tally.record_pass(outputs)
    plain, traced, layers = [], [], []
    first_spans = None
    while True:
        t0 = time.perf_counter()
        outputs = one_pass()
        plain.append(time.perf_counter() - t0)
        tally.record_pass(outputs)

        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outputs = one_pass()
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tally.record_pass(outputs)
        layer = spans.layer_metrics(tracer.spans)
        checks = [json.loads(out)["checks"] for op, (rc, out) in zip(ops, outputs)
                  if op.argv[0] == "reproduce" and op.verdict(rc, out) is None]
        layer["reproduce.checks_passed"] = sum(c["passed"] for cs in checks for c in cs)
        layer["reproduce.checks_failed"] = sum(not c["passed"] for cs in checks for c in cs)
        layers.append(layer)
        if first_spans is None:
            t_ref = tracer.spans[0][spans.START] if tracer.spans else 0.0
            first_spans = [[s[0], s[1] - t_ref, s[2] - t_ref, s[3], s[4]] for s in tracer.spans]
        if time.perf_counter() - start >= seconds:
            break

    values = {**micro, **spans.median_metrics(layers),
              "blas.unpinned_wall_s": unpinned_wall, "blas.unpinned_cpu_s": unpinned_cpu,
              "trace.overhead_s": statistics.median(traced) - statistics.median(plain)}
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    return {"metrics": metrics, "passes": {"plain_s": plain, "traced_s": traced},
            "spans": {"fields": ["name", "start_s", "end_s", "parent", "work"],
                      "rows": first_spans}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dqc1lab" / "__init__.py").is_file():
        print(f"no dqc1lab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    os.environ.update(BLAS_THREADS)  # before numpy is imported in this process
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    ops = workloads.make_ops(args.workload, args.seed)
    tally = Tally(ops)
    if args.trace:
        result = run_traced(ops, args.seconds, tally)
    else:
        result = run_end_to_end(ops, args.seconds, tally)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    for name, m in metrics.items():
        raw = result.get("raw", {}).get(name)
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
              + (f" (raw {raw:.6g} s)" if raw is not None else ""))
    if "reference_s" in result:
        print(f"{args.workload} reference computation = {result['reference_s']:.6g} s "
              f"(times above are scaled to {REFERENCE_S} s)")
    print(f"{args.workload} failed_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "argv": [op.argv for op in ops],
              "attempted": tally.attempted, "failed": tally.failed,
              "self_check_problems": tally.self_check_problems,
              "metrics": metrics, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
