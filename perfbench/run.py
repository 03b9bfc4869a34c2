#!/usr/bin/env python3
"""meshseg benchmark: closed-loop workloads through the package's entry points.

    python3 perfbench/run.py --workload train-1k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each process runs one workload with one BLAS thread.  After
``SETUP_REPEATS`` set-ups (each ending in one untimed warm-up call) it calls
the entry point in a closed loop, the next call starting when the previous
one returns, for up to ``--seconds``.  Every call's outputs are checked
against the warm-up's.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced calls and reports the
per-layer metrics (see ``tracing.py``).  The last line of stdout is one JSON
object; a per-run record (and, when traced, the spans) is written under
``.perfbench_out/``.
"""

import os

# one BLAS thread, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
CLASSES = 5
ABLATE_GRID = ("full", "TSGCN-C", "TSGCN-N", "TSGCN-S", "M+M", "L-fusion",
               "TSGCN-Concatenation")


class CheckFailed(Exception):
    """A call returned, but its outputs are wrong."""


@dataclasses.dataclass
class Outcome:
    """What one call did.  ``samples`` are its latency samples in seconds:
    the epochs of a train call (timed from the call's start or the previous
    epoch's end to ``on_epoch``) or the whole segment call.  The cells went
    through the network during those samples.  ``wall`` is the time of the
    entry-point call alone, without the output checks."""
    cells: int
    samples: list
    wall: float
    output: object        # compared for equality against the warm-up's
    final_loss: float | None = None


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _finite_rows(rows):
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row):
            raise CheckFailed(f"non-finite log row {row!r}")


class EpochClock:
    """Wraps ``meshseg.training.train`` to time every epoch through
    ``on_epoch``, which ``cli ablate`` does not pass."""

    def __init__(self, training):
        self.samples = []
        inner = training.train

        def train(*args, **kwargs):
            last = [time.perf_counter()]

            def tick(row):
                now = time.perf_counter()
                self.samples.append(now - last[0])
                last[0] = now

            return inner(*args, on_epoch=tick, **kwargs)

        training.train = train

    def take(self):
        out, self.samples = self.samples, []
        return out


class TrainWorkload:
    """``training.train`` on 4 arches of 1,026 cells: K=32, batch 4, augment
    on, one epoch per call, checkpoint written."""

    name = "train-1k"
    ARCHES, CELLS, EPOCHS = 4, 1026, 1

    def __init__(self, ms, seed, workdir):
        self.ms, self.seed, self.workdir = ms, seed, workdir
        self.clock = EpochClock(ms.training)

    def prepare(self):
        self.dataset = [
            self.ms.synth.generate_arch(self.ms.synth.ArchSpec(
                teeth=CLASSES - 1, cells=self.CELLS, seed=1000 * self.seed + i))
            for i in range(self.ARCHES)]
        self.ckpt = self.workdir / "train.ckpt"

    def call(self):
        cfg = self.ms.training.TrainConfig(
            epochs=self.EPOCHS, batch_size=4, K=32, classes=CLASSES,
            seed=self.seed, augment=True)
        start = time.perf_counter()
        _, rows = self.ms.training.train(self.dataset, cfg,
                                         ckpt_path=str(self.ckpt))
        wall = time.perf_counter() - start
        _finite_rows(rows)
        cells = self.EPOCHS * sum(m.n_faces for m in self.dataset)
        return Outcome(cells, self.clock.take(), wall,
                       (repr(rows), _digest(self.ckpt)), rows[-1][2])


class SegmentWorkload:
    """``meshseg segment`` on one arch of 8,200 cells with a seeded, untrained
    full-variant checkpoint written the way ``train`` writes it."""

    name = "segment-8k"
    CELLS = 8200

    def __init__(self, ms, seed, workdir):
        self.ms, self.seed, self.workdir = ms, seed, workdir

    def prepare(self):
        ms = self.ms
        mesh = ms.synth.generate_arch(ms.synth.ArchSpec(
            teeth=CLASSES - 1, cells=self.CELLS, seed=self.seed))
        self.n_faces = mesh.n_faces
        self.mesh_path = self.workdir / "arch.off"
        ms.meshio.write_mesh(str(self.mesh_path), mesh)
        net = ms.layers.SegmentationNet(
            CLASSES, K=32, variant="full",
            rng=ms.np.random.default_rng(self.seed))
        self.ckpt = self.workdir / "model.ckpt"
        ms.checkpoint.save_checkpoint(
            str(self.ckpt), net, ms.optim.AdamState(net.named_parameters()))
        self.labels = self.workdir / "arch.labels"

    def call(self):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ms.cli.main(["segment", "--model", str(self.ckpt),
                                   "--mesh", str(self.mesh_path),
                                   "--out", str(self.labels)])
        elapsed = time.perf_counter() - start
        if rc != 0:
            raise CheckFailed(f"segment exited with {rc}")
        with open(self.labels) as f:
            labels = [int(tok) for tok in f.read().split()]
        if len(labels) != self.n_faces:
            raise CheckFailed(
                f"{len(labels)} labels for {self.n_faces} faces")
        if min(labels) < 0 or max(labels) >= CLASSES:
            raise CheckFailed("label outside [0, C)")
        return Outcome(self.n_faces, [elapsed], elapsed,
                       _digest(self.labels))


class AblateWorkload:
    """``meshseg ablate`` over seven wirings on 4 arches of 256 cells, K=16,
    one epoch per variant."""

    name = "ablate-small"
    ARCHES, CELLS, EPOCHS = 4, 256, 1

    def __init__(self, ms, seed, workdir):
        self.ms, self.seed, self.workdir = ms, seed, workdir
        self.clock = EpochClock(ms.training)

    def prepare(self):
        data = self.workdir / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ms.cli.main([
                "synth", "--out", str(data), "--count", str(self.ARCHES),
                "--cells", str(self.CELLS), "--classes", str(CLASSES),
                "--seed", str(1000 * self.seed)])
        if rc != 0:
            raise CheckFailed(f"synth exited with {rc}")
        dataset, _ = self.ms.training.load_dataset(str(data))
        self.cells = self.EPOCHS * len(ABLATE_GRID) * sum(
            m.n_faces for m in dataset)
        config = self.workdir / "ablate.cfg"
        config.write_text(f"epochs = {self.EPOCHS}\nbatch_size = 4\nK = 16\n"
                          f"classes = {CLASSES}\nseed = {self.seed}\n"
                          "augment = true\n")
        grid = self.workdir / "grid.txt"
        grid.write_text("\n".join(ABLATE_GRID) + "\n")
        self.argv = ["ablate", "--data", str(data), "--config", str(config),
                     "--grid", str(grid), "--out", str(self.workdir / "out")]

    def call(self):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ms.cli.main(self.argv)
        wall = time.perf_counter() - start
        if rc != 0:
            raise CheckFailed(f"ablate exited with {rc}")
        out = self.workdir / "out"
        logs = {p.name: p.read_text() for p in sorted(out.glob("*.csv"))}
        if len(logs) != len(ABLATE_GRID) + 1:
            raise CheckFailed(f"ablate wrote {len(logs)} CSV files")
        summary = logs["summary.csv"].splitlines()[1:]
        rows = [line.split(",")[2:] for line in summary]
        for name, text in logs.items():
            if name != "summary.csv":
                rows += [line.split(",") for line in text.splitlines()[1:]]
        _finite_rows(rows)
        final_loss = sum(float(line.split(",")[3]) for line in summary)
        return Outcome(self.cells, self.clock.take(), wall, logs, final_loss)


WORKLOADS = {w.name: w for w in (TrainWorkload, SegmentWorkload,
                                 AblateWorkload)}


# ----------------------------------------------------------------- machine

def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def machine_record():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                              * os.sysconf("SC_PHYS_PAGES") / 2 ** 20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
    }


# ----------------------------------------------------------------- running

def _tail(samples):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


@dataclasses.dataclass
class Call:
    index: int
    outcome: Outcome      # None when the call failed
    wall: float           # seconds, output checks included
    traced: bool


class Runner:
    def __init__(self, workload, seconds, tracer):
        self.workload, self.seconds, self.tracer = workload, seconds, tracer
        self.reference = None
        self.errors = []

    def checked_call(self):
        """One call with its output checks; None if anything failed."""
        try:
            outcome = self.workload.call()
            if self.reference is None:
                self.reference = outcome.output
            elif outcome.output != self.reference:
                raise CheckFailed("outputs differ from the warm-up call's")
            return outcome
        except Exception as exc:  # any failure counts against the run
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def setup(self):
        """SETUP_REPEATS x (inputs, checkpoint, warm-up); seconds of each."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.prepare()
            if self.checked_call() is None:
                raise RuntimeError("set-up failed: " + self.errors[-1])
            times.append(time.perf_counter() - start)
        return times

    def measure(self, trace):
        """Closed loop for up to self.seconds; with trace, even-numbered
        calls are traced and odd-numbered ones are not."""
        calls = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (len(calls) >= (3 if trace else 1) and elapsed
                    + statistics.median(c.wall for c in calls) > self.seconds):
                return calls
            k = len(calls)
            traced = trace and k % 2 == 0
            t0 = time.perf_counter()
            if traced:
                self.tracer.op = k
                with self.tracer.installed():
                    outcome = self.checked_call()
                self.tracer.op = -1
            else:
                outcome = self.checked_call()
            calls.append(Call(k, outcome, time.perf_counter() - t0, traced))


def end_to_end(calls, setup_times, import_s):
    good = [c.outcome for c in calls if c.outcome is not None]
    if not good:
        return {}, []
    # epochs exclude the checkpoint write that follows them: its time is set
    # by host disk writeback (0.6 s to 4.5 s for the same 60 MB on a shared
    # VM disk) and is reported per layer as checkpoint.save_s
    samples = [s for o in good for s in o.samples]
    cells = sum(o.cells for o in good)
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "cells_per_s": (cells / sum(samples), "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
    }, samples


def per_layer(tracing, tracer, calls):
    traced = [c for c in calls if c.traced and c.outcome is not None]
    plain = [c for c in calls if not c.traced and c.outcome is not None]
    if not traced or not plain:
        raise CheckFailed("no successful traced and untraced call pair")
    ops = [c.index for c in traced]
    counts = [tracing.op_counts(tracer, op) for op in ops]
    if any(c != counts[0] for c in counts):
        raise CheckFailed(f"exact counts differ between calls: {counts}")
    metrics = tracing.layer_metrics(tracer, ops, SETUP_REPEATS)
    traced_s = statistics.mean(c.outcome.wall for c in traced)
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (
        traced_s - statistics.mean(c.outcome.wall for c in plain), "s")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "meshseg" / "__init__.py").is_file():
        print(f"error: no meshseg package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import numpy as np
    import meshseg.checkpoint
    import meshseg.cli
    import meshseg.layers
    import meshseg.meshio
    import meshseg.optim
    import meshseg.synth
    import meshseg.training
    import tracing
    import_s = time.perf_counter() - start

    ms = argparse.Namespace(np=np, checkpoint=meshseg.checkpoint,
                            cli=meshseg.cli, layers=meshseg.layers,
                            meshio=meshseg.meshio, optim=meshseg.optim,
                            synth=meshseg.synth, training=meshseg.training)
    tracer = tracing.Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=tag) as tmp:
        workload = WORKLOADS[args.workload](ms, args.seed, Path(tmp))
        runner = Runner(workload, args.seconds, tracer)
        if args.trace:
            with tracer.installed():
                setup_times = runner.setup()
        else:
            setup_times = runner.setup()
        calls = runner.measure(args.trace)

    failed = sum(1 for c in calls if c.outcome is None)
    if args.trace:
        tracer.write(OUT_DIR / f"{tag}-spans.jsonl")
        try:
            metrics = per_layer(tracing, tracer, calls)
        except CheckFailed as exc:
            runner.errors.append(str(exc))
            failed = len(calls)
            metrics = {}
        samples = []
    else:
        metrics, samples = end_to_end(calls, setup_times, import_s)

    machine = machine_record()
    final_losses = sorted({c.outcome.final_loss for c in calls
                           if c.outcome and c.outcome.final_loss is not None})
    fingerprint = hashlib.sha256(repr(runner.reference).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_times_s": setup_times, "import_s": import_s,
        "call_wall_s": [c.wall for c in calls], "samples_s": samples,
        "final_loss": final_losses, "fingerprint": fingerprint,
        "errors": runner.errors,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "machine": machine,
    }
    with open(OUT_DIR / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  closed loop, "
          f"1 client, {len(calls)} calls")
    for key, value in machine.items():
        print(f"  machine.{key:<22} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    if samples:
        print(f"  op samples {len(samples)}", end="")
        tail = _tail(samples)
        if tail:
            print(f", op_s.p{tail[0]} {tail[1]:.6g} s", end="")
        print()
    print(f"  failed_ratio {failed}/{len(calls)}  output fingerprint "
          f"{fingerprint[:16]}")
    if final_losses:
        print(f"  final_loss {' '.join(repr(v) for v in final_losses)}")
    for err in runner.errors:
        print(f"  error: {err}")
    print(json.dumps({
        "correct": failed == 0 and not runner.errors,
        "attempted": len(calls), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
