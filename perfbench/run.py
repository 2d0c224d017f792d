#!/usr/bin/env python3
"""resmaster benchmark: closed-loop CLI operations, timed end to end or traced.

Run from the root of a resmaster checkout:

    python3 perfbench/run.py --workload tile9-toy --seed 1 --seconds 50 --trace 0

One client issues the next ``resmaster.cli.main([...])`` call when the
previous one returns, so config parsing, netpbm I/O, manifest loading,
conditioning, sampling and fusion are all on the timed path. Inputs (config,
reference image, caption manifest) are made from ``--seed`` with the
program's own ``lowres`` and ``plan`` commands before timing starts. Every
operation is checked (exit code, stderr, output shape, byte-identical
outputs, low-band adherence to the reference).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` traces every
second operation and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import logging
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

STEPS = 50
CHANNELS = 3
SCALE = 4
WINDOW = 64
STRIDE = 32
SETUP_REPEATS = 9
BAND_RADIUS = 0.2
# Largest lowband_rel_err a guided operation may show before it counts as
# failed. Outputs on this commit read 0.05-0.35%; a broken swap reads tens of
# percent.
LOWBAND_LIMIT = 0.02
CAPTION_WORDS = ("brick", "moss", "gravel", "bark", "linen", "rust", "slate", "fern")


@dataclass(frozen=True)
class Workload:
    command: str          # "upscale" or "lowres"
    size: int             # reference side (upscale) or output side (lowres)
    denoiser: str
    threads: int          # RESMASTER_THREADS for the operation
    same_bytes_as: int | None  # thread count whose output must match byte for byte
    patches: int
    top_layer: str        # predicted largest self-time layer

    @property
    def out_side(self) -> int:
        return self.size * SCALE if self.command == "upscale" else self.size

    @property
    def overlap_factor(self) -> float:
        return self.patches * WINDOW * WINDOW / self.out_side ** 2 if self.command == "upscale" else 1.0


WORKLOADS = {
    "tile9-toy": Workload("upscale", 32, "toy", 1, 2, 9, "attention"),
    "lowres-256": Workload("lowres", 256, "analytic", 1, None, 1, "noise"),
    # The grid49 workloads run by hand only (see README.md): on a shared
    # 2-core machine their operations swing by up to 2x with the host's load,
    # and their run medians spread too far for any bound BENCHMARK.json may set.
    "grid49-analytic": Workload("upscale", 64, "analytic", 1, 2, 49, "spectral"),
    "grid49-analytic-t2": Workload("upscale", 64, "analytic", 2, 1, 49, "spectral"),
}

# Per-layer metrics: every function span reports .calls and .share; those
# called on every workload also report .s, so that no time reads 0 by design.
ALWAYS_CALLED = ("cli.main", "config.parse_config", "netpbm.write_image", "denoiser.predict",
                 "schedule.predict_x0", "schedule.posterior_step", "noise.standard_normal_field")


class RunError(RuntimeError):
    """Inputs could not be made, the warm-up failed, or no traced operation
    completed: the run has no result to print."""


def machine_facts(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "RESMASTER_THREADS": threads,
    }


def blas_threads() -> int:
    """OpenBLAS's own thread count as loaded in this process, or -1 if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and "/" in line}
    except OSError:
        return -1
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def decode_netpbm(data: bytes):
    """Parse a binary PGM/PPM (as resmaster writes them) into [0, 1] floats."""
    import numpy as np

    m = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None or m.group(4) != b"255":
        raise ValueError("not a maxval-255 binary PGM/PPM")
    channels = 3 if m.group(1) == b"P6" else 1
    w, h = int(m.group(2)), int(m.group(3))
    pixels = data[m.end():]
    if len(pixels) != w * h * channels:
        raise ValueError(f"{len(pixels)} pixel bytes for {w}x{h}x{channels}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, channels) / 255.0


def band_metrics(output, reference_up) -> tuple[float, float]:
    """(low-band relative spectral-magnitude gap, high-band energy ratio) of
    ``output`` against ``reference_up``, split at normalized radius 0.2."""
    import numpy as np

    h, w = output.shape[:2]
    u, v = np.arange(h), np.arange(w)
    fu = np.minimum(u, h - u) / h
    fv = np.minimum(v, w - v) / w
    band = np.sqrt(2.0 * (fu[:, None] ** 2 + fv[None, :] ** 2)) <= BAND_RADIUS
    f_out = np.abs(np.fft.fft2(output, axes=(0, 1)))
    f_ref = np.abs(np.fft.fft2(reference_up, axes=(0, 1)))
    low = np.sqrt(((f_out[band] - f_ref[band]) ** 2).sum() / (f_ref[band] ** 2).sum())
    high = (f_out[~band] ** 2).sum() / (f_ref[~band] ** 2).sum()
    return float(low), float(high)


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        from resmaster import cli

        self.cli = cli
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.out = work / "out.ppm"
        self.argv = self._prepare()

    def call(self, argv: list[str], threads: int, tracer=None):
        """One in-process CLI call: (exit code, wall s, CPU s, stderr, trace)."""
        os.environ["RESMASTER_THREADS"] = str(threads)
        # main() calls logging.basicConfig; with no root handler it binds the
        # captured stderr below, so the call's log lines land in ``err``.
        logging.getLogger().handlers.clear()
        err = io.StringIO()
        trace = None
        with contextlib.redirect_stderr(err):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code, *trace = tracer.run_op(self.cli.main, argv)
            except Exception:
                code = None
                traceback.print_exc()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return code, wall, cpu, err.getvalue(), trace

    def _must(self, argv: list[str]) -> None:
        code, _, _, err, _ = self.call(argv, 1)
        if code != 0:
            raise RunError(f"resmaster {' '.join(argv)} exited {code}: {err.strip()}")

    def _prepare(self) -> list[str]:
        wl, w = self.wl, self.work
        config = w / "config.json"
        doc = {"version": 1, "height": wl.size, "width": wl.size, "channels": CHANNELS,
               "scale": SCALE, "window": WINDOW, "stride": STRIDE, "steps": STEPS,
               "denoiser": wl.denoiser}
        config.write_text(json.dumps(doc))
        seed = ["--seed", str(self.seed)]
        if wl.command == "lowres":
            self.reference = None
            return ["lowres", "--out", str(self.out), "--config", str(config), *seed]

        ref_config = w / "reference-config.json"
        ref_config.write_text(json.dumps({**doc, "denoiser": "analytic"}))
        reference = w / "reference.ppm"
        manifest = w / "captions.json"
        self._must(["lowres", "--out", str(reference), "--config", str(ref_config), *seed])
        self._must(["plan", "--in", str(reference), "--config", str(config),
                    "--manifest", str(manifest)])
        skeleton = json.loads(manifest.read_text())
        skeleton["global_prompt"] = f"a seeded test scene, seed {self.seed}"
        for key in skeleton["patches"]:
            word = CAPTION_WORDS[(self.seed + 7 * int(key)) % len(CAPTION_WORDS)]
            skeleton["patches"][key] = f"patch {key}: fine {word} texture"
        manifest.write_text(json.dumps(skeleton))
        self.reference = decode_netpbm(reference.read_bytes())
        return ["upscale", "--in", str(reference), "--manifest", str(manifest),
                "--config", str(config), "--out", str(self.out), *seed]

    def reference_up(self, output):
        from resmaster.tiler import bicubic_upsample

        side = self.wl.out_side
        if self.reference is not None:
            return bicubic_upsample(self.reference, side, side)
        # lowres has no reference: compare with the output's own 4x box
        # downsample, upsampled back, i.e. what an upscale of it would start from.
        small = output.reshape(side // SCALE, SCALE, side // SCALE, SCALE, -1).mean(axis=(1, 3))
        return bicubic_upsample(small, side, side)


class Gate:
    """Correctness checks on every operation of a run."""

    def __init__(self, bench: Bench, baseline: bytes | None):
        self.bench = bench
        self.first: bytes | None = baseline
        self.lowband = self.highband = None
        self.problems: list[str] = []

    def check(self, code, err: str) -> bool:
        problem = self._problem(code, err)
        if problem is not None:
            self.problems.append(problem)
        return problem is None

    def _problem(self, code, err: str) -> str | None:
        bench = self.bench
        side = bench.wl.out_side
        if code != 0 or "Traceback" in err:
            return f"exit code {code}: {err.strip()[-500:]}"
        if "WARNING" in err:
            return f"warning on stderr: {err.strip()[-500:]}"
        data = bench.out.read_bytes()
        try:
            output = decode_netpbm(data)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        if output.shape != (side, side, CHANNELS):
            return f"output shape {output.shape}, expected {(side, side, CHANNELS)}"
        if self.first is not None and data != self.first:
            return "output bytes differ from the warm-up's or the run's first output"
        if self.lowband is None:
            self.first = data
            self.lowband, self.highband = band_metrics(output, bench.reference_up(output))
        if bench.reference is not None and not self.lowband <= LOWBAND_LIMIT:
            return f"lowband_rel_err {self.lowband:.4f} above {LOWBAND_LIMIT}"
        return None


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to start and import resmaster."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import resmaster"], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def closed_loop(bench: Bench, gate: Gate, seconds: float, tracer=None):
    """Issue operations back to back for ``seconds``: at least one, and no
    further one that would, at the last one's duration, end more than half an
    operation past the budget. Runs then last ``seconds`` on average.

    With a tracer, every second operation is traced, so traced and untraced
    operations see the same machine, and at least two run. Returns
    ([(wall, cpu, trace or None, traced)], failed count)."""
    ops, failed = [], 0
    least = 1 if tracer is None else 2
    start = time.perf_counter()
    while len(ops) < least or time.perf_counter() - start + ops[-1][0] / 2 <= seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            code, wall, cpu, err, trace = bench.call(bench.argv, bench.wl.threads,
                                                     tracer if traced else None)
        ops.append((wall, cpu, trace, traced))
        failed += not gate.check(code, err)
    return ops, failed


def end_to_end(bench, walls, cpus, setup) -> dict:
    op_s = statistics.median(walls)
    return {
        "op_s": (op_s, "s"),
        "mpx_per_s": (bench.wl.out_side ** 2 / 1e6 / op_s, "Mpx/s"),
        "op_cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def tail(walls) -> tuple[int, float] | None:
    """The highest of the 99th, 90th and 75th percentile of ``walls`` that
    has at least ten samples beyond it, or None."""
    for p in (99, 90, 75):
        if len(walls) * (100 - p) >= 1000:
            return p, statistics.quantiles(walls, n=100)[p - 1]
    return None


def quality(gate) -> dict:
    """Output adherence to the reference (NaN when no output was readable).
    Deterministic for a seed but spread by 10-25% across seeds, so reported
    per run rather than bounded."""
    nan = float("nan")
    return {
        "quality.lowband_rel_err": (nan if gate.lowband is None else gate.lowband, "ratio"),
        "quality.highband_rel_energy": (nan if gate.highband is None else gate.highband, "ratio"),
    }


def per_layer(bench, untraced, summaries) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced operations, and the checks they fail."""
    from tracing import LAYERS, SPAN_NAMES

    problems = []
    counts = summaries[0]["counts"]
    if any(s["counts"] != counts for s in summaries[1:]):
        problems.append("work counts differ between traced operations")
    if bench.wl.threads == 1:
        for s in summaries:
            if abs(s["self_sum"] - s["wall"]) > 1e-6 * s["wall"] + 1e-9:
                problems.append(f"self times sum to {s['self_sum']:.9f} s, "
                                f"operation took {s['wall']:.9f} s")
    med = lambda key, sub=None: statistics.median(s[key] if sub is None else s[key][sub]
                                                  for s in summaries)
    traced_op_s = med("wall")
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (counts[f"calls:{name}"], "count")
        if name in ALWAYS_CALLED:
            m[f"{name}.s"] = (med("busy", name), "s")
        m[f"{name}.share"] = (med("busy", name) / traced_op_s, "frac")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (med("layer_self", layer) / traced_op_s, "frac")
    out_cells = bench.wl.out_side ** 2
    m.update({
        "pipeline.self_s": (med("layer_self", "pipeline"), "s"),
        "pipeline.patch_steps": (counts["patch_steps"], "count"),
        "spectral.fft_count": (counts["fft_count"], "count"),
        "spectral.fft_bytes_computed": (counts["fft_bytes"], "B"),
        "noise.values": (counts["noise_values"], "count"),
        "tiler.overlap_factor": (counts["predict_cells"] / (STEPS * out_cells), "ratio"),
        "tiler.fuse_bytes_computed": (counts["fuse_bytes"], "B"),
        "trace.spans": (counts["spans"], "count"),
        "trace.op_s": (traced_op_s, "s"),
        "trace.untraced_op_s": (statistics.median(untraced), "s"),
        "trace_overhead_frac": (traced_op_s / statistics.median(untraced) - 1.0, "frac"),
    })
    return m, problems


def write_spans(path: Path, name: str, seed: int, facts: dict, traces) -> None:
    path.parent.mkdir(exist_ok=True)
    ops = [[[s.id, s.name, s.start, s.end, s.parent, s.thread, s.work] for s in spans]
           for spans, _ in traces]
    doc = {"workload": name, "seed": seed, "machine": facts,
           "fields": ["id", "name", "start", "end", "parent", "thread", "work"], "ops": ops}
    path.write_text(json.dumps(doc, separators=(",", ":")))


def report_layers(bench, metrics) -> None:
    from tracing import LAYERS

    wl = bench.wl
    shares = {layer: metrics[f"{layer}.self_share"][0] for layer in LAYERS}
    top = max(shares, key=shares.get)
    verdict = "as predicted" if top == wl.top_layer else f"prediction WRONG (predicted {wl.top_layer})"
    print(f"largest self-time layer: {top} ({shares[top]:.1%}), {verdict}")
    expect = {"pipeline.patch_steps": wl.patches * STEPS,
              "tiler.overlap_factor": wl.overlap_factor}
    if wl.command == "lowres":
        expect.update({"spectral.swap_low_frequency.calls": 0, "tiler.fuse_patches.calls": 0})
    for key, want in expect.items():
        got = metrics[key][0]
        print(f"expected {key} = {want:g}: got {got:g}, {'ok' if got == want else 'MISMATCH'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must lie in [0, 2**31)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "resmaster" / "cli.py").is_file():
        print(f"error: resmaster sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # A terminated run still removes its work directory (``finally`` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        # Warm-up, untimed. Where another thread count must give the same
        # bytes, the warm-up is a full operation at that count.
        if wl.same_bytes_as is None:
            warm_argv, warm_threads = bench.argv + ["--steps", "2"], wl.threads
        else:
            warm_argv, warm_threads = bench.argv, wl.same_bytes_as
        code, _, _, err, _ = bench.call(warm_argv, warm_threads)
        if code != 0:
            raise RunError(f"warm-up operation exited {code}: {err.strip()}")
        baseline = None if wl.same_bytes_as is None else bench.out.read_bytes()
        facts = machine_facts(wl.threads)
        gate = Gate(bench, baseline)

        if args.trace:
            from tracing import Tracer, op_summary

            tracer = Tracer()
            ops, failed = closed_loop(bench, gate, args.seconds, tracer)
            walls = [wall for wall, _, _, traced in ops if not traced]
            traces = [trace for _, _, trace, traced in ops if traced and trace is not None]
            if not traces:
                raise RunError("no traced operation completed: " + "; ".join(gate.problems))
            summaries = [op_summary(spans, ffts) for spans, ffts in traces]
            metrics, problems = per_layer(bench, walls, summaries)
            metrics.update(quality(gate))
            write_spans(TRACE_DIR / f"trace-{args.workload}.json",
                        args.workload, args.seed, facts, traces)
        else:
            setup = measure_setup()
            ops, failed = closed_loop(bench, gate, args.seconds)
            walls, cpus = [op[0] for op in ops], [op[1] for op in ops]
            metrics, problems = end_to_end(bench, walls, cpus, setup), []
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    attempted = len(ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {attempted} operations")
    if args.trace:
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics read 0")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    shown = metrics if args.trace else {**metrics, **quality(gate)}
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    high = tail(walls)
    note = (f"p{high[0]} {high[1]:.6g} s" if high
            else "no tail percentile: fewer than 10 samples beyond any")
    print(f"  {'samples':42s} {attempted:>16d} operations (medians; {note})")
    print(f"  {'failed_frac':42s} {failed / attempted:>16.6g} ({failed}/{attempted})")
    if args.trace:
        report_layers(bench, metrics)
    for problem in gate.problems + problems:
        print(f"check failed: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
