"""mfmarl benchmark: runs one workload for a fixed time, checks its outputs,
and prints its metrics; the last line of standard output is one JSON object.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports `mfmarl` from `src/`. With
`--trace 0` it reports the end-to-end metrics of untraced jobs; with
`--trace 1` it alternates untraced and traced jobs and reports per-layer
metrics of the traced ones plus the tracing overhead. Every job is timed in
units with a reference computation between them (`reference.py`), and job
time is reported both as wall time and normalized by the reference. It
exits 1 if a correctness gate fails and 2 if the package sources are
missing.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (imports no numpy: BLAS is pinned first)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
# Thread budget: harness threads x BLAS threads <= nproc. BLAS is pinned to
# one thread so that the thread pool of large-n can use every core; see README.
BLAS_THREADS = 1
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD_BYTES = 1 << 20
# Set-up samples per run, each a fresh process.
SETUP_SAMPLES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_runtime() -> None:
    """Launch environment: BLAS threads, and glibc's mmap threshold fixed at
    1 MiB. With the default sliding threshold, freed arrays of up to 32 MiB
    stay in per-thread heaps, so peak RSS varied by 90 MB between runs of
    large-n with the thread timing; fixed, it tracks live allocations."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    libc_name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(libc_name), "mallopt", None) if libc_name else None
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def machine_facts() -> dict:
    """nproc, last-level cache bytes, OpenBLAS version and runtime threads."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "llc_bytes": 0, "blas_threads": BLAS_THREADS, "blas": "unknown"}
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        facts["llc_bytes"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                facts["blas_threads"] = get_threads()
                facts["blas"] = get_config().decode()
                return facts
    return facts


def setup_probes(workload: str, seed: int, count: int, reference) -> tuple:
    """Set-up time of `count` fresh processes, each from its own start, and
    the reference times measured before each process and after the last."""
    walls, refs = [], [reference.measure()]
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        walls.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        refs.append(reference.measure())
    return walls, refs


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class UnitTimer:
    """Times the units of jobs and measures the reference after each one.
    A unit's normalized time is its wall time over the mean of the reference
    times measured just before and just after it."""

    def __init__(self, reference):
        self.reference = reference
        self.last_ref = reference.measure()
        self.wall = self.norm = 0.0

    def start_job(self) -> None:
        self.wall = self.norm = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        ref = self.reference.measure()
        self.wall += seconds
        self.norm += seconds / (0.5 * (self.last_ref + ref))
        self.last_ref = ref
        return result, seconds


def run_jobs(wl, tracer, timer, seconds: float):
    """Timed phase: whole jobs back to back until the next one would end past
    `seconds` (at least one job; with a tracer, jobs alternate untraced and
    traced and at least one of each runs). Returns (wall time, normalized
    time, traced, outputs) per job, the per-layer metrics of each traced job,
    and the failures."""
    jobs, layers, fails = [], [], []
    start, longest = time.perf_counter(), 0.0
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.install(wl.envs)
        t0 = time.perf_counter()
        timer.start_job()
        try:
            out = wl.run(timer)
        except Exception:  # the job failed: count it and stop the loop
            traceback.print_exc()
            fails.append(f"job raised: {traceback.format_exc().strip().splitlines()[-1]}")
            return jobs, layers, fails
        finally:
            if traced:
                tracer.uninstall()
        job_s = time.perf_counter() - t0  # with the references
        jobs.append((timer.wall, timer.norm, traced, out))
        if traced:
            layers.append(tracing.layer_metrics(tracer))
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write(TRACE_DIR / f"{wl.name}.jsonl")
            tracer.reset()
        longest = max(longest, job_s)
        both = tracer is None or len({j[2] for j in jobs}) == 2
        if both and time.perf_counter() - start + longest > seconds:
            return jobs, layers, fails


def end_to_end(wl, args, reference, jobs, peak_rss_mb: float, fails: list) -> dict:
    """Medians of the untraced jobs and of the set-up probes; wall times,
    throughputs and sample counts printed."""
    plain = [out for _, _, traced, out in jobs if not traced]
    try:
        walls, refs = setup_probes(args.workload, args.seed, SETUP_SAMPLES, reference)
    except (subprocess.SubprocessError, ValueError, KeyError) as err:
        fails.append(f"set-up probe failed: {err}")
        walls, refs = [], [1.0]
    # The probes take a few seconds, so one speed factor, from the median of
    # the references around them, scales them to the nominal speed.
    speed = reference.nominal_s / statistics.median(refs)
    metrics = {
        "setup_s": ("s", [wall * speed for wall in walls]),
        "run_norm": ("ratio", [norm for _, norm, traced, _ in jobs if not traced]),
        "peak_rss_mb": ("MB", [peak_rss_mb]),
    }
    printed = dict(metrics)
    printed["setup_wall_s"] = ("s", walls)
    printed["run_s"] = ("s", [wall for wall, _, traced, _ in jobs if not traced])
    if plain and "sweep_s" in plain[0]:
        printed["agent_steps_per_s"] = ("agent-steps/s", [wl.agent_steps(o) / o["sweep_s"] for o in plain])
    if plain and "train_s" in plain[0]:
        printed["npg_iters_per_s"] = ("iter/s", [wl.cfg.npg.j_steps / o["train_s"] for o in plain])
    for name, (unit, xs) in printed.items():
        if xs:
            lo, hi = quartiles(xs)
            print(f"{name} {statistics.median(xs):.6g} {unit} (median of {len(xs)}, quartiles {lo:.6g}..{hi:.6g})")
    return {k: {"value": statistics.median(xs), "unit": unit} for k, (unit, xs) in metrics.items() if xs}


def per_layer(wl, jobs, layers, setup_layers: dict, facts: dict) -> dict:
    """Per-layer metrics averaged over traced jobs, tracing overhead, and
    machine facts. The overhead is the ratio of the median normalized times
    of traced and untraced jobs, so host drift cancels; in seconds it is that
    ratio applied to the median untraced wall time."""
    out = {key: statistics.fmean(m[key] for m in layers) for key in (layers[0] if layers else ())}
    out.update(setup_layers)
    plain = [norm for _, norm, traced, _ in jobs if not traced]
    traced = [norm for _, norm, traced, _ in jobs if traced]
    if plain and traced:
        extra = statistics.median(traced) / statistics.median(plain) - 1.0
        out["trace.overhead_pct"] = 100.0 * extra
        out["trace.overhead_s"] = extra * statistics.median(wall for wall, _, t, _ in jobs if not t)
    out["trace.units"] = len(layers)
    out["machine.nproc"] = facts["nproc"]
    out["machine.llc_bytes"] = facts["llc_bytes"]
    out["machine.blas_threads"] = facts["blas_threads"]
    out["harness.threads"] = wl.threads
    for key, value in out.items():
        print(f"{key} {value:.6g} {tracing.UNITS[key]}")
    return {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfmarl" / "__init__.py").is_file():
        print(f"error: mfmarl sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_runtime()
    sys.path.insert(0, str(SRC))
    import mfmarl
    import reference
    import workloads

    if not Path(mfmarl.__file__).resolve().is_relative_to(SRC):
        print(f"error: mfmarl imported from {mfmarl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    setup_layers = {}
    if tracer is not None:
        tracer.install()
    wl.setup()
    if tracer is not None:
        tracer.uninstall()
        builds = tracer.durations().get("model.build_firm_env", [])
        setup_layers["model.build_s"] = statistics.fmean(builds) if builds else 0.0
        tracer.reset()

    timer = UnitTimer(reference.Reference(wl.reference))
    jobs, layers, fails = run_jobs(wl, tracer, timer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(out["attempted"] for *_, out in jobs) + (1 if fails else 0)
    failed = sum(out["failed"] for *_, out in jobs) + (1 if fails else 0)
    if jobs:
        fails += wl.check([out for *_, out in jobs])
    facts = machine_facts()
    if wl.threads * facts["blas_threads"] > facts["nproc"]:
        fails.append(f"thread budget: {wl.threads} x {facts['blas_threads']} BLAS > nproc {facts['nproc']}")

    print(f"workload {wl.name} seed {args.seed}: {len(jobs)} jobs, harness threads {wl.threads}, "
          f"BLAS threads {facts['blas_threads']}, nproc {facts['nproc']}, LLC {facts['llc_bytes']} B, {facts['blas']}")
    for msg in fails:
        print(f"GATE FAILED: {msg}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} operations)")
    if tracer is None:
        metrics = end_to_end(wl, args, timer.reference, jobs, peak_rss_mb, fails)
    else:
        metrics = per_layer(wl, jobs, layers, setup_layers, facts)

    correct = not fails and failed == 0 and bool(jobs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
