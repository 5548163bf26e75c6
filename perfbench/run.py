"""Benchmark of the globalspin package: four workloads through the same entry
points a user calls, end-to-end metrics with tracing off, per-layer metrics
from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rotation_search --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record (machine,
versions, per-operation counts). See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-ups per run: this process plus fresh probe processes; setup_s is
# their median.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print the set-up time, exit")
    return p.parse_args(argv)


def import_package():
    """Import globalspin from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "globalspin", "__init__.py")):
        raise SystemExit(f"error: no globalspin sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import globalspin
    import globalspin.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(globalspin.__file__)) != os.path.join(SRC, "globalspin"):
        raise SystemExit("error: globalspin was imported from outside src/")
    return globalspin, time.perf_counter() - t0


def probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def blas_info() -> dict:
    import ctypes
    import glob
    import numpy as np
    info = {"library": "unknown", "threads": "unknown",
            "env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def commit() -> str:
    # Checked first so that git does not answer for an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Tally:
    """What a run's rounds did: times, CPU, operations, check failures."""

    def __init__(self) -> None:
        self.times, self.cpu, self.errors = [], [], []
        self.op_times = []  # per round, the time of each operation
        self.attempted = self.failed = 0
        self.per_kind = {}

    def add(self, outcomes) -> None:
        for o in outcomes:
            k = self.per_kind.setdefault(o.kind, {"attempted": 0, "failed": 0})
            k["attempted"] += 1
            if o.failed:
                k["failed"] += 1
                k["last_failure"] = o.error or f"exit {o.code}: {o.stderr.strip()}"
        self.attempted += len(outcomes)
        self.failed += sum(o.failed for o in outcomes)


def run_rounds(gs, wl, seconds, rounds_max, tally, tracer=None) -> None:
    """Run whole rounds from round 0 until the next one would end past
    `seconds`, or `rounds_max` are done. Checks run outside the timed
    region."""
    import workloads
    t_begin = time.perf_counter()
    r = 0
    while True:
        ops = wl.round_ops(r)
        if tracer is not None:
            tracer.install(gs)
        outcomes, op_times = [], []
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            for k, op in enumerate(ops):
                if tracer is not None:
                    tracer.run_id = k  # the spans of one operation share it
                t_op = time.perf_counter()
                outcomes.append(workloads.run_op(gs, op))
                op_times.append(time.perf_counter() - t_op)
        finally:
            if tracer is not None:
                tracer.close()
        tally.times.append(time.perf_counter() - t0)
        tally.op_times.append(op_times)
        tally.cpu.append(time.process_time() - c0)
        tally.add(outcomes)
        tally.errors += wl.check(r, outcomes)
        r += 1
        elapsed = time.perf_counter() - t_begin
        if r >= rounds_max or elapsed + statistics.median(tally.times) > seconds:
            return


def batch_wall_s(tally, fastest_repeat: bool) -> float:
    """Wall time of one round's batch of operations.

    The host's speed swings by up to 1.6x from one second to the next, and
    only ever slows work down. Where a round is many short operations, the
    fastest time of each over the run's rounds, summed, is much steadier
    than a round's time. Where one long operation fills a round, it repeats
    only a few times and its fastest repeat depends on how many fit, so the
    mean round time is steadier there."""
    if fastest_repeat:
        return sum(min(col) for col in zip(*tally.op_times))
    return statistics.mean(tally.times)


def per_layer_metrics(tracer, import_s, cpu_s, overhead_s) -> dict:
    s = tracer.summary()
    calls, secs, layer = s["calls"], s["seconds"], s["layer_self"]
    m = {"setup.import_s": (import_s, "s"), "process.cpu_s": (cpu_s, "s"),
         "trace.overhead_s": (overhead_s, "s")}
    for name, self_s in layer.items():
        m[f"{name}.self_s"] = (self_s, "s")
    for name in ("cli.main", "synth.minimize", "circuits.evaluate",
                 "circuits.verify_target", "spins.global_field_unitary",
                 "spins.exchange_unitary", "spins.xy_exchange_unitary",
                 "spins.spin_operator", "linalg.kron", "linalg.phase_distance",
                 "schedule.compile_schedule", "schedule.simulate_schedule",
                 "device.field_profile"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("cli.main", "synth.enumerate_sequences",
                 "synth.global_hadamard_search", "circuits.evaluate",
                 "circuits.verify_target", "circuits.circuit_from_text",
                 "spins.global_field_unitary", "spins.exchange_unitary",
                 "spins.xy_exchange_unitary", "spins.spin_operator",
                 "linalg.kron", "linalg.phase_distance",
                 "schedule.compile_schedule", "schedule.simulate_schedule",
                 "schedule.schedule_to_text", "schedule.schedule_from_text",
                 "schedule.unitary_digest", "schedule.validate_schedule",
                 "device.field_profile", "device.geometry_from_text"):
        m[f"{name}.s"] = (secs.get(name, 0.0), "s")
    for n in (8, 9, 10):
        m[f"schedule.simulate_schedule.s_n{n}"] = (
            s["tagged"].get(("schedule.simulate_schedule", n), 0.0), "s")
    # The search funnel of the headline problem (the literal twin stops
    # after its bystander filter and is checked for that separately).
    stats = [r.stats for r in tracer.results.get("synth.enumerate_sequences", [])
             if r.problem_name == "z_difference_rotation"]
    st = stats[0] if stats else None
    for key in ("words_total", "placements", "bystander_survivors",
                "pair_candidates", "deduplicated", "verified"):
        m[f"synth.{key}"] = (getattr(st, key) if st else 0, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m["synth.stage1_survival"] = (
        ratio(st.bystander_survivors, st.words_total) if st else 0.0, "ratio")
    m["synth.stage2_hit_rate"] = (
        ratio(st.pair_candidates, st.bystander_survivors * st.placements)
        if st else 0.0, "ratio")
    m["synth.verify_yield"] = (ratio(st.verified, st.deduplicated)
                               if st else 0.0, "ratio")
    m["synth.minimize.nfev"] = (
        sum(int(r.nfev) for r in tracer.results.get("synth.minimize", [])), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    gs, import_s = import_package()
    import numpy as np
    import scipy

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         + ", ".join(workloads.WORKLOADS))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](gs, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s]
        tally = Tally()
        if args.trace:
            # Round 0 untraced, traced, and untraced again: the traced time
            # minus the mean untraced time is the tracing overhead, with the
            # first round's warm-up shared out between both sides.
            tracer = spans.Tracer()
            for t in (None, tracer, None):
                run_rounds(gs, wl, 0.0, 1, tally, t)
            tracer.save(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
            untraced = (tally.times[0] + tally.times[2]) / 2.0
            metrics = per_layer_metrics(tracer, import_s,
                                        (tally.cpu[0] + tally.cpu[2]) / 2.0,
                                        tally.times[1] - untraced)
        else:
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
            run_rounds(gs, wl, args.seconds, wl.MAX_ROUNDS, tally)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": batch_wall_s(tally, wl.FASTEST_REPEAT),
                           "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in tally.errors:
        print(f"check failed: {e}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "commit": commit(),
        "setup_samples_s": setups, "round_wall_s": tally.times,
        "op_wall_s": tally.op_times,
        "round_cpu_s": tally.cpu, "operations": tally.per_kind,
        "check_errors": len(tally.errors),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
