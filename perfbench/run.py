"""Benchmark of the sequiv command line, end to end and module by module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick        # every workload on tiny inputs, all checks

One client drives `sequiv.cli.main(argv)` in this process, in a closed
loop (the next op starts when the previous one returns), on input files
generated from --seed under perfbench/out/work.  The loop runs whole
passes over a mix of ops built once from the seed, until --seconds of
loop time have passed and at least MIN_PASSES passes; each op is timed
by its fastest run, every run's output must equal the op's first, and
that is checked against references built with the inputs.

--trace 0 reports the end-to-end metrics.  --trace 1 repeats the same
ops with wrappers around the public functions of every sequiv module
(see tracing.py) and reports the per-layer metrics; the untraced pass
installs nothing.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; a fuller report, and with
--trace 1 every span, is written under perfbench/out.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(HERE.name) / "out"  # relative to ROOT, so file names in outputs are stable
DEFAULT_SEED = 1
SETUP_SPAWNS = 7
MIN_PASSES = 11  # so that the slowest op alone has ten runs beyond the 11th-slowest
READY_CODE = "import sys; sys.path.insert(0, 'src'); import sequiv.cli; sequiv.cli.build_parser()"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

# Functions whose call counts and self time are reported per layer.
LAYER_FUNCTIONS = (
    "cli.main",
    "intlin.det", "intlin.signature", "intlin.skew_standardize",
    "intlin.unimodular_inverse", "intlin.congruent",
    "laurent.laurent_matrix_det", "laurent.normalize_knot_polynomial",
    "seifert.validate", "seifert.alexander", "seifert.knot_signature",
    "seifert.knot_determinant", "seifert.arf", "seifert.try_reduce",
    "seifert.bounded_sequiv_search", "seifert.apply_moves",
    "braidclosure.knot_corpus", "braidclosure.seifert_matrix", "braidclosure.burau_alexander",
    "purebraid.linking_matrix", "purebraid.insert_relator", "purebraid.delta_equivalent",
    "stringlink.pairwise_linking", "stringlink.normalize_linking",
    "stringlink.delta_equivalent_links",
    "standardform.standardize", "standardform.to_disk_band", "standardform.from_disk_band",
    "standardform.transition", "standardform.standardization_witness",
)
EXHAUSTED = re.compile(r"^reason=budget exhausted after (\d+) states$", re.M)


def load_cli():
    """Import sequiv.cli from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "sequiv" / "cli.py").is_file():
        sys.exit(f"error: {src / 'sequiv'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import sequiv.cli

    if Path(sequiv.cli.__file__).resolve().parent != (src / "sequiv").resolve():
        sys.exit(f"error: imported sequiv from {sequiv.cli.__file__}, not from {src}")
    return sequiv.cli


# --------------------------------------------------------------------------
# the closed loop


@dataclass
class Result:
    """One op of the mix and every run of it."""

    op: workloads.Op
    latencies: list = field(default_factory=list)  # one per untraced run
    traced: list = field(default_factory=list)  # one per traced run, each right after an untraced one
    code: int | None = None  # of the first run
    out: str = ""  # of the first run
    first_error: str | None = None  # the first run failed before any check
    error: str | None = None  # the first failure of any run, for the report
    failed: int = 0  # failed runs

    @property
    def best(self) -> float:
        return min(self.latencies)

    @property
    def runs(self) -> int:
        return len(self.latencies) + len(self.traced)

    def fail(self, error: str, runs: int = 1) -> None:
        self.failed += runs
        self.error = self.error or error


def run_op(cli, op) -> tuple[float, int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.before:
                op.before()
            code = cli.main(op.argv)
        error = None
    except (Exception, SystemExit) as exc:  # an escape from main fails the op, not the run
        code = None
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    latency = perf_counter() - start
    if code == 1:
        error = "exit 1 on valid input: " + err.getvalue().strip()
    return latency, code, out.getvalue(), error


def run_once(cli, r: Result, run_id: int, tracer) -> None:
    """Run an op once; with a tracer, run it again traced right after.

    Pairing the two runs of an op in time keeps the machine's slow and
    fast spells out of the tracing overhead.
    """
    latency, code, out, error = run_op(cli, r.op)
    if not r.latencies:
        r.code, r.out = code, out
        if r.op.after and error is None:
            try:
                r.op.after(out)
            except (OSError, ValueError, IndexError) as exc:
                error = f"cannot use the op's output: {exc!r}"
        r.first_error = error
    elif error is None and (code, out) != (r.code, r.out):
        error = "output differs from the op's first run"
    r.latencies.append(latency)
    if error is not None:
        r.fail(error)
    if tracer is not None:
        tracer.op = run_id
        tracer.install()
        try:
            traced_latency, traced_code, traced_out, _ = run_op(cli, r.op)
        finally:
            tracer.uninstall()
        r.traced.append(traced_latency)
        if error is None and (traced_code, traced_out) != (code, out):
            r.fail("traced output differs from the untraced output")


def measure(cli, ops, seconds, min_passes, spawns=0, tracer=None):
    """Run whole passes over the mix until `seconds` of loop time have
    passed, and at least `min_passes` passes.

    With spawns > 0, also time that many interpreter start-ups, spread
    evenly over the run so that they sample the machine at different
    moments; the loop time excludes them.
    """
    results = [Result(op) for op in ops]
    ready: list[float] = []
    bare: list[float] = []
    wall = 0.0
    passes = 0
    if spawns:
        spawn_seconds(READY_CODE)  # compiles the bytecode cache once
    while passes < min_passes or wall < seconds:
        if len(ready) < spawns and wall >= len(ready) * seconds / spawns:
            ready.append(spawn_seconds(READY_CODE))
            bare.append(spawn_seconds("pass"))
        start = perf_counter()
        for i, r in enumerate(results):
            run_once(cli, r, passes * len(results) + i, tracer)
        wall += perf_counter() - start
        passes += 1
    while len(ready) < spawns:
        ready.append(spawn_seconds(READY_CODE))
        bare.append(spawn_seconds("pass"))
    setup = (statistics.median(ready), statistics.median(bare)) if spawns else None
    return results, wall, passes, setup


def check_all(results: list[Result]) -> None:
    """Check each op's first output; every run that printed it shares the verdict."""
    for r in results:
        if r.first_error is not None:
            continue
        try:
            r.op.check(r.code, r.out)
        except CheckError as exc:
            r.fail(str(exc), r.runs - r.failed)
        except Exception as exc:  # a malformed output can break a parser inside a check
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            r.fail("check raised " + error, r.runs - r.failed)


# --------------------------------------------------------------------------
# end-to-end metrics


def spawn_seconds(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, i.e. the 11th-slowest sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.out.encode())
    return h.hexdigest()


def end_to_end(results, wall, setup, peak_rss_kb) -> tuple[dict, dict]:
    """Latencies are each op's fastest run, counted once per run.

    The host's speed drifts by up to 2x over minutes, and every run of an
    op does the same work, so the fastest run is the op's cost and the
    slower ones measured the host.  Each run counts as one sample at its
    op's best latency; every op runs equally often, so the median is that
    of the mix, and with at least MIN_PASSES passes the tail is the
    slowest op of the mix.  ops_per_s is the mix's op count over the sum
    of the ops' best latencies.
    """
    samples = [r.best for r in results for _ in r.latencies]
    attempted = sum(r.runs for r in results)
    failed = sum(r.failed for r in results)
    decided = sum(r.runs - r.failed for r in results if r.code == 0)
    tail_value, tail_pct, beyond = tail(samples)
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (len(results) / sum(r.best for r in results), "ops/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "decided_share": (decided / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    every_run = [t for r in results for t in r.latencies]
    extra = {
        "bare_interpreter_s": setup[1],
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "failed_share": failed / attempted,
        "loop_ops_per_s": attempted / wall,
        "every_run_p50_ms": statistics.median(every_run) * 1e3,
        "run_over_best_p50": statistics.median(t / r.best for r in results for t in r.latencies),
    }
    return metrics, extra


# --------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer, results, passes) -> tuple[dict, dict]:
    """Counts are per pass over the mix; every pass does the same work."""
    table = tracer.by_function()
    n = len(results)
    traced_wall = sum(t for r in results for t in r.traced)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, own = table.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_share"] = (own / traced_wall, "ratio")
    module_self = {m: 0.0 for m in tracing.MODULES}
    for name, (_, own) in table.items():
        module_self[name.split(".")[0]] += own
    for module, own in module_self.items():
        metrics[f"{module}.share"] = (own / traced_wall, "ratio")

    states = apply_rows = 0
    search_s = 0.0
    for i, r in enumerate(results):
        hit = EXHAUSTED.search(r.out)
        if hit:
            states += int(hit.group(1))
            apply_rows += sum(tracer.count("seifert.CongruenceMove.apply_rows", p * n + i)
                              for p in range(passes)) / passes
            search_s += r.best
    letters_added = 0
    for r in results:
        if r.op.argv[:2] == ["slink", "normalize"] and r.first_error is None:
            letters_in = len(Path(r.op.argv[2]).read_text().splitlines()) - 2
            letters_added += len(r.out.splitlines()) - 2 - letters_in
    alexander_calls = table.get("seifert.alexander", (0, 0))[0]
    det_calls = table.get("intlin.det", (0, 0))[0]
    metrics.update({
        "seifert.alexander.calls_per_op": (alexander_calls / (n * passes), "ratio"),
        "intlin.det.calls_per_op": (det_calls / (n * passes), "ratio"),
        "seifert.search.states_exhausted": (states, "count"),
        "seifert.search.apply_rows_per_state": (apply_rows / states if states else 0.0, "ratio"),
        "laurent.LaurentPoly.__mul__.calls": (tracer.count("laurent.LaurentPoly.__mul__") / passes, "count"),
        "stringlink.normalize_linking.letters_added": (letters_added, "count"),
        "trace_overhead": (traced_wall / sum(t for r in results for t in r.latencies), "ratio"),
    })
    extra = {
        "self_s": {name: own / passes for name, (_, own) in sorted(table.items())},
        "calls": {name: calls / passes for name, (calls, _) in sorted(table.items())},
        "counted_calls": {name: calls / passes for name, calls in tracer.counted().items()},
        "module_self_s": {m: own / passes for m, own in module_self.items()},
        "seifert.search.states_per_s": states / search_s if search_s else 0.0,
        "traced_op_time_s": traced_wall / passes,
    }
    return metrics, extra


def write_spans(tracer, path: Path) -> None:
    with path.open("w") as fh:
        fh.write('["id", "name", "start", "end", "parent", "op"]\n')
        for i, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps([i, name, start, end, parent, op], separators=(",", ":")) + "\n")


# --------------------------------------------------------------------------
# one workload, start to finish


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_workload(cli, workload, seed, seconds, traced, quick) -> dict:
    spawns = 0 if traced else 1 if quick else SETUP_SPAWNS
    min_passes = 2 if quick else 1 if traced else MIN_PASSES
    tracer = tracing.Tracer() if traced else None
    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.MIXES[workload](workloads.mix_rng(workload, seed), work, quick)
    results, wall, passes, setup = measure(cli, ops, seconds, min_passes, spawns, tracer)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_all(results)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "quick": quick, "environment": environment(), "ops_in_mix": len(ops), "passes": passes,
        "loop_wall_s": wall, "attempted": sum(r.runs for r in results),
    }
    if traced:
        metrics, extra = per_layer(tracer, results, passes)
        write_spans(tracer, OUT / f"spans-{workload}.jsonl")
    else:
        metrics, extra = end_to_end(results, wall, setup, peak_rss)
    classes = {}
    for r in results:
        classes.setdefault(r.op.label, []).append(r.best)
    report.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": extra,
        "best_by_class_ms": {
            label: {"ops": len(v), "p50": statistics.median(v) * 1e3} for label, v in classes.items()
        },
        "failed": sum(r.failed for r in results),
        "failures": [f"{r.op.label}: {' '.join(r.op.argv)}: {r.error} ({r.failed} of {r.runs} runs)"
                     for r in results if r.error][:20],
        "digest": digest(results),
    })
    return report


def digest_line(report) -> tuple[str, bool]:
    mode = "quick" if report["quick"] else "full"
    if report["seed"] != DEFAULT_SEED:
        return f"digest {report['digest']} (no reference for seed {report['seed']})", True
    reference = json.loads((HERE / "digests.json").read_text()).get(mode, {}).get(report["workload"])
    ok = reference == report["digest"]
    verdict = "pass" if ok else f"FAIL, reference {reference}"
    return f"digest {report['digest']} {verdict}", ok


def print_report(report) -> bool:
    env = report["environment"]
    print(f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"python={env['python']} nproc={env['nproc']} platform={env['platform']}")
    print(f"  runs attempted={report['attempted']} failed={report['failed']} "
          f"ops in mix={report['ops_in_mix']} passes={report['passes']} "
          f"loop_wall={report['loop_wall_s']:.3f} s")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in report["details"].items():
        if not isinstance(value, dict):
            print(f"  {name} = {value:.6g}")
    if report["trace"]:
        details = report["details"]
        for name, own in details["self_s"].items():
            print(f"  {name}.self_s = {own:.6g} s ({details['calls'][name]} calls)")
        for name, own in details["module_self_s"].items():
            print(f"  {name}.self_s = {own:.6g} s")
        for name, calls in details["counted_calls"].items():
            print(f"  {name}.calls = {calls} (counted, no spans)")
    for label, c in report["best_by_class_ms"].items():
        print(f"  class {label!r}: {c['ops']} ops, p50 of best {c['p50']:.3f} ms")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    line, digest_ok = digest_line(report)
    print("  " + line)
    return digest_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two passes of a tiny mix of every workload, traced and untraced")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    os.chdir(ROOT)
    cli = load_cli()
    (ROOT / OUT).mkdir(exist_ok=True)

    if args.quick:
        ok = True
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                report = run_workload(cli, workload, args.seed, 0, traced, quick=True)
                ok &= print_report(report) and report["failed"] == 0
        print("quick: pass" if ok else "quick: FAIL")
        return 0 if ok else 1

    report = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), quick=False)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
