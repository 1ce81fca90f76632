"""Cold-process benchmark of the symtrap command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client, closed loop: the benchmark starts one ``python -m symtrap.cli``
child at a time, with ``PYTHONPATH`` set to this checkout's ``src/``, so
every call pays interpreter start, import and cold memo caches as a user's
call does.  The seed draws the invocation list of a pass from the fixed
pools in ``pools.py``; every pass of a run repeats that list.

``--trace 0`` repeats passes for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs one plain pass and one pass under
``traced_cli.py`` and reports per-layer totals.  Every output is checked
against ``expected.json`` and the invariants in ``checks.py``; a wrong
output, unexpected exit code or a call over the time limit counts as failed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment and the
drawn argv list, goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pools
import traced_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: A call running longer than this is killed and counts as failed.
TIME_LIMIT_S = 60.0
#: No call runs past this many seconds after the run starts, so a run ends
#: well within its three minutes however slow the program is.
RUN_CAP_S = 150.0
#: Bare ``import symtrap.cli`` children interleaved with each pass, each
#: followed by one calibration child.
BARE_PER_PASS = 10
BARE_ARGV = ["-c", "import symtrap.cli"]
#: The calibration child: interpreter start and exit, which shares no code
#: with symtrap.  It tracked the host's speed for both start-up-bound and
#: compute-bound calls better than a pure-Python loop did.
CALIBRATION_ARGV = ["-c", "pass"]
#: CPU seconds the calibration child takes at the reference speed.
CALIBRATION_REF_S = 0.07
#: The end-to-end metrics of the result line.  Their times are CPU time
#: (user + system) of the children at the reference speed: each pass's CPU
#: times are scaled by CALIBRATION_REF_S over the median CPU time of that
#: pass's calibration children.  On a shared 2-vCPU VM the host's
#: speed moved raw CPU times by up to 40 % within minutes, and time stolen by
#: the hypervisor moved wall times further; the scaled times moved about half
#: as much.  Raw CPU and wall figures are printed beside them, and
#: failed_ratio, which is 0 on a correct run, is the result's failed/attempted.
RESULT_METRICS = ("setup_s", "cpu_s", "cmd_cpu_p50_ms", "peak_rss_mb")
LAYERS = ("cli", *traced_cli.LAYERS)


@dataclass
class Call:
    """Outcome of one child process."""

    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


@dataclass
class Pass:
    calls: list[Call] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bare: list[Call] = field(default_factory=list)
    calibration: list[Call] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def maxrss_kb(self) -> int:
        return max(c.maxrss_kb for c in self.calls)

    @property
    def speed(self) -> float:
        """Factor that scales this pass's CPU times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(c.cpu_s for c in self.calibration)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path, stderr: Path, env: dict,
          limit: float = TIME_LIMIT_S) -> Call:
    """Run one child to completion under the time limit, with its rusage.

    The child is waited for without being reaped, so the timer can never
    signal a recycled pid; ``wait4`` then reaps it and returns its rusage.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(limit, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, timed_out.is_set()
    )


class Runner:
    """Runs passes of one drawn invocation list inside a scratch directory."""

    def __init__(self, invocations: list[pools.Invocation], rundir: Path):
        self.invocations = invocations
        self.rundir = rundir
        self.deadline = time.perf_counter() + RUN_CAP_S
        self.env = child_env()
        self.expected = checks.load_expected()
        self.python = sys.executable

    def _paths(self, i: int) -> tuple[Path, Path, Path]:
        return (self.rundir / f"{i}.stdout", self.rundir / f"{i}.stderr", self.rundir / f"{i}.out")

    def bare(self, argv: list[str] = BARE_ARGV) -> Call:
        out, err, _ = self._paths(-1)
        return spawn([self.python, *argv], self.rundir, out, err, self.env)

    def warm_up(self) -> None:
        """Compile every module's bytecode and load the interpreter's files, untimed.

        Per-process cache filling is not warmed: each CLI call pays it.
        """
        call = self.bare(["-c", "import symtrap.cli, symtrap.oracle"])
        if call.exit_code != 0:
            sys.stderr.write(self._paths(-1)[1].read_text(errors="replace"))
            raise SystemExit(f"cannot import symtrap from {SRC}")
        for _ in range(3):
            self.bare()

    def run_pass(self, traced: bool = False, bare: int = 0) -> Pass:
        result = Pass()
        n = len(self.invocations)
        bare_before = {round(k * n / bare) for k in range(bare)} if bare else set()
        for i, inv in enumerate(self.invocations):
            if i in bare_before:
                result.bare.append(self.bare())
                result.calibration.append(self.bare(CALIBRATION_ARGV))
            stdout, stderr, output = self._paths(i)
            output.unlink(missing_ok=True)
            args = inv.argv(str(output))
            if traced:
                spans = self.rundir / f"{i}.spans.json"
                spans.unlink(missing_ok=True)
                argv = [self.python, str(HERE / "traced_cli.py"), str(spans), str(i), *args]
            else:
                argv = [self.python, "-m", "symtrap.cli", *args]
            limit = min(TIME_LIMIT_S, max(0.0, self.deadline - time.perf_counter()))
            result.calls.append(spawn(argv, self.rundir, stdout, stderr, self.env, limit))
        for i, (inv, call) in enumerate(zip(self.invocations, result.calls)):
            failure = self._check(i, inv, call)
            if failure:
                result.failures.append(f"{inv.key}: {failure}")
            if traced:
                result.traces.append(self._load_trace(i))
        return result

    def _check(self, i: int, inv: pools.Invocation, call: Call) -> str | None:
        if call.timed_out:
            return f"killed at the {TIME_LIMIT_S:.0f} s call limit or the {RUN_CAP_S:.0f} s run cap"
        stdout, _, output = self._paths(i)
        payload = stdout.read_bytes()
        if inv.output:
            if payload:
                return "wrote to stdout despite --output"
            payload = output.read_bytes() if output.exists() else b""
        return checks.output_failure(
            self.expected, inv.key, inv.base[0], inv.fmt, call.exit_code, payload
        )

    def _load_trace(self, i: int) -> dict:
        path = self.rundir / f"{i}.spans.json"
        if not path.exists():
            return {}
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def bytes_out(self, i: int) -> int:
        stdout, _, output = self._paths(i)
        size = stdout.stat().st_size
        return size + (output.stat().st_size if output.exists() else 0)


def layer_totals(runner: Runner, plain: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer sums over the traced pass, plus tracing and process overhead."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    import_s = start_s = 0.0
    for call, trace in zip(traced.calls, traced.traces):
        if not trace:
            continue
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, layer, begin, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - begin
        for (name, layer, begin, end, parent), child in zip(spans, covered):
            self_s[layer] += end - begin - child
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        import_s += trace["import_s"]
        start_s += call.wall_s - trace["elapsed_s"]
    offered = counts.get("linalg.vectors_offered", 0)
    kept = counts.get("linalg.vectors_kept", 0)
    out: dict[str, tuple[float, str]] = {
        "cli.import_s": (import_s, "s"),
        "cli.bytes_out": (sum(runner.bytes_out(i) for i in range(len(traced.calls))), "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    out["linalg.independent_yield"] = (kept / offered if offered else 0.0, "1")
    out["process.start_s"] = (start_s, "s")
    out["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return out


COUNTERS = (
    "characters.tables_built",
    "characters.mn_evals",
    "characters.kostka_evals",
    "partitions.quanta_enumerated",
    "oscillator.shell_reductions",
    "oscillator.lambda_reductions",
    "branching.calls",
    "mapping.levels_listed",
    "snippet.bases_built",
    "snippet.vectors_out",
    "linalg.vectors_offered",
    "linalg.vectors_kept",
    "oracle.checks",
    "cache.entries",
)


def median_call(passes: list[Pass], value) -> float:
    """Median over the drawn list of each call's median across passes.

    Taking each call's median first keeps the result on the same calls of
    the list whatever the noise, where a median pooled over passes can jump
    across a cost gap between neighbouring calls.
    """
    per_call = zip(*([value(p, c) for c in p.calls] for p in passes))
    return statistics.median(statistics.median(times) for times in per_call)


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    failed = sum(len(p.failures) for p in passes)
    return {
        "setup_s": (statistics.median(c.cpu_s * p.speed for p in passes for c in p.bare), "s"),
        "cpu_s": (statistics.median(p.cpu_s * p.speed for p in passes), "s"),
        "cmd_cpu_p50_ms": (median_call(passes, lambda p, c: c.cpu_s * p.speed) * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(p.maxrss_kb for p in passes) / 1024.0, "MB"),
        "calibration_s": (statistics.median(c.cpu_s for p in passes for c in p.calibration), "s"),
        "setup_raw_s": (statistics.median(c.cpu_s for p in passes for c in p.bare), "s"),
        "cpu_raw_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "setup_wall_s": (statistics.median(c.wall_s for p in passes for c in p.bare), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cmd_p50_ms": (median_call(passes, lambda p, c: c.wall_s) * 1000.0, "ms"),
        "failed_ratio": (failed / sum(len(p.calls) for p in passes), "1"),
    }


def environment() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "symtrap").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    from importlib.metadata import PackageNotFoundError, version

    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = None
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "click": click_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pools.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "symtrap" / "cli.py").is_file():
        print(f"error: no symtrap sources under {SRC}", file=sys.stderr)
        return 2
    workload = pools.WORKLOADS[args.workload]
    invocations = pools.draw(workload, args.seed)
    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.d"
    rundir.mkdir(parents=True, exist_ok=True)
    runner = Runner(invocations, rundir)

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    runner.warm_up()

    passes: list[Pass] = []
    began = time.perf_counter()
    if args.trace:
        plain = runner.run_pass()
        traced = runner.run_pass(traced=True)
        passes = [plain, traced]
        metrics = layer_totals(runner, plain, traced)
        shown = dict(metrics)
    else:
        longest = 0.0
        while True:
            started = time.perf_counter()
            passes.append(runner.run_pass(bare=BARE_PER_PASS))
            longest = max(longest, time.perf_counter() - started)
            if time.perf_counter() - began + longest > args.seconds:
                break
        shown = end_to_end(passes)
        metrics = {k: shown[k] for k in RESULT_METRICS}
    env["loadavg_end"] = os.getloadavg()

    attempted = sum(len(p.calls) for p in passes)
    argv_list = [inv.argv("OUTPUT") for inv in invocations]
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "time_limit_s": TIME_LIMIT_S,
        "argv": argv_list,
        "draw_sha256": hashlib.sha256(json.dumps(argv_list).encode()).hexdigest(),
        "passes": [
            {
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "maxrss_kb": p.maxrss_kb,
                "bare_wall_s": [c.wall_s for c in p.bare],
                "bare_cpu_s": [c.cpu_s for c in p.bare],
                "calibration_cpu_s": [c.cpu_s for c in p.calibration],
                "calls_wall_s": [c.wall_s for c in p.calls],
                "calls_cpu_s": [c.cpu_s for c in p.calls],
            }
            for p in passes
        ],
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    for path in rundir.iterdir():
        path.unlink()
    rundir.rmdir()

    print(
        f"workload {args.workload}  seed {args.seed}  draw {record['draw_sha256'][:12]}  "
        f"passes {len(passes)}  calls/pass {len(invocations)}"
    )
    print(
        f"python {env['python']}  click {env['click']}  nproc {env['nproc']}  "
        f"commit {env['commit'] or 'unknown'}  src {env['src_sha256'][:12]}  "
        f"load {env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
