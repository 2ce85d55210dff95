"""gkmflag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
workloads are

* tables-cold: ``gkmflag classes`` and ``gkmflag pair`` jobs, each in a
  fresh process, every output checked by the independent checker;
* verify-cold: ``gkmflag verify`` jobs in fresh processes, every report
  required to be complete and all-pass;
* serve-warm: one long-lived session (serve.py) that builds tables once and
  serves small requests against them, each checked against the paper's
  identities.

One client runs one job at a time (a closed loop).  A run is made of whole
rounds of the seeded job list; it starts another round while that round is
expected to end within --seconds.  With --trace 0 the last line of standard
output is the JSON result with the end-to-end metrics; with --trace 1 the
jobs run under the tracer and the result holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
OUT = os.path.join(BENCH, "out")
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
START_EVERY = 4  # one timed interpreter start per this many cold jobs

# One round of tables-cold: command, space (type[/parabolic]), families,
# format[, side].  Sizes run from a tenth of a second to about three
# seconds; the slow families listed in CHANGES.md are left out.  The list is
# built in four bands of similar job times (16 small, 16 around the median,
# 10 around the tail percentile, 6 large) so that the median and the tail
# fall inside a band rather than on the edge between two kinds of job.
TABLE_JOBS = """
classes A1 csm json
classes A1 mc json
classes A2 csm csv
classes A2 csm latex Bminus
classes A2 sm json
classes A2 mc latex
classes A2 schubert-b json
classes A2 kschubert-bminus csv
classes B2 csm json
classes B2 csm csv
classes B2 schubert-bminus json
classes B2 kschubert-bminus latex
classes G2 schubert-b latex
classes G2 kschubert-b json
pair A2 csm,sm json
pair A2 mc,smc csv

classes A2 smc json
classes A2 smc csv
classes B2 mc json
classes B2 mc csv
classes G2 csm json
classes G2 csm csv
classes A3/1,3 csm json
classes A3/1,3 csm csv
classes A3/1,2 csm latex
classes A3/1,2 sm csv
classes A3 schubert-b json
classes A3 schubert-b latex
classes A3 kschubert-b csv
pair B2 csm,sm latex
pair A3/1,3 csm,sm json
pair A3/1,3 csm,sm csv

classes A3/1,2 mc json
classes A3/1,2 mc latex
classes A3/1,3 mc json
classes A3/1,3 mc csv
classes A3/1 csm json
classes A3/1 csm csv
pair A3/1,2 mc,smc json
pair A3/1,2 mc,smc csv
pair A3 schubert-b,schubert-bminus json
pair A3 schubert-b,schubert-bminus csv

classes B2 sm csv
classes A3/2,3 smc json
classes A3/1,3 sm json
classes A3 csm json
classes A3 mc json
pair A3 kschubert-b,kschubert-bminus json
"""

# One round of verify-cold: suite and space, in the same kind of bands
# (14 small, 12 around the median, 10 around the tail percentile, 4 large).
VERIFY_JOBS = """
verify operators A1
verify operators A1
verify operators A1
verify operators A1
verify operators A1
verify csm A1
verify csm A1
verify csm A1
verify csm A1
verify motivic A1
verify motivic A1
verify motivic A1
verify motivic A1
verify motivic A1

verify csm A2
verify csm A2
verify csm A2
verify csm A2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2
verify csm A3/1,2

verify quantum
verify quantum
verify quantum
verify quantum
verify quantum
verify quantum
verify quantum
verify quantum
verify quantum
verify quantum

verify motivic A2
verify operators A2
verify operators A3/1,3
verify operators B2
"""

# identities every report of a suite must contain (besides all passing)
REQUIRED_IDENTITIES = {
    "operators": {"operators:H": "quadratic T^L", "schubert-actions:H": "delta_i [X^w] cases",
                  "operators:K": "braid T^L", "schubert-actions:K": "delta_i O_w parabolic cases"},
    "csm": {"classes": "csm/sm duality matrix is the identity"},
    "motivic": {"classes": "mc/smc duality matrix is the identity"},
    "quantum": {"quantum:QH": "quantum Leibniz on", "quantum-relations:QH": "quantum delta braid relations",
                "quantum:QK": "quantum Leibniz on", "quantum-relations:QK": "quantum delta braid relations",
                "quantum-examples": "QH fixture reproduces the point class"},
}


def _mirror_a3(parabolic):
    """The diagram automorphism of A3 (i -> 4 - i): an isomorphic space."""
    return tuple(sorted(4 - i for i in parabolic))


def _parse_space(text, rng):
    label, _, par = text.partition("/")
    parabolic = tuple(int(p) for p in par.split(",")) if par else ()
    if label == "A3" and parabolic and _mirror_a3(parabolic) != parabolic and rng.random() < 0.5:
        parabolic = _mirror_a3(parabolic)
    return label, parabolic


def make_jobs(workload, seed):
    """One round of the workload's jobs, in a seeded order, with seeded
    choices between isomorphic spaces and seeded checker points."""
    rng = random.Random(seed)
    jobs = []
    for line in (TABLE_JOBS if workload == "tables-cold" else VERIFY_JOBS).split("\n"):
        if not line.strip():
            continue
        f = line.split()
        if f[0] == "verify":
            if f[1] == "quantum":
                job = {"command": "verify", "suite": "quantum", "type": None, "parabolic": ()}
            else:
                label, par = _parse_space(f[2], rng)
                job = {"command": "verify", "suite": f[1], "type": label, "parabolic": par}
        else:
            label, par = _parse_space(f[1], rng)
            job = {"command": f[0], "type": label, "parabolic": par, "format": f[3]}
            if f[0] == "classes":
                job["family"] = f[2]
                job["side"] = f[4] if len(f) > 4 else None
            else:
                job["families"] = tuple(f[2].split(","))
        job["point_seed"] = rng.randrange(1 << 30)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def job_argv(job, out_path):
    argv = [job["command"]]
    if job["type"]:
        argv += ["--type", job["type"][0], "--rank", job["type"][1:]]
        if job["parabolic"]:
            argv += ["--parabolic", ",".join(map(str, job["parabolic"]))]
    if job["command"] == "verify":
        argv += ["--suite", job["suite"]]
    elif job["command"] == "classes":
        argv += ["--family", job["family"], "--format", job["format"]]
        if job["side"]:
            argv += ["--side", job["side"]]
    else:
        argv += ["--family", ",".join(job["families"]), "--format", job["format"]]
    return argv + ["--out", out_path]


def child_env():
    """The program from ./src, with its bytecode cached under perfbench/out
    as an installed package would have it, whatever the caller's setting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GKMFLAG_FIXTURES", None)
    return env


def _space_label(job):
    par = ",".join(map(str, job["parabolic"]))
    return "%s/{%s}" % (job["type"], par) if par else "%s/B" % job["type"]


def check_verify(job, text):
    """A verify report must hold every suite's reports, each all-pass and
    containing the suite's defining identity."""
    reports = json.loads(text)["reports"]
    required = REQUIRED_IDENTITIES[job["suite"]]
    got = {r["suite"]: r for r in reports}
    if sorted(got) != sorted(required) or len(reports) != len(required):
        raise checker.CheckError("reports %s, expected %s" % (sorted(got), sorted(required)))
    for suite, identity in required.items():
        rep = got[suite]
        if job["type"] and rep["space"] != _space_label(job):
            raise checker.CheckError("report %s is for %s" % (suite, rep["space"]))
        if not any(r["identity"].startswith(identity) for r in rep["results"]):
            raise checker.CheckError("report %s lacks %r" % (suite, identity))
        bad = [r["identity"] for r in rep["results"] if r["status"] != "pass"]
        if bad:
            raise checker.CheckError("report %s failed %s" % (suite, bad))


def check_job(job, out_path, env):
    """Raise CheckError unless the job's output passes its checks.

    Tables and matrices are checked in a child process: parsing a document
    of megabytes would grow this process, and every job process it starts
    afterwards would report that size as its own peak memory (the kernel
    carries the peak across fork and exec).
    """
    if job["command"] == "verify":
        with open(out_path) as f:
            check_verify(job, f.read())
        return
    cmd = [sys.executable, os.path.join(BENCH, "checker.py"), json.dumps(job), out_path]
    rc, err, _, _ = run_child(cmd, env, JOB_TIMEOUT_S)
    if rc != 0:
        raise checker.CheckError(err.strip() or "checker exit code %d" % rc)


def percentile(xs, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(round_size):
    """The highest percentile with at least ten samples of a round above it."""
    return 100.0 * (1 - 10.0 / round_size)


def run_child(cmd, env, timeout):
    """Run a child to completion; returns (exit code, stderr tail, seconds,
    peak resident memory in MB).

    The wait blocks in wait4: subprocess's own timeout polls with sleeps of
    up to 50 ms, which would round every measured time up to that step.  A
    timer kills the child instead when it overruns; its code is then -9.
    """
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        with proc.stderr:
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    dt = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.decode(errors="replace")[-300:], dt, usage.ru_maxrss / 1024.0


def cli_start(env):
    """One fresh interpreter start plus ``import gkmflag.cli``, in seconds."""
    rc, err, dt, _ = run_child([sys.executable, "-c", "import gkmflag.cli"], env, JOB_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError("import gkmflag.cli failed: %s" % err.strip())
    return dt


def run_cold(workload, seed, seconds, trace, deadline):
    env = child_env()
    cli_start(env)  # fills the bytecode cache; not counted
    starts = []
    jobs = make_jobs(workload, seed)
    job_dir = os.path.join(OUT, "jobs", workload)
    trace_dir = os.path.join(OUT, "trace", "%s-seed%d" % (workload, seed))
    os.makedirs(job_dir, exist_ok=True)
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    ext = {"json": "json", "csv": "csv", "latex": "tex"}
    times, failures, total = [], [], {}
    wrong, peak_rss = 0, 0.0
    start_sum, start = 0.0, time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for job in jobs:
            n = len(times)
            if n % START_EVERY == 0:
                starts.append(cli_start(env))
            out_path = os.path.join(job_dir, "out.%s" % ext.get(job.get("format"), "json"))
            if os.path.exists(out_path):
                os.remove(out_path)
            argv = job_argv(job, out_path)
            if trace:
                dump = os.path.join(trace_dir, "job-%04d.json" % n)
                cmd = [sys.executable, os.path.join(BENCH, "launch.py"), repr(time.time()), dump,
                       str(n), "--"] + argv
            else:
                cmd = [sys.executable, "-m", "gkmflag.cli"] + argv
            rc, err, dt, rss = run_child(cmd, env, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
            times.append(dt)
            peak_rss = max(peak_rss, rss)
            try:
                if rc != 0:
                    raise RuntimeError("exit code %d: %s" % (rc, err.strip()))
                check_job(job, out_path, env)
            except RuntimeError as exc:
                failures.append("%s: %s" % (" ".join(argv[:-2]), exc))
            except Exception as exc:  # malformed output can raise anything in the checker
                wrong += 1
                failures.append("%s: wrong output: %s: %s"
                                % (" ".join(argv[:-2]), type(exc).__name__, exc))
            if trace and os.path.exists(dump):
                with open(dump) as f:
                    doc = json.load(f)
                tracer.merge(total, doc)
                start_sum += doc["start_s"]
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > seconds or now + (now - r0) > deadline:
            break
    result = {
        "workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
        "round_size": len(jobs), "times": times, "failures": failures, "wrong": wrong,
        "setup_starts": starts, "peak_rss_mb": peak_rss,
    }
    if trace:
        result["layers"] = tracer.layer_metrics(total, len(times), start_sum)
    return result


def run_warm(seed, seconds, trace, deadline):
    """Two sessions that only build their tables, then the serving session;
    set-up is the median of the three builds."""
    env = child_env()
    res_dir = os.path.join(OUT, "results")
    os.makedirs(res_dir, exist_ok=True)
    base = [sys.executable, os.path.join(BENCH, "serve.py"), "--seed", str(seed),
            "--seconds", str(seconds)]
    setups = []
    for k in range(2):
        path = os.path.join(res_dir, "serve-setup-%d.json" % k)
        subprocess.run(base + ["--result", path, "--setup-only"], env=env, check=True,
                       timeout=deadline - time.perf_counter())
        with open(path) as f:
            setups.append(json.load(f)["setup_s"])
    path = os.path.join(res_dir, "serve-session.json")
    cmd = base + ["--result", path, "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(OUT, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, "serve-warm-seed%d.json" % seed)]
    subprocess.run(cmd, env=env, check=True, timeout=deadline - time.perf_counter())
    with open(path) as f:
        doc = json.load(f)
    setups.append(doc["setup_s"])
    result = {
        "workload": "serve-warm", "seed": seed, "trace": trace, "rounds": doc["rounds"],
        "round_size": doc["round_size"], "times": doc["times"], "failures": doc["errors"],
        "failed": doc["failed"], "wrong": doc["wrong"], "setup_builds": setups,
        "peak_rss_mb": doc["peak_rss_mb"], "repeated_share": doc["repeated_share"],
        "repeated_share_in_round": doc["repeated_share_in_round"],
    }
    if trace:
        result["layers"] = tracer.layer_metrics(tracer.merge({}, doc["trace"]), len(doc["times"]), 0.0)
    return result


WORKLOADS = ("tables-cold", "verify-cold", "serve-warm")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gkmflag", "cli.py")):
        sys.stderr.write("run from the repository root: src/gkmflag is missing under %s\n" % ROOT)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.workload == "serve-warm":
        res = run_warm(args.seed, args.seconds, args.trace, deadline)
        setup = statistics.median(res["setup_builds"])
        failed = res["failed"]
    else:
        res = run_cold(args.workload, args.seed, args.seconds, args.trace, deadline)
        setup = statistics.median(res["setup_starts"])
        failed = len(res["failures"])
    times = res["times"]
    res_dir = os.path.join(OUT, "results")
    os.makedirs(res_dir, exist_ok=True)
    with open(os.path.join(res_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(res, f, indent=1)
    for line in res["failures"]:
        sys.stderr.write("failed: %s\n" % line)
    sys.stderr.write("%s: %d rounds of %d jobs, %.1f s in jobs\n"
                     % (args.workload, res["rounds"], res["round_size"], sum(times)))
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        sys.stderr.write("traced mean job time: %.6f s\n" % (sum(times) / len(times)))
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "job_s_p50": {"value": statistics.median(times), "unit": "s"},
            "job_s_tail": {"value": percentile(times, tail_percentile(res["round_size"])), "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
