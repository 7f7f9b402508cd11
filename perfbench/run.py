"""Layered benchmark for mixsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
``src/mixsym``.  Workloads (the reasons are in ``perfbench/manifest.json``):

  operators-warm  one interpreter builds Gamma0(101) and Gamma1(13) during
                  set-up, then times Hecke/W/conj/diamond operators, the
                  classical T3, the pairing with the G identity, and a seeded
                  batch of reduce_pair triples on Gamma0(101)
  cli-suites      mixsym.cli.main for verify --suite all (gamma0 defaults and
                  gamma1 at 5,7,11,13), verify --suite eis, export + import

A pass runs every process of the workload once, one at a time, each in a
fresh interpreter, so no in-process state carries between passes.  Passes
repeat until the next one would overrun ``--seconds`` (at least
``MIN_PASSES``).  Metrics are medians across passes:

  pass_s        sum over jobs of each job's median wall time (after set-up)
  setup_s       process spawn to ready, summed over the pass's processes
  peak_rss_mib  highest peak RSS among the pass's processes
  ok_frac       1 - failed_frac, checked operations over attempted ones

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics and ``trace_overhead_frac``.  Every job's output
is checked after its timed region, against ``golden.json`` or, for the
seeded reduce_pair batch, the cocycle law.  The last line of stdout is the
result object; the lines before it give sample counts and provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("operators-warm", "cli-suites")
# Host speed on a shared 2-vCPU machine drifts by tens of percent over
# minutes and a cli-suites pass takes ~14 s: with three passes the spread of
# pass_s across runs reached 0.26, with four it stayed between 0.08 and 0.17.
MIN_PASSES = 4
HARD_LIMIT_S = 150
WARM_SPACES = [("gamma0", 101), ("gamma1", 13)]
BATCH_SPACE = ("gamma0", 101)
BATCH_TRIPLES = 700
CLI_VERIFY = [
    ("cli/verify-all", ["verify", "--suite", "all"]),
    ("cli/verify-all-gamma1", ["verify", "--suite", "all", "--family", "gamma1",
                               "--levels", "5,7,11,13"]),
    ("cli/verify-eis", ["verify", "--suite", "eis", "--pn", "27,49,81,121,125,169"]),
]


def random_word_matrix(rng):
    """A product of 8..24 random letters S, T, T^-1."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(8, 24)):
        a, b, c, d = m
        letter = rng.randrange(3)
        if letter == 0:
            m = (b, -a, d, -c)
        else:
            k = 1 if letter == 1 else -1
            m = (a, a * k + b, c, c * k + d)
    return m


def make_inputs(workload, seed):
    """Everything the program receives, derived from the seed alone."""
    rng = random.Random(seed)
    inputs = {"rng": rng}
    if workload == "operators-warm":
        inputs["triples"] = [[random_word_matrix(rng) for _ in range(3)]
                             for _ in range(BATCH_TRIPLES)]
    return inputs


def plan_pass(workload, inputs, work, tag):
    """Process specs for one pass, in the order they run."""
    rng = inputs["rng"]
    if workload == "operators-warm":
        return [{"kind": "operators", "spaces": WARM_SPACES,
                 "batch": {"space": BATCH_SPACE, "triples": inputs["triples"]}}]
    path = os.path.join(work, f"export-{tag}.json")
    procs = [{"kind": "cli", "id": i, "argv": a, "check": "report"}
             for i, a in CLI_VERIFY]
    rng.shuffle(procs)
    pair = [{"kind": "cli", "id": "cli/export-gamma0-101", "check": "file",
             "argv": ["export", "--family", "gamma0", "--level", "101", "--out", path]},
            {"kind": "cli", "id": "cli/import-gamma0-101", "check": "stdout",
             "argv": ["import", path]}]
    at = rng.randrange(len(procs) + 1)
    return procs[:at] + pair + procs[at:]


def run_process(spec, root, work, tag, trace, deadline):
    """Spawn one job process; return its result record (or an error record)."""
    spec = dict(spec, src=os.path.join(root, "src"), trace=bool(trace),
                result=os.path.join(work, f"result-{tag}.json"),
                spans=os.path.join(work, f"spans-{tag}.json"))
    spec_path = os.path.join(work, f"spec-{tag}.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with open(os.path.join(work, f"stderr-{tag}.txt"), "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "job.py"), spec_path],
                                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"spawned": spawned, "error": "timeout"}
    if rc != 0:
        with open(err.name) as f:
            return {"spawned": spawned, "error": f"exit {rc}: {f.read()[-500:]}"}
    with open(spec["result"]) as f:
        out = json.load(f)
    out["spawned"] = spawned
    if trace:
        with open(spec["spans"]) as f:
            out["spans"] = json.load(f)
    return out


def run_pass(workload, inputs, root, work, tag, trace, golden, deadline):
    """One pass: run each process, check its outputs, collect samples."""
    rec = {"jobs": {}, "digests": {}, "setup_s": 0.0, "peak_kib": 0,
           "import_s": 0.0, "attempted": 0, "failed": [], "spans": []}
    for k, spec in enumerate(plan_pass(workload, inputs, work, tag)):
        res = run_process(spec, root, work, f"{tag}-{k}", trace, deadline)
        if "error" in res:
            rec["attempted"] += 1
            rec["failed"].append((spec.get("id", spec["kind"]), res["error"]))
            continue
        rec["setup_s"] += res["ready"] - res["spawned"]
        rec["import_s"] += res["import_s"]
        rec["peak_kib"] = max(rec["peak_kib"], res["peak_kib"])
        if trace:
            rec["spans"].append(res["spans"])
        for job in res["jobs"]:
            rec["attempted"] += 1
            rec["jobs"][job["id"]] = job["wall_s"]
            if job["error"]:
                rec["failed"].append((job["id"], job["error"]))
            elif "law_ok" in job:
                if not job["law_ok"]:
                    rec["failed"].append((job["id"], "cocycle law violated"))
            else:
                rec["digests"][job["id"]] = job["digest"]
                if golden.get(job["id"]) != job["digest"]:
                    rec["failed"].append((job["id"], "output digest differs from golden"))
    return rec


def job_medians(passes):
    ids = sorted({j for p in passes for j in p["jobs"]})
    return {j: statistics.median([p["jobs"][j] for p in passes if j in p["jobs"]])
            for j in ids}


def layer_metrics(rec, span_metrics):
    """Per-layer numbers of one traced pass, summed over its processes.

    ``span_metrics`` are the names read directly off the span summary
    (``<span>.s``, ``<span>.self_s``, ``<span>.calls``); the rest are
    derived below.
    """
    totals = {}
    for doc in rec["spans"]:
        for name, r in tracing.summarize(doc).items():
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in t:
                t[k] += r[k]
    m = {}
    unreached = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for key in span_metrics:
        name, field = key.rsplit(".", 1)
        m[key] = totals.get(name, unreached)[field]
    coset = totals.get("sl2.coset_of", unreached)
    m["sl2.coset_of.us_mean"] = 1e6 * coset["s"] / coset["calls"] if coset["calls"] else 0.0
    cells = bits = frac = 0
    batch = []
    for doc in rec["spans"]:
        names = doc["names"]
        for idx, attrs in doc["attrs"].items():
            span_name = names[doc["name"][int(idx)]]
            if span_name == "zlattice.snf":
                cells = max(cells, attrs["cells"])
                bits = max(bits, attrs["bits"])
            elif span_name == "zlattice.mat_mul" and attrs["fraction"]:
                frac += 1
        batch += tracing.durations_under(doc, "mms.reduce_pair", "bench.reduce_pair_batch")
    m["zlattice.snf.max_cells"] = cells
    m["zlattice.snf.max_bits"] = bits
    m["zlattice.mat_mul.fraction_calls"] = frac
    m["mms.reduce_pair.batch_calls"] = len(batch)
    p50, p99, tail = percentiles_us(batch)
    m["mms.reduce_pair.us_p50"] = p50
    m["mms.reduce_pair.us_p99"] = p99
    m["cli.import_s"] = rec["import_s"]
    return m, tail


def percentiles_us(samples):
    """Median and 99th percentile in microseconds, and the count beyond p99.

    The 99th percentile is reported only with at least ten samples beyond it;
    the seeded batch has 3 * BATCH_TRIPLES calls, so it always qualifies.
    """
    if not samples:
        return 0.0, 0.0, 0
    s = sorted(samples)
    n = len(s)
    k99 = min(n - 1, int(0.99 * n))
    tail = n - 1 - k99
    return 1e6 * statistics.median(s), (1e6 * s[k99] if tail >= 10 else 0.0), tail


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(root, seed):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"seed": seed, "git_commit": commit, "src_sha256": source_digest(root),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixsym", "cli.py")):
        print("error: run from a mixsym checkout (src/mixsym/cli.py not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    prov = provenance(root, args.seed)
    # compile once so the first pass does not pay for bytecode the rest reuse
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True, stdout=subprocess.DEVNULL)
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args, root, work, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["provenance"] = prov
    with open(os.path.join(base, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    for line in result["lines"]:
        print(line)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result["out"]))
    return 0


def measure(args, root, work, golden):
    inputs = make_inputs(args.workload, args.seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        n = len(plain)
        plain.append(run_pass(args.workload, inputs, root, work, f"p{n}", False,
                              golden, deadline))
        if args.trace:
            traced.append(run_pass(args.workload, inputs, root, work, f"t{n}", True,
                                   golden, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(plain)
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if (enough and elapsed + per_pass > args.seconds) or \
                elapsed + per_pass > HARD_LIMIT_S:
            break

    all_passes = plain + traced
    attempted = sum(p["attempted"] for p in all_passes)
    failures = [f for p in all_passes for f in p["failed"]]
    plain_medians = job_medians(plain)
    pass_s = sum(plain_medians.values())
    np_ = len(plain)
    e2e = {
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "peak_rss_mib": (statistics.median(p["peak_kib"] for p in plain) / 1024, "MiB"),
        "ok_frac": (1 - len(failures) / attempted, "ratio"),
    }
    lines = [f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{np_} untraced passes, {len(traced)} traced, "
             f"{len(plain_medians)} jobs per pass",
             f"# pass_s       {pass_s:.4f} s    sum of per-job medians, n={np_} each",
             f"# setup_s      {e2e['setup_s'][0]:.4f} s    median of n={np_} passes",
             f"# peak_rss_mib {e2e['peak_rss_mib'][0]:.2f} MiB  median of n={np_} passes",
             f"# failed_frac  {len(failures) / attempted:.4f}      "
             f"{len(failures)} failed of {attempted} attempted"]
    for job, wall in plain_medians.items():
        lines.append(f"#   {job:<40} {wall:.4f} s (median of {np_})")
    for job, why in failures[:20]:
        lines.append(f"# FAILED {job}: {why}")
    if args.trace:
        with open(os.path.join(HERE, "manifest.json")) as f:
            defs = json.load(f)["metrics"]
        span_metrics = [k for k, m in defs.items() if m["kind"] == "per_layer"
                        and k.endswith((".s", ".self_s", ".calls"))]
        per = [layer_metrics(p, span_metrics) for p in traced]
        tails = [t for _, t in per]
        layers = {k: statistics.median(m[k] for m, _ in per) for k in per[0][0]}
        layers = {k: int(v) if k.endswith("calls") or ".max_" in k else v
                  for k, v in layers.items()}
        traced_pass = sum(job_medians(traced).values())
        layers["trace_overhead_frac"] = traced_pass / pass_s - 1 if pass_s else 0.0
        metrics = {k: {"value": v, "unit": defs[k]["unit"]} for k, v in sorted(layers.items())}
        lines.append(f"# per-layer: median of n={len(traced)} traced passes; "
                     f"reduce_pair p99 has {min(tails)} batch samples beyond it")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    out = {"correct": not failures, "attempted": attempted, "failed": len(failures),
           "metrics": metrics}
    return {"out": out, "lines": lines, "job_medians": plain_medians,
            "passes": [{k: p[k] for k in ("jobs", "setup_s", "peak_kib", "import_s",
                                          "attempted", "failed")} for p in all_passes]}


if __name__ == "__main__":
    sys.exit(main())
