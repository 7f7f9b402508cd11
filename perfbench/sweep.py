"""Scaling sweep: layer times against the coset index mu (one-shot, not gated).

    python3 perfbench/sweep.py

Run from the root of a checkout.  Each point runs in its own interpreter
under a wall-clock budget; a point over budget is killed and recorded as
``timeout``.  Build points split ``build_space`` into its ``sl2`` part
(coset enumeration and cusp table) and its ``zlattice`` part (SNF and the
matrix products of the build), then time T3.  Perfectness points time
``dualpair.perfectness_report``; on Gamma1(15) and Gamma1(17) its SNF in
``fractional_invariants`` blows up (entries of thousands of bits from a
9-bit input), so those points are expected to time out.  The report gives
the least-squares log-log slope of each layer's time against mu, per
family, over the points that finished.  Layer times are taken with the
tracing wrappers installed, so they include tracing overhead.
"""

import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_POINTS = [("gamma0", 101), ("gamma0", 199), ("gamma0", 307), ("gamma0", 499),
                ("gamma1", 13), ("gamma1", 17), ("gamma1", 23)]
PERFECT_POINTS = [("gamma1", 13), ("gamma1", 15), ("gamma1", 16), ("gamma1", 17)]
BUILD_BUDGET_S = 240
PERFECT_BUDGET_S = 60
LAYERS = ("sl2_s", "zlattice_s", "build_s", "T3_s")


def point(kind, family, level):
    """Child side: measure one point and print it as JSON."""
    sys.path.insert(0, HERE)
    import tracing
    from mixsym import dualpair, hecke, mms
    from mixsym.sl2 import GroupSpec

    tracer = tracing.Tracer()
    tracing.install(tracer)
    spec = GroupSpec(family, level)
    space = mms.build_space(spec)
    out = {"mu": space.n_manin, "rank": space.rank}
    if kind == "build":
        hecke.hecke_operator(space, 3)
        doc = tracer.doc()
        spans = tracing.summarize(doc)

        def under_build(name):
            return sum(tracing.durations_under(doc, name, "mms.build_space"))

        out["sl2_s"] = spans["sl2.enumerate_cosets"]["s"] + spans["sl2.cusp_table"]["s"]
        out["zlattice_s"] = sum(under_build(n) for n in
                                ("zlattice.snf", "zlattice.hnf", "zlattice.mat_mul"))
        out["build_s"] = spans["mms.build_space"]["s"]
        out["T3_s"] = spans["hecke.hecke_operator"]["s"]
    else:
        t0 = time.perf_counter()
        info = dualpair.perfectness_report(space)
        out["perfectness_s"] = time.perf_counter() - t0
        out["perfect_after_inverting"] = info["perfect_after_inverting"]
        out["invariants"] = [str(f) for f in info["invariants"]]
    print(json.dumps(out))


def run_point(root, kind, family, level, budget):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    rec = {"kind": kind, "family": family, "level": level, "budget_s": budget}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--point",
                             kind, family, str(level)], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rec["status"] = "timeout"
        return rec
    rec["wall_s"] = time.monotonic() - t0
    if proc.returncode != 0:
        rec["status"] = f"error: exit {proc.returncode}: {stderr[-300:]}"
        return rec
    rec["status"] = "completed"
    rec.update(json.loads(stdout.strip().splitlines()[-1]))
    return rec


def loglog_slope(points, key):
    xy = [(math.log(p["mu"]), math.log(p[key])) for p in points
          if p.get(key, 0) > 0]
    if len(xy) < 2:
        return None
    mx = sum(x for x, _ in xy) / len(xy)
    my = sum(y for _, y in xy) / len(xy)
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    return sum((x - mx) * (y - my) for x, y in xy) / sxx if sxx else None


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixsym", "cli.py")):
        print("error: run from a mixsym checkout", file=sys.stderr)
        return 2
    points = []
    for family, level in BUILD_POINTS:
        points.append(run_point(root, "build", family, level, BUILD_BUDGET_S))
        print(json.dumps(points[-1]), flush=True)
    for family, level in PERFECT_POINTS:
        points.append(run_point(root, "perfect", family, level, PERFECT_BUDGET_S))
        print(json.dumps(points[-1]), flush=True)
    slopes = {}
    for family in ("gamma0", "gamma1"):
        done = [p for p in points if p["kind"] == "build" and p["family"] == family
                and p["status"] == "completed"]
        slopes[family] = {k: loglog_slope(done, k) for k in LAYERS}
    report = {"points": points, "loglog_slope_vs_mu": slopes}
    os.makedirs(os.path.join(root, ".perfbench-work"), exist_ok=True)
    with open(os.path.join(root, ".perfbench-work", "sweep.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"loglog_slope_vs_mu": slopes}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--point"]:
        point(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
