#!/usr/bin/env python3
"""Render results/*.json into compact markdown tables for EXPERIMENTS.md.

Usage: python3 scripts/summarize_results.py [results_dir]
"""
import json
import sys
from pathlib import Path

RES = Path(sys.argv[1] if len(sys.argv) > 1 else "results")


def load(name):
    p = RES / f"{name}.json"
    if not p.exists():
        return None
    return json.loads(p.read_text())


def check_schema(fname, i, row, schema):
    """Hard-fails (sys.exit) unless `row` matches `schema` exactly in
    field names and types. int is accepted where float is expected;
    bool is never accepted for a numeric field."""
    for field, ty in schema.items():
        if field not in row:
            sys.exit(f"{fname} row {i}: missing field '{field}'")
        v = row[field]
        if ty is bool:
            ok = isinstance(v, bool)
        else:
            ok = (isinstance(v, ty) or (ty is float and isinstance(v, int))) and not isinstance(
                v, bool
            )
        if not ok:
            sys.exit(
                f"{fname} row {i}: field '{field}' is {type(v).__name__}, expected {ty.__name__}"
            )


def fig1():
    rows = load("fig1_scaling")
    if not rows:
        return
    print("\n## fig1_scaling (parsim event model)\n")
    print("| partitioner | cores | LU(D) | Comp(S) | LU(S) | Solve | total |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['partitioner']} | {r['cores']} | {r['lu_d']:.2f} | "
            f"{r['comp_s']:.2f} | {r['lu_s']:.2f} | {r['solve']:.2f} | {r['total']:.2f} |"
        )
    # speedup of RHB over NGD per core count
    by = {}
    for r in rows:
        by.setdefault(r["cores"], {})[r["partitioner"]] = r["total"]
    print("\nRHB speedup over NGD per core count:")
    for c, d in sorted(by.items()):
        ks = list(d)
        rhb = next((d[k] for k in ks if k.startswith("RHB")), None)
        ngd = d.get("NGD")
        if rhb and ngd:
            print(f"  {c} cores: {ngd / rhb:.2f}x")


def fig3():
    rows = load("fig3_balance")
    if not rows:
        return
    print("\n## fig3_balance\n")
    print("| k | constraint | alg | sep | dim(D) | nnz(D) | col(E) | nnz(E) | norm.time |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['k']} | {r['constraint']} | {r['algorithm']} | {r['separator']} | "
            f"{r['dim_balance']:.2f} | {r['nnz_d_balance']:.2f} | {r['col_e_balance']:.2f} | "
            f"{r['nnz_e_balance']:.2f} | {r['normalized_time']:.2f} |"
        )


def table2():
    rows = load("table2_partition")
    if not rows:
        return
    print("\n## table2_partition\n")
    print("| matrix | alg | time P+it (s) | #iter | n_S | nnzD min/max | speedup |")
    print("|---|---|---|---|---|---|---|")
    prev = {}
    for r in rows:
        total = r["precond_seconds"] + r["iter_seconds"]
        sp = ""
        if r["algorithm"] == "RHB" and r["matrix"] in prev:
            sp = f"{prev[r['matrix']] / total:.2f}x"
        else:
            prev[r["matrix"]] = total
        print(
            f"| {r['matrix']} | {r['algorithm']} | {r['precond_seconds']:.1f}+{r['iter_seconds']:.1f} | "
            f"{r['iterations']} | {r['separator']} | {r['nnz_d_min']}/{r['nnz_d_max']} | {sp} |"
        )


def table3():
    rows = load("table3_stats")
    if not rows:
        return
    print("\n## table3_stats\n")
    print("| matrix | which | nnzG | nnzcolG | nnzrowG | eff.dens | fill-ratio | solve s | symbolic s |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['matrix']} | {r['which']} | {r['nnz_g']} | {r['nnzcol_g']} | "
            f"{r['nnzrow_g']} | {r['eff_density']:.4f} | {r['fill_ratio']:.1f} | "
            f"{r['solve_seconds']:.4f} | {r['symbolic_seconds']:.4f} |"
        )


def fig4():
    rows = load("fig4_padding")
    if not rows:
        return
    print("\n## fig4_padding (avg padding fraction)\n")
    mats = sorted({r["matrix"] for r in rows})
    bs = sorted({r["block_size"] for r in rows})
    for m in mats:
        print(f"\n{m}:")
        print("| B | natural | postorder | hypergraph | rgb |")
        print("|---|---|---|---|---|")
        for b in bs:
            cells = {}
            for r in rows:
                if r["matrix"] == m and r["block_size"] == b:
                    cells[r["ordering"]] = r["avg"]
            print(
                f"| {b} | {cells.get('natural', 0):.3f} | "
                f"{cells.get('postorder', 0):.3f} | {cells.get('hypergraph', 0):.3f} | "
                f"{cells.get('rgb', 0):.3f} |"
            )


def fig5():
    rows = load("fig5_trisolve")
    if not rows:
        return
    print("\n## fig5_trisolve (avg seconds; speedup vs natural)\n")
    mats = sorted({r["matrix"] for r in rows})
    bs = sorted({r["block_size"] for r in rows})
    for m in mats:
        print(f"\n{m}:")
        print("| B | natural | postorder | hypergraph | hyp speedup |")
        print("|---|---|---|---|---|")
        for b in bs:
            cells = {}
            for r in rows:
                if r["matrix"] == m and r["block_size"] == b:
                    cells[r["ordering"]] = r
            nat = cells.get("natural", {}).get("avg_seconds", 0)
            po = cells.get("postorder", {}).get("avg_seconds", 0)
            hy = cells.get("hypergraph", {}).get("avg_seconds", 0)
            sp = nat / hy if hy else 0
            print(f"| {b} | {nat:.3f} | {po:.3f} | {hy:.3f} | {sp:.2f}x |")


def quasidense():
    rows = load("quasidense")
    if not rows:
        return
    print("\n## quasidense\n")
    print("| tau | avg padding | order time (s) | solve time (s) |")
    print("|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['tau']} | {r['avg_padding_fraction']:.4f} | "
            f"{r['total_order_seconds']:.3f} | {r['total_solve_seconds']:.3f} |"
        )


def ablations():
    rows = load("ablations")
    if not rows:
        return
    print("\n## ablations\n")
    print("| variant | sep | dim(D) | nnz(D) | nnz(E) | time (s) |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['variant']} | {r['separator']} | {r['dim_balance']:.2f} | "
            f"{r['nnz_d_balance']:.2f} | {r['nnz_e_balance']:.2f} | {r['seconds']:.2f} |"
        )


SUPERNODAL_SCHEMA = {
    "matrix": str,
    "ordering": str,
    "block_size": int,
    "column_padding_fraction": float,
    "supernodal_padding_fraction": float,
    "supernode_count": int,
    "max_supernode": int,
}


def supernodal():
    """The `supernodal` bin: padded-zero fraction of the G solves at
    column granularity vs rounded up to whole supernodes. Gated on shape
    and on the one machine-independent fact: rounding the same blocks up
    to supernodes can only add padding, so per row supernodal pad >=
    column pad."""
    rows = load("supernodal_padding")
    if rows is None:
        return
    if not isinstance(rows, list) or not rows:
        sys.exit("supernodal_padding.json: expected a non-empty list of rows")
    for i, r in enumerate(rows):
        check_schema("supernodal_padding.json", i, r, SUPERNODAL_SCHEMA)
        col, sn = r["column_padding_fraction"], r["supernodal_padding_fraction"]
        if not 0.0 <= col <= 1.0 or not 0.0 <= sn <= 1.0:
            sys.exit(f"supernodal_padding.json row {i}: padding fraction outside [0, 1]")
        if sn < col:
            sys.exit(
                f"supernodal_padding.json row {i}: supernodal pad {sn:.4f} "
                f"below column pad {col:.4f}"
            )
        if r["supernode_count"] < 1 or r["max_supernode"] < 1:
            sys.exit(f"supernodal_padding.json row {i}: no supernodes")
    print("\n## supernodal_padding (column vs supernodal padding; sn >= col gated)\n")
    print("| ordering | B | column pad | supernodal pad | #sn | max sn |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['ordering']} | {r['block_size']} | {r['column_padding_fraction']:.4f} | "
            f"{r['supernodal_padding_fraction']:.4f} | {r['supernode_count']} | {r['max_supernode']} |"
        )


BENCH_SOLVE_SCHEMA = {
    "problem": str,
    "kernel": str,
    "workers": int,
    "batch": int,
    "seconds": float,
    "serial_seconds": float,
    "speedup": float,
    "matches_serial": bool,
    "iterations": int,
    "kept_share": float,
    "dep_slots": int,
}

TABLE_I = {"tdr190k", "tdr455k", "dds.quad", "dds.linear", "matrix211", "ASIC_680ks", "G3_circuit"}


def bench_solve():
    rows = load("BENCH_solve")
    if rows is None:
        return
    # Hard validation, like BENCH_partition: CI gates on this file.
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_solve.json: expected a non-empty list of rows")
    kernels = set()
    for i, r in enumerate(rows):
        check_schema("BENCH_solve.json", i, r, BENCH_SOLVE_SCHEMA)
        if not r["matches_serial"]:
            sys.exit(f"BENCH_solve.json row {i}: divergent parallel result")
        kernels.add(r["kernel"])
    need = {"solve", "solve_many", "schur_apply", "plan_refresh"}
    if not need <= kernels:
        sys.exit(f"BENCH_solve.json: missing kernels {need - kernels}")
    # One restricted-against-full Schur apply per Table-I matrix; its
    # matches_serial is the bit-for-bit agreement of the two applies.
    applies = [r for r in rows if r["kernel"] == "schur_apply"]
    missing = TABLE_I - {r["problem"] for r in applies}
    if missing:
        sys.exit(f"BENCH_solve.json: missing schur_apply rows for {sorted(missing)}")
    for r in applies:
        if not 0.0 < r["kept_share"] <= 1.0:
            sys.exit(f"BENCH_solve.json: {r['problem']} schur_apply kept_share {r['kept_share']} outside (0, 1]")
    # One plan refresh against a fresh build per Table-I matrix; its
    # matches_serial is the equality of the refreshed and built plans.
    refreshes = [r for r in rows if r["kernel"] == "plan_refresh"]
    missing = TABLE_I - {r["problem"] for r in refreshes}
    if missing:
        sys.exit(f"BENCH_solve.json: missing plan_refresh rows for {sorted(missing)}")
    for r in refreshes:
        if r["dep_slots"] <= 0:
            sys.exit(f"BENCH_solve.json: {r['problem']} plan_refresh has no dependency slots")
    # The one-thread batch is the lockstep-lane path alone, the one the
    # end-to-end benchmark measures.
    if not any(r["kernel"] == "solve_many" and r["workers"] == 1 for r in rows):
        sys.exit("BENCH_solve.json: missing the PDSLIN_THREADS=1 solve_many row")
    print("\n## BENCH_solve (solve and solve_many by thread count, schur_apply restricted against full sweeps, plan_refresh against a plan build; exact-match asserted, speedups informational)\n")
    print("| problem | kernel | workers | batch | seconds | speedup | match | iters | kept share | dep slots |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['problem']} | {r['kernel']} | {r['workers']} | {r['batch']} | "
            f"{r['seconds']:.6f} | {r['speedup']:.2f}x | {r['matches_serial']} | "
            f"{r['iterations']} | {r['kept_share']:.3f} | {r['dep_slots']} |"
        )


BENCH_KERNELS_SCHEMA = {
    "problem": str,
    "kernel": str,
    "workers": int,
    "seconds": float,
    "serial_seconds": float,
    "speedup": float,
    "matches_serial": bool,
    "nnz": int,
    "padded_zeros": int,
}


def bench_kernels():
    rows = load("BENCH_kernels")
    if rows is None:
        return
    # Hard validation, like BENCH_partition: CI gates on this file.
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_kernels.json: expected a non-empty list of rows")
    kernels = set()
    for i, r in enumerate(rows):
        check_schema("BENCH_kernels.json", i, r, BENCH_KERNELS_SCHEMA)
        if not r["matches_serial"]:
            sys.exit(f"BENCH_kernels.json row {i}: divergent result")
        kernels.add(r["kernel"])
    need = {"spgemm", "interface", "setup"}
    if not need <= kernels:
        sys.exit(f"BENCH_kernels.json: missing kernels {need - kernels}")
    print("\n## BENCH_kernels (setup-phase kernels; exact-match asserted, speedups informational)\n")
    print("| problem | kernel | workers | seconds | speedup | match |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['problem']} | {r['kernel']} | {r['workers']} | "
            f"{r['seconds']:.4f} | {r['speedup']:.2f}x | {r['matches_serial']} |"
        )


BENCH_TRISOLVE_LANES_SCHEMA = {
    "problem": str,
    "lanes": int,
    "rhs": int,
    "seconds": float,
    "single_seconds": float,
    "speedup": float,
    "matches_single": bool,
}


def bench_trisolve_lanes():
    """The trisolve_lanes scenario of bench_kernels: LU(D) sweeps with W
    right-hand sides per call against single sweeps. Gated on shape and
    on every lane matching its single sweep bit for bit; the speedups
    are informational."""
    rows = load("BENCH_trisolve_lanes")
    if rows is None:
        # bench_kernels writes both files; one without the other is a
        # broken run.
        if load("BENCH_kernels") is not None:
            sys.exit("BENCH_trisolve_lanes.json: missing beside BENCH_kernels.json")
        return
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_trisolve_lanes.json: expected a non-empty list of rows")
    for i, r in enumerate(rows):
        check_schema("BENCH_trisolve_lanes.json", i, r, BENCH_TRISOLVE_LANES_SCHEMA)
        if not r["matches_single"]:
            sys.exit(f"BENCH_trisolve_lanes.json row {i}: a lane diverged from its single sweep")
    need = {1, 4, 8, 16}
    lanes = {r["lanes"] for r in rows}
    if not need <= lanes:
        sys.exit(f"BENCH_trisolve_lanes.json: missing lane widths {sorted(need - lanes)}")
    print("\n## BENCH_trisolve_lanes (LU(D) sweeps, W lanes vs single; exact match asserted)\n")
    print("| problem | W | RHS | seconds | single seconds | speedup | match |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['problem']} | {r['lanes']} | {r['rhs']} | {r['seconds']:.4f} | "
            f"{r['single_seconds']:.4f} | {r['speedup']:.2f}x | {r['matches_single']} |"
        )


BENCH_LU_DENSE_SCHEMA = {
    "size": int,
    "density": float,
    "switch": str,
    "dense_start": int,
    "factor_seconds": float,
    "refactor_seconds": float,
    "fill": int,
    "same_fill_as_off": bool,
    "isa": str,
}


def bench_lu_dense():
    """The lu_dense_crossover scenario of bench_kernels: sparse LU loop
    vs dense trailing-block kernel over block density x size. Gated on
    shape and on the machine-independent facts (forced switches land
    where they were forced, the dense block never changes the fill,
    every row names the dense-kernel tier that ran: `isa`);
    the timings are the table behind slu::lu::DENSE_TAIL_DENSITY in
    docs/kernels.md and are not gated."""
    rows = load("BENCH_lu_dense")
    if rows is None:
        return
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_lu_dense.json: expected a non-empty list of rows")
    cells = {}
    for i, r in enumerate(rows):
        check_schema("BENCH_lu_dense.json", i, r, BENCH_LU_DENSE_SCHEMA)
        if not r["same_fill_as_off"]:
            sys.exit(f"BENCH_lu_dense.json row {i}: the dense block changed the fill")
        if r["isa"] not in ("baseline", "avx512f"):
            sys.exit(f"BENCH_lu_dense.json row {i}: unknown dense-kernel tier '{r['isa']}'")
        forced = {"off": r["size"], "on": 0}
        if r["switch"] not in ("off", "on", "auto"):
            sys.exit(f"BENCH_lu_dense.json row {i}: unknown switch '{r['switch']}'")
        if r["switch"] in forced and r["dense_start"] != forced[r["switch"]]:
            sys.exit(f"BENCH_lu_dense.json row {i}: forced switch did not land where forced")
        cells.setdefault((r["size"], r["density"]), {})[r["switch"]] = r
    for key, c in cells.items():
        if set(c) != {"off", "on", "auto"}:
            sys.exit(f"BENCH_lu_dense.json: {key} is missing one of off/on/auto")
    tiers = sorted({r["isa"] for r in rows})
    print(
        "\n## BENCH_lu_dense (sparse loop vs dense trailing block; times in ms, informational;"
        f" dense kernel: {', '.join(tiers)})\n"
    )
    print("| m | density | factor off | on | auto (start) | on/off | refactor off | on | auto | on/off |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for (m, d), c in sorted(cells.items()):
        f = {k: c[k]["factor_seconds"] * 1e3 for k in c}
        rf = {k: c[k]["refactor_seconds"] * 1e3 for k in c}
        print(
            f"| {m} | {d:.3f} | {f['off']:.3f} | {f['on']:.3f} | "
            f"{f['auto']:.3f} ({c['auto']['dense_start']}) | {f['on'] / f['off']:.2f} | "
            f"{rf['off']:.3f} | {rf['on']:.3f} | {rf['auto']:.3f} | {rf['on'] / rf['off']:.2f} |"
        )


BENCH_REACH_SCHEMA = {
    "matrix": str,
    "full_edges": int,
    "kept_edges": int,
    "plan_full_seconds": float,
    "plan_pruned_seconds": float,
    "speedup": float,
    "identical": bool,
}


# (relative, absolute seconds): timer noise on millisecond-sized rows.
REACH_SLACK = (0.25, 1e-3)


def bench_reach():
    """The reach_pruned scenario of bench_kernels: the symbolic phase
    of Comp(S) (blocked-solve plans for L and U^T of every subdomain)
    on the factor's own columns vs its pruned ReachGraph. Gated on the
    machine-independent facts (plans equal, the rule only removes
    edges) and on one same-thread ratio over identical inputs: the
    pruned build, graph construction included, is not the slower one.
    Where the factors have next to no fill (ASIC) both builds take
    about a millisecond and the graph's O(nnz) construction is all
    there is to see, so "slower" means by more than REACH_SLACK."""
    rows = load("BENCH_reach")
    if rows is None:
        return
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_reach.json: expected a non-empty list of rows")
    for i, r in enumerate(rows):
        check_schema("BENCH_reach.json", i, r, BENCH_REACH_SCHEMA)
        if not r["identical"]:
            sys.exit(f"BENCH_reach.json row {i}: the pruned graph changed a plan")
        if r["kept_edges"] > r["full_edges"]:
            sys.exit(f"BENCH_reach.json row {i}: pruning added edges")
        over = r["plan_pruned_seconds"] - r["plan_full_seconds"]
        if over > REACH_SLACK[0] * r["plan_full_seconds"] and over > REACH_SLACK[1]:
            sys.exit(
                f"BENCH_reach.json: pruned plan build slower than the full graph on "
                f"{r['matrix']} ({r['plan_pruned_seconds']:.4f}s vs {r['plan_full_seconds']:.4f}s)"
            )
    print("\n## BENCH_reach (Comp(S) plan build, full graph vs pruned; plans equal asserted)\n")
    print("| matrix | full edges | kept edges | full ms | pruned ms | speedup |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['matrix']} | {r['full_edges']} | {r['kept_edges']} | "
            f"{r['plan_full_seconds'] * 1e3:.2f} | {r['plan_pruned_seconds'] * 1e3:.2f} | "
            f"{r['speedup']:.1f}x |"
        )


BENCH_PARTITION_SCHEMA = {
    "matrix": str,
    "block_size": int,
    "natural": int,
    "postorder": int,
    "hypergraph": int,
    "rgb": int,
    "true_nnz": int,
    "rgb_le_natural": bool,
    "ngd_sep": int,
    "ngd_vw_sep": int,
    "rhb_sep": int,
    "rhb_vw_sep": int,
    "ngd_time_s": float,
    "rhb_time_s": float,
}


def bench_partition():
    rows = load("BENCH_partition")
    if rows is None:
        return
    # Hard validation, like BENCH_service: CI gates on this file.
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_partition.json: expected a non-empty list of rows")
    if len({r.get("matrix") for r in rows}) < 3:
        sys.exit("BENCH_partition.json: expected rows for at least 3 matrices")
    for i, r in enumerate(rows):
        check_schema("BENCH_partition.json", i, r, BENCH_PARTITION_SCHEMA)
        if not r["rgb_le_natural"] or r["rgb"] > r["natural"]:
            sys.exit(
                f"BENCH_partition.json row {i}: rgb padding {r['rgb']} "
                f"exceeds natural {r['natural']}"
            )
    print(
        "\n## BENCH_partition (padded zeros per ordering; separators unit vs value-weighted; "
        "unit-weighted partitioning time, best of 3, not gated)\n"
    )
    print(
        "| matrix | B | natural | postorder | hypergraph | rgb | NGD sep u/v | RHB sep u/v "
        "| NGD s | RHB s |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['matrix']} | {r['block_size']} | {r['natural']} | {r['postorder']} | "
            f"{r['hypergraph']} | {r['rgb']} | {r['ngd_sep']}/{r['ngd_vw_sep']} | "
            f"{r['rhb_sep']}/{r['rhb_vw_sep']} | {r['ngd_time_s']:.4f} | {r['rhb_time_s']:.4f} |"
        )


BENCH_SERVICE_SCHEMA = {
    "phase": str,
    "concurrency": int,
    "requests": int,
    "ok": int,
    "typed_errors": int,
    "overloaded": int,
    "retries": int,
    "injected_failures": int,
    "batches": int,
    "coalesced": int,
    "cache_hits": int,
    "cache_misses": int,
    "degraded_setups": int,
    "deadline_violations": int,
    "p50_ms": float,
    "p99_ms": float,
    "throughput_rps": float,
}


def bench_service():
    rows = load("BENCH_service")
    if rows is None:
        return
    # Shape validation is a hard failure: CI gates on this file, so a
    # silently renamed field must break the build, not the dashboard.
    if not isinstance(rows, list) or not rows:
        sys.exit("BENCH_service.json: expected a non-empty list of rows")
    for i, r in enumerate(rows):
        for field, ty in BENCH_SERVICE_SCHEMA.items():
            if field not in r:
                sys.exit(f"BENCH_service.json row {i}: missing field '{field}'")
            v = r[field]
            ok = isinstance(v, ty) or (ty is float and isinstance(v, int))
            if not ok or isinstance(v, bool):
                sys.exit(
                    f"BENCH_service.json row {i}: field '{field}' is "
                    f"{type(v).__name__}, expected {ty.__name__}"
                )
        if r["deadline_violations"] != 0:
            sys.exit(f"BENCH_service.json row {i}: deadline violations recorded")
        answered = r["ok"] + r["typed_errors"] + r["overloaded"]
        if answered != r["requests"]:
            sys.exit(
                f"BENCH_service.json row {i}: {answered} typed responses "
                f"for {r['requests']} requests"
            )
    print("\n## BENCH_service (daemon under load; every request typed, deadlines honoured)\n")
    print("| phase | clients | reqs | ok | err | over | p50 ms | p99 ms | req/s | cache h/m | retries |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['phase']} | {r['concurrency']} | {r['requests']} | {r['ok']} | "
            f"{r['typed_errors']} | {r['overloaded']} | {r['p50_ms']:.2f} | {r['p99_ms']:.2f} | "
            f"{r['throughput_rps']:.1f} | {r['cache_hits']}/{r['cache_misses']} | {r['retries']} |"
        )


if __name__ == "__main__":
    for fn in [
        fig1,
        fig3,
        table2,
        table3,
        fig4,
        fig5,
        quasidense,
        ablations,
        supernodal,
        bench_kernels,
        bench_trisolve_lanes,
        bench_lu_dense,
        bench_reach,
        bench_solve,
        bench_partition,
        bench_service,
    ]:
        fn()
