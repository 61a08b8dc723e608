#!/usr/bin/env bash
# Schema check for BENCH_satmap.json: the bench report must carry the
# clause-arena telemetry introduced with the flat arena and the solver
# telemetry fields of every route row, and its route rows must not
# contradict themselves. Run after `cargo bench -p bench`.
set -euo pipefail

report="${1:-BENCH_satmap.json}"

fail() {
    echo "check_bench_schema: $1" >&2
    exit 1
}

[ -s "$report" ] || fail "$report is missing or empty"

# Top-level sections.
for key in schema_version benchmarks groups portfolio_speedup routes; do
    grep -q "\"$key\"" "$report" || fail "missing top-level key \"$key\""
done

# Telemetry fields of every route row. The arena fields (compactions,
# arena_bytes) came with the flat clause arena; strategy with the
# pluggable MaxSAT search strategies; the warm-start fields
# (cache_hit, warm_start, reused_clauses) with the route cache; the
# resilience fields (quality, attempts, worker_panics) with the routing
# supervisor; request_id (per-row tracing id) with the routing service;
# the dispatch fields (dispatch_width, dispatch_mix, dispatch_hardness)
# with the adaptive dispatcher (dispatch_mix names the plan's one
# strategy); the weighted-core
# fields (strata, exhaustion_steps, hardened_softs) with the
# weight-stratified core-guided search.
for key in compactions arena_bytes strategy cache_hit warm_start reused_clauses \
           quality attempts worker_panics request_id \
           dispatch_width dispatch_mix dispatch_hardness \
           strata exhaustion_steps hardened_softs; do
    grep -q "\"$key\"" "$report" || fail "missing telemetry field \"$key\""
done

# Route rows must not contradict themselves: the strategy diagnostic
# names the strategy that ran, exactly as the row's `strategy` does.
rows=0
while IFS= read -r row; do
    rows=$((rows + 1))
    router=$(sed -n 's/.*"router":"\([^"]*\)".*/\1/p' <<<"$row")
    top=${row%%\"diagnostics\":*}
    diagnostics=${row#*\"diagnostics\":}
    strategy=$(sed -n 's/.*"strategy":"\([^"]*\)".*/\1/p' <<<"$top")
    ran=$(sed -n 's/.*"strategy":"\([^"]*\)".*/\1/p' <<<"$diagnostics")
    if [ -n "$ran" ] && [ "$ran" != "$strategy" ]; then
        fail "$router row: diagnostics.strategy \"$ran\" differs from strategy \"$strategy\""
    fi
done < <(grep '^ *{"router":' "$report")
[ "$rows" -gt 0 ] || fail "no route rows"

# The criterion groups must have produced medians.
for group in '"arena/clone"' '"arena/reemit"' \
             '"maxsat_strategies/linear"' '"maxsat_strategies/core-guided"' \
             '"weighted_core/stratified"' '"weighted_core/plain"' \
             '"weighted_core/linear"' \
             '"warmstart/cold"' '"warmstart/warm"' '"warmstart/cache-hit"' \
             '"dispatch/auto/fig3"' '"dispatch/serial/fig3"' '"dispatch/width4/fig3"' \
             '"dispatch/auto/random12"' '"dispatch/serial/random12"' \
             '"dispatch/width4/random12"'; do
    grep -q "$group" "$report" || fail "missing benchmark $group"
done

echo "check_bench_schema: OK ($report, $rows route rows)"
