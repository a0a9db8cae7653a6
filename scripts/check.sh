#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
#
#   ./scripts/check.sh          # build + test + lint
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> perfbench self-test (the benchmark still builds against the library)"
# perfbench is its own workspace with its own lockfile; --locked fails on
# lockfile drift instead of rewriting perfbench/Cargo.lock.
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links resolve and stay public)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> metrics smoke gate (mictrend analyze --metrics)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin mictrend -- simulate --out "$tmp/claims.mic" \
    --seed 11 --months 24 --patients 150 --diseases 15 --medicines 20
cargo run --release -q --bin mictrend -- analyze --data "$tmp/claims.mic" \
    --metrics "$tmp/metrics.jsonl" > /dev/null
for key in em.iterations em.cost_unit_ns kf.loglik_evals kf.cost_unit_ns \
           pipeline.series_dropped pipeline.total; do
    grep -q "\"name\":\"$key\"" "$tmp/metrics.jsonl" \
        || { echo "metrics smoke gate: missing $key in snapshot"; exit 1; }
done
# Stage-1 EM runs once per distinct (θ-signature, medicine) cell: there is
# at least one cell, and never more cells than prescription events.
events="$(grep -o '"name":"em.events","value":[0-9]*' "$tmp/metrics.jsonl" \
    | grep -o '[0-9]*$' || true)"
cells="$(grep -o '"name":"em.cells","value":[0-9]*' "$tmp/metrics.jsonl" \
    | grep -o '[0-9]*$' || true)"
[[ "${cells:-0}" -gt 0 && "${cells:-0}" -le "${events:-0}" ]] \
    || { echo "metrics smoke gate: em.cells ${cells:-missing}, em.events ${events:-missing}; expected 0 < cells <= events"; exit 1; }
# SQUAREM-accelerated EM converges in every month of the demo: no monthly
# fit stops at the `max_iters` cap (`em.capped` absent or 0).
capped="$(grep -o '"name":"em.capped","value":[0-9]*' "$tmp/metrics.jsonl" \
    | grep -o '[0-9]*$' || true)"
[[ "${capped:-0}" -eq 0 ]] \
    || { echo "metrics smoke gate: em.capped is $capped, expected 0"; exit 1; }

echo "==> malformed-input gate (typed errors, never a panic)"
# Ids beyond the declared dims and empty dims must be rejected by the
# parser: `analyze` exits 1 with `error:` on stderr, never 101 (a panic).
printf '#mic-claims v1\nstart 2013 3\ndims 2 2\nmonth 0 1\nr 0 0|7:1|0|7\n' \
    > "$tmp/bad_disease.mic"
printf '#mic-claims v1\nstart 2013 3\ndims 2 2\nmonth 0 1\nr 0 0|0:1|9|0\n' \
    > "$tmp/bad_medicine.mic"
printf '#mic-claims v1\nstart 2013 3\ndims 0 0\nmonth 0 0\n' > "$tmp/bad_dims.mic"
for bad in bad_disease bad_medicine bad_dims; do
    status=0
    cargo run --release -q --bin mictrend -- analyze --data "$tmp/$bad.mic" \
        > /dev/null 2> "$tmp/$bad.err" || status=$?
    [[ "$status" -eq 1 ]] && grep -q '^error:' "$tmp/$bad.err" \
        || { echo "malformed-input gate: $bad.mic exited $status"; cat "$tmp/$bad.err"; exit 1; }
done
# A world too small for `WorldSpec::generate` is a usage error as well.
status=0
cargo run --release -q --bin mictrend -- simulate --out "$tmp/small.mic" --months 12 \
    > /dev/null 2> "$tmp/small.err" || status=$?
[[ "$status" -eq 1 ]] && grep -q '^error:' "$tmp/small.err" \
    || { echo "malformed-input gate: simulate --months 12 exited $status"; cat "$tmp/small.err"; exit 1; }

echo "==> incremental session smoke gate (mictrend append --check-batch)"
# Absorb the last 3 months one by one through an AnalysisSession, then
# require (a) a cold re-analysis of the session to match a fresh batch run
# decision-for-decision (--check-batch exits non-zero otherwise) and (b) the
# final re-analysis of the unchanged window to have been served from the
# fit cache.
cargo run --release -q --bin mictrend -- append --data "$tmp/claims.mic" \
    --tail 3 --check-batch --metrics "$tmp/append.jsonl" > /dev/null
hits="$(grep -o '"name":"session.cache_hits","value":[0-9]*' "$tmp/append.jsonl" \
    | grep -o '[0-9]*$' || true)"
[[ "${hits:-0}" -gt 0 ]] \
    || { echo "incremental smoke gate: session.cache_hits is ${hits:-missing}, expected > 0"; exit 1; }
# The same check with the Section IV-C temporal prior chaining the months:
# each appended month's EM fit is refined from the previous month's Φ, and
# the cold re-analysis must still match a batch run with the same chain.
cargo run --release -q --bin mictrend -- append --data "$tmp/claims.mic" \
    --tail 3 --continuity 0.5 --check-batch > /dev/null \
    || { echo "incremental smoke gate: append --continuity 0.5 --check-batch failed"; exit 1; }

echo "==> golden-report gate (analyze output pinned byte for byte)"
# Two reports committed under tests/golden/: the 24-month seasonal demo
# simulated above (seed 11) and a 130-month non-seasonal file (seed 7). Any
# change to the Kalman kernel, the likelihood or the search that moves a
# decision or a printed figure fails here and must ship its report diff.
cargo run --release -q --bin mictrend -- simulate --out "$tmp/long.mic" \
    --seed 7 --months 130 --patients 80 --diseases 8 --medicines 12
cargo run --release -q --bin mictrend -- analyze --data "$tmp/claims.mic" \
    > "$tmp/report_demo24.txt"
diff -u tests/golden/analyze_demo24.txt "$tmp/report_demo24.txt" \
    || { echo "golden-report gate: 24-month demo report changed"; exit 1; }
cargo run --release -q --bin mictrend -- analyze --data "$tmp/long.mic" --no-seasonal \
    > "$tmp/report_long130.txt"
diff -u tests/golden/analyze_long130_no_seasonal.txt "$tmp/report_long130.txt" \
    || { echo "golden-report gate: 130-month report changed"; exit 1; }

echo "==> examples gate (examples with library callers nothing else runs)"
# The only runtime callers of `detect_multiple` (multi_breaks),
# `forecast_with_variance` (forecasting), `detect_outbreaks`
# (outbreak_surveillance), `core::geo` (generic_uptake) and
# `core::hospital` (antibiotic_stewardship); clippy alone only compiles them.
for example in multi_breaks forecasting outbreak_surveillance generic_uptake \
               antibiotic_stewardship; do
    cargo run --release -q --example "$example" > /dev/null \
        || { echo "examples gate: $example failed"; exit 1; }
done

echo "==> experiments gate (shape checks of the reproduced panels and Table V)"
# The experiments that reproduce panels through Stage 1, and Table V's
# search-cost comparison (decided from fits per series, not wall clock),
# print `HOLDS` / `VIOLATED` shape checks. Any VIOLATED line fails the gate
# except Fig. 7a's known `detection check: VIOLATED` (ROADMAP item 6). They
# run from "$tmp" so the CSVs they write do not overwrite results/.
root="$PWD"
for b in fig2_missing_links fig3_trend_factors fig6_fitting fig7_prescription_changes \
         fig8_geographic table2_hospital_gap table3_accuracy table5_efficiency; do
    out="$(cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
        -p mic-experiments --bin "$b")" || { echo "experiments gate: $b failed"; exit 1; }
    violated="$(grep VIOLATED <<< "$out" || true)"
    if [[ "$b" == fig7_prescription_changes ]]; then
        violated="$(grep -v '^detection check: VIOLATED$' <<< "$violated" || true)"
    fi
    [[ -z "$violated" ]] || { echo "experiments gate: $b: $violated"; exit 1; }
done

echo "OK"
