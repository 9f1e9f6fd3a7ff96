#!/usr/bin/env bash
# Lint gate: formatting + clippy with warnings denied + the full test
# suite. Run before sending a PR; CI runs the same three commands.
#
#   scripts/check.sh          # fmt + clippy + tests
#   scripts/check.sh --fast   # fmt + clippy only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "--fast" ]]; then
    echo "==> cargo test"
    cargo test --workspace -q

    # Deterministic chaos smoke: a fixed-seed fault campaign (region
    # outages, partitions, gray failures, KV throttling, cold storms)
    # must report zero invariant violations. Exit code is non-zero on
    # any violation.
    echo "==> caribou chaos smoke (seed 42)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        chaos --seed 42 --requests 200 --duration-s 7200

    # Deterministic solver smoke: the single-hour plan and the 24-hour
    # schedule printed by `caribou plan` must be bit-identical whether the
    # solver evaluation engine fans candidates across 1 or 4 workers.
    echo "==> caribou solver smoke (1 vs 4 workers)"
    for mode in "" --hourly; do
        cargo run -q --release -p caribou-core --bin caribou -- \
            plan dna $mode --workers 1 >/tmp/caribou-solve-1w.txt
        cargo run -q --release -p caribou-core --bin caribou -- \
            plan dna $mode --workers 4 >/tmp/caribou-solve-4w.txt
        diff /tmp/caribou-solve-1w.txt /tmp/caribou-solve-4w.txt
    done
    rm -f /tmp/caribou-solve-1w.txt /tmp/caribou-solve-4w.txt

    # Solver bench guard in --test mode: asserts worker-count-invariant
    # schedules, a warm estimate cache (solver.cache.hit > 0), and — on
    # machines with >=4 cores — a >=2x 4-worker speedup over 1 worker.
    echo "==> solver bench guard"
    cargo bench -q -p caribou-bench --bench solver -- --test

    # Estimator bench guard: batched path bit-identical to the scalar
    # reference at 1/4/8/16 lanes, >=1.7x single-thread at the solver's
    # default stopping rule, >=4x at the high-precision stopping rule,
    # and within 2x of the committed BENCH_solver.json estimator
    # baseline.
    echo "==> estimator bench guard"
    cargo bench -q -p caribou-bench --bench estimator -- --test

    # Deterministic loadgen smoke: a 50k-invocation sustained-load run
    # (7 chunks on the persistent sharded path, so warm state crosses
    # chunk boundaries and exchange ticks) must print a bit-identical
    # summary whether the shards execute on 1 or 2 workers.
    echo "==> caribou loadgen smoke (50k invocations, 1 vs 2 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        loadgen text2speech --invocations 50000 --seed 42 --workers 1 \
        >/tmp/caribou-loadgen-1w.txt
    cargo run -q --release -p caribou-core --bin caribou -- \
        loadgen text2speech --invocations 50000 --seed 42 --workers 2 \
        >/tmp/caribou-loadgen-2w.txt
    diff /tmp/caribou-loadgen-1w.txt /tmp/caribou-loadgen-2w.txt
    rm -f /tmp/caribou-loadgen-1w.txt /tmp/caribou-loadgen-2w.txt

    # Loadgen bench guard: worker-count-invariant merges across chunk
    # boundaries, the pooled engine's allocation telemetry
    # (engine.alloc_per_invocation == 2 at steady state), throughput at
    # or above the committed BENCH_loadgen.json baseline (with 2x slack
    # for slower hosts), and a flat-RSS ceiling (quadrupling the run
    # length must not move the peak-RSS high-water mark).
    echo "==> loadgen bench guard"
    cargo bench -q -p caribou-bench --bench loadgen -- --test

    # Deterministic fleet smoke: a multi-tenant re-plan (full solve, then
    # incremental re-solve after a single-hour forecast revision, with
    # --verify diffing incremental against from-scratch) must print a
    # bit-identical summary at 1 and 4 workers.
    echo "==> caribou fleet smoke (32 apps x 6 hours, 1 vs 4 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        fleet --apps 32 --hours 6 --seed 42 --perturb 'h3:us-west-2*2' \
        --verify --workers 1 >/tmp/caribou-fleet-1w.txt
    cargo run -q --release -p caribou-core --bin caribou -- \
        fleet --apps 32 --hours 6 --seed 42 --perturb 'h3:us-west-2*2' \
        --verify --workers 4 >/tmp/caribou-fleet-4w.txt
    diff /tmp/caribou-fleet-1w.txt /tmp/caribou-fleet-4w.txt
    rm -f /tmp/caribou-fleet-1w.txt /tmp/caribou-fleet-4w.txt

    # Fleet bench guard: worker-count-invariant schedules, cross-app
    # cache hit-rate floor, warm re-solves adding zero misses,
    # incremental-equivalence, and app-hours/s at or above the committed
    # BENCH_fleet.json baseline (with 2x slack for slower hosts).
    echo "==> fleet bench guard"
    cargo bench -q -p caribou-bench --bench fleet -- --test

    # Cross-provider plan smoke: widening the provider set must change
    # the schedule (at least one hour offloads to a gcp: region), and the
    # cross-provider solve must stay bit-identical at 1 vs 4 workers.
    echo "==> caribou cross-provider smoke (aws vs aws,gcp; 1 vs 4 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws \
        >/tmp/caribou-prov-aws.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws,gcp --workers 1 \
        >/tmp/caribou-prov-multi-1w.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws,gcp --workers 4 \
        >/tmp/caribou-prov-multi-4w.txt 2>/dev/null
    if diff -q /tmp/caribou-prov-aws.txt /tmp/caribou-prov-multi-1w.txt >/dev/null; then
        echo "error: aws,gcp schedule identical to aws-only" >&2
        exit 1
    fi
    grep -q 'gcp:' /tmp/caribou-prov-multi-1w.txt || {
        echo "error: aws,gcp schedule never offloads to a gcp: region" >&2
        exit 1
    }
    diff /tmp/caribou-prov-multi-1w.txt /tmp/caribou-prov-multi-4w.txt
    rm -f /tmp/caribou-prov-aws.txt /tmp/caribou-prov-multi-1w.txt \
        /tmp/caribou-prov-multi-4w.txt

    # Golden regression: the default aws-only provider set must replay
    # the committed pre-refactor stdout byte-for-byte for every seeded
    # command in goldens/.
    echo "==> aws-only golden regression (goldens/*.txt)"
    run_golden() {
        cargo run -q --release -p caribou-core --bin caribou -- "$@" \
            >/tmp/caribou-golden.txt 2>/dev/null
        diff "goldens/$GOLDEN" /tmp/caribou-golden.txt
        rm -f /tmp/caribou-golden.txt
    }
    GOLDEN=plan_dna_hourly_aws.txt run_golden plan dna --hourly
    GOLDEN=plan_dna_aws.txt run_golden plan dna
    GOLDEN=simulate_text2speech_aws.txt run_golden \
        simulate text2speech --days 2 --per-day 20
    GOLDEN=chaos_seed42_aws.txt run_golden \
        chaos --seed 42 --requests 200 --duration-s 7200
    GOLDEN=fleet_32x6_aws.txt run_golden \
        fleet --apps 32 --hours 6 --seed 42 --perturb 'h3:us-west-2*2' --verify

    # Correlated chaos smoke: a fixed-seed campaign under correlated
    # fault classes (provider-wide outage, shared failure domains,
    # carbon-data outage) with a 3-entry contingency table must uphold
    # every invariant, print a bit-identical report at 1 and 2 workers,
    # and replay the committed golden byte-for-byte.
    echo "==> caribou correlated chaos smoke (seed 42, contingency 3, 1 vs 2 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        chaos --correlated --contingency 3 --seed 42 --requests 200 \
        --duration-s 14400 --providers aws,gcp --workers 1 \
        >/tmp/caribou-corr-1w.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        chaos --correlated --contingency 3 --seed 42 --requests 200 \
        --duration-s 14400 --providers aws,gcp --workers 2 \
        >/tmp/caribou-corr-2w.txt 2>/dev/null
    diff /tmp/caribou-corr-1w.txt /tmp/caribou-corr-2w.txt
    diff goldens/chaos_correlated_seed42_awsgcp.txt /tmp/caribou-corr-1w.txt
    rm -f /tmp/caribou-corr-1w.txt /tmp/caribou-corr-2w.txt

    # Contingency bench guard: with a fallback table installed and every
    # region healthy, the combined breaker+fallback happy-path check must
    # stay inside the breaker's 10 ns routing budget (and within 4x the
    # committed BENCH_contingency.json baseline).
    echo "==> contingency bench guard"
    cargo bench -q -p caribou-bench --bench contingency -- --test

    # Providers bench guard: worker-count-invariant cross-provider
    # schedules, a hit-rate floor through the provider-qualified cache
    # key, aws-only engines blind to cross-provider entries, and
    # hour-cells/s at or above the committed BENCH_providers.json
    # baseline (with 2x slack for slower hosts).
    echo "==> providers bench guard"
    cargo bench -q -p caribou-bench --bench providers -- --test
fi

# Panic-free user-input surface: the formerly panicking resolution paths
# must stay panic!-free (they return typed ModelError/CarbonError now).
echo "==> panic grep gate"
for f in crates/simcloud/src/cloud.rs crates/carbon/src/source.rs crates/carbon/src/synth.rs; do
    if grep -n 'panic!' "$f"; then
        echo "error: panic! reintroduced in $f" >&2
        exit 1
    fi
done

echo "OK"
