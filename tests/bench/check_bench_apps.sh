#!/bin/sh
# Usage: check_bench_apps.sh BENCH_APPS EXPECTED
#
# Table 10.1's datacenter rows and Section 9.2's view-cache hit rates
# are read from bench_apps's Figure 9.3 cells. An exact run must print
# both tables exactly as pinned in EXPECTED (seed 42); a sampled run
# (PERSPECTIVE_SAMPLE=1), whose fence counters cover only detailed
# windows, must print a note in place of Table 10.1's numbers.
set -u
bench=$1
expected=$2

out=$(env -u PERSPECTIVE_SAMPLE -u PERSPECTIVE_BENCH_JSON \
    -u PERSPECTIVE_TRACE_OUT "$bench" --jobs 2) || exit 1
if ! printf '%s\n' "$out" | sed -n '/^=== Table 10.1/,$p' \
        | grep -v '^\[sweep' | diff "$expected" -; then
    echo "exact run: tables differ from $expected"
    exit 1
fi

out=$(env -u PERSPECTIVE_BENCH_JSON -u PERSPECTIVE_TRACE_OUT \
    PERSPECTIVE_SAMPLE=1 "$bench" --jobs 2) || exit 1
note='[sampled run: the fence counters cover only detailed windows; Table 10.1 needs an exact run]'
if ! printf '%s\n' "$out" | grep -qxF "$note"; then
    echo "sampled run: no exact-run note"
    exit 1
fi
if printf '%s\n' "$out" | grep -q ' isv + '; then
    echo "sampled run: Table 10.1 printed numbers"
    exit 1
fi
echo "bench_apps: Table 10.1 and hit rates pinned; sampled run notes it"
