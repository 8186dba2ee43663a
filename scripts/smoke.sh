#!/usr/bin/env sh
# Tier-1 smoke: build everything, run the full test tree (which includes
# the search-stats JSON round trip in test_search), then drive the CLI end
# to end.
#
# SMOKE_ONLY=chaos runs only the fault-injection / crash-recovery
# section; SMOKE_ONLY=opt runs only the proof-carrying-optimizer section;
# SMOKE_ONLY=serve runs only the synthesis-daemon section; SMOKE_ONLY=certify
# runs only the symbolic-certifier section; SMOKE_ONLY=devlint runs only the
# self-hosted codebase-linter gate; SMOKE_ONLY=bench runs only the
# search-throughput regression gate (CI's bench job uses it). Each is for
# a quick local rerun of one area. The default runs everything, every
# section above included; CI's build-and-test job runs it.
set -eu

cd "$(dirname "$0")/.."

# One build of the CLI; every section runs this binary.
dune build bin/synth.exe
synth="./_build/default/bin/synth.exe"

# One integer counter from a stats snapshot, by its full jq path (e.g.
# .process.readdir_calls). A missing counter fails the smoke: call it in
# an assignment, or through [unchanged], never bare inside a test.
counter() {
  jq -e "$2 | numbers" "$1" \
    || { echo "stats snapshot $1 has no counter $2" >&2; return 1; }
}
# Fail with message $4 unless counter $3 reads the same in snapshots $1
# and $2.
unchanged() {
  a="$(counter "$1" "$3")" && b="$(counter "$2" "$3")" || exit 1
  [ "$a" = "$b" ] || { echo "$4" >&2; exit 1; }
}

if [ "${SMOKE_ONLY:-all}" = "all" ]; then

echo "== dune build =="
dune build

echo "== dune build @runtest =="
dune build @runtest

echo "== registry cache round trip =="
reg="${TMPDIR:-/tmp}/sortsynth-registry-smoke"
rm -rf "$reg"
# First run populates the store; the repeated request must be served from
# the registry (verified on load) without running the search, and the
# stats snapshot must show the hit.
"$synth" -n 4 --cache --cache-dir "$reg" > /dev/null
second="$("$synth" -n 4 --cache --cache-dir "$reg" --stats-json -)"
echo "$second" | grep -q "# cached from disk" \
  || { echo "second --cache run did not hit the registry" >&2; exit 1; }
echo "$second" | grep -q '"registry":{"hits":1' \
  || { echo "stats snapshot does not report the registry hit" >&2; exit 1; }

echo "== batch through the registry =="
jobs="${TMPDIR:-/tmp}/sortsynth-jobs-smoke.json"
printf '[{"n":2},{"n":3},{"n":3,"engine":"level"},{"n":3,"engine":"parallel"}]\n' > "$jobs"
"$synth" batch "$jobs" -j 2 --cache-dir "$reg" > /dev/null
# Every batch job repeats a stored request: all four must be cache hits.
"$synth" batch "$jobs" -j 2 --cache-dir "$reg" \
  | grep -q "# registry: 4 hits, 0 misses" \
  || { echo "repeated batch was not fully served from the registry" >&2; exit 1; }
"$synth" registry verify --lint --cache-dir "$reg" > /dev/null \
  || { echo "registry verify --lint failed" >&2; exit 1; }
rm -rf "$reg" "$jobs"

echo "== static analyzer lint gate =="
# Every shipped example kernel must be lint-clean (exit 0, zero findings)
# — except sort3_unopt.txt, the deliberately naive compilation that
# exists to trip the redundant-cmp rule and feed the optimizer smoke.
clean_examples="$(ls examples/kernels/*.txt | grep -v sort3_unopt)"
"$synth" lint $clean_examples \
  || { echo "example kernels are not lint-clean" >&2; exit 1; }
unopt_lint="${TMPDIR:-/tmp}/sortsynth-unopt-lint.out"
if "$synth" lint examples/kernels/sort3_unopt.txt \
    > "$unopt_lint" 2>&1; then
  echo "lint accepted the deliberately redundant kernel" >&2; exit 1
fi
grep -q "redundant-cmp" "$unopt_lint" \
  || { echo "lint did not flag the duplicated cmp as redundant-cmp" >&2; exit 1; }
rm -f "$unopt_lint"
# A deliberately padded kernel must trip the gate (exit 1) ...
padded="${TMPDIR:-/tmp}/sortsynth-padded-smoke.txt"
{ cat examples/kernels/sort3.txt; printf 'mov s1 r1\ncmp r1 r2\n'; } > "$padded"
if "$synth" lint "$padded" > /dev/null 2>&1; then
  echo "lint accepted a padded kernel" >&2; exit 1
fi
# ... and the proof-carrying DCE must strip the padding and re-certify.
analysis="$("$synth" analyze "$padded" --json)"
echo "$analysis" | grep -q '"removed":2' \
  || { echo "DCE did not remove the 2 padding instructions" >&2; exit 1; }
echo "$analysis" | grep -q '"certified":true' \
  || { echo "DCE output did not re-certify" >&2; exit 1; }
rm -f "$padded"

fi # SMOKE_ONLY guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "opt" ]; then

echo "== proof-carrying optimizer: certify, equiv, refuse sabotage =="
optdir="${TMPDIR:-/tmp}/sortsynth-opt-smoke"
rm -rf "$optdir"; mkdir -p "$optdir"
for k in examples/kernels/*.txt; do
  base="$(basename "$k")"
  "$synth" optimize "$k" -o "$optdir/$base" > /dev/null
  # The optimized kernel must be lint-clean ...
  "$synth" lint "$optdir/$base" > /dev/null \
    || { echo "optimized $base is not lint-clean" >&2; exit 1; }
  # ... equivalent to its input on all n! permutations (equiv exit 0) ...
  "$synth" equiv "$k" "$optdir/$base" > /dev/null \
    || { echo "optimized $base is not equivalent to its input" >&2; exit 1; }
  # ... and no longer than the input.
  in_len="$(grep -c . "$k")"
  out_len="$(grep -c . "$optdir/$base")"
  [ "$out_len" -le "$in_len" ] \
    || { echo "optimized $base grew: $in_len -> $out_len lines" >&2; exit 1; }
done
# The naive compilation must strictly improve (the redundant cmp goes).
in_len="$(grep -c . examples/kernels/sort3_unopt.txt)"
out_len="$(grep -c . "$optdir/sort3_unopt.txt")"
[ "$out_len" -lt "$in_len" ] \
  || { echo "optimizer did not improve sort3_unopt.txt" >&2; exit 1; }
# A sabotaged pass is refused, never silently applied: under the
# opt.break_pass fault every proposal fails certification, so no delta
# is recorded and the kernel survives byte-identical.
"$synth" optimize examples/kernels/sort2.txt \
    --fault-plan 'seed=1;opt.break_pass=always' --json \
  | grep -q '"deltas":\[\]' \
  || { echo "sabotaged pass was not refused" >&2; exit 1; }
# Typed equiv exit codes: 0 equivalent, 1 differ with a counterexample.
"$synth" equiv examples/kernels/sort3.txt \
    "$optdir/sort3_unopt.txt" > /dev/null \
  || { echo "equiv rejected two equivalent sort3 kernels" >&2; exit 1; }
set +e
differs="$("$synth" equiv examples/kernels/sort2.txt \
    examples/kernels/sort3.txt 2> /dev/null)"
code=$?
set -e
[ "$code" -eq 1 ] || { echo "equiv on differing kernels exited $code, want 1" >&2; exit 1; }
echo "$differs" | grep -q "counterexample input" \
  || { echo "equiv did not print a counterexample" >&2; exit 1; }
# An unwritable -o path is a one-line diagnostic and exit 1, not an
# uncaught exception.
set +e
"$synth" optimize examples/kernels/sort2.txt \
    -o "$optdir/missing/dir/out.txt" > /dev/null 2> "$optdir/write.err"
code=$?
set -e
[ "$code" -eq 1 ] || { echo "optimize -o to an unwritable path exited $code, want 1" >&2; exit 1; }
grep -q "^synth: cannot write " "$optdir/write.err" \
  || { echo "optimize -o to an unwritable path did not say why" >&2; exit 1; }
rm -rf "$optdir"

fi # SMOKE_ONLY=opt guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "chaos" ]; then

echo "== chaos: torn insert, recovery, typed exit codes =="
reg="${TMPDIR:-/tmp}/sortsynth-chaos-smoke"
jobs="${TMPDIR:-/tmp}/sortsynth-chaos-jobs.json"
rm -rf "$reg"
printf '[{"n":3}]\n' > "$jobs"
# A batch whose one store insert crashes at the publishing rename: the
# job still synthesizes (the search succeeded), but nothing lands in the
# store except the torn staging directory a real crash would leave.
"$synth" batch "$jobs" --cache-dir "$reg" \
    --fault-plan 'seed=42;registry.rename=nth:1' \
  | grep -q "0 inserted" \
  || { echo "faulted batch unexpectedly published its entry" >&2; exit 1; }
# Inserts stage inside the entry's shard since the v2 layout, so the
# torn dir lives one level down.
find "$reg/store" -maxdepth 2 -name '.tmp-*' | grep -q . \
  || { echo "injected rename crash left no torn staging dir" >&2; exit 1; }
# The next (un-faulted) batch must recover the torn dir at open, miss,
# re-synthesize, and publish cleanly.
"$synth" batch "$jobs" --cache-dir "$reg" \
  | grep -q "# registry: 0 hits, 1 misses, 0 quarantined, 1 inserted, 1 recovered" \
  || { echo "batch after the crash did not recover + reinsert" >&2; exit 1; }
if find "$reg/store" -maxdepth 2 -name '.tmp-*' | grep -q .; then
  echo "torn staging dir survived recovery" >&2; exit 1
fi
# The recovered store is fully servable and certifies end to end.
"$synth" registry verify --cache-dir "$reg" > /dev/null \
  || { echo "registry verify failed after recovery" >&2; exit 1; }
# Typed exit codes: 2 = deadline, 3 = budget exhausted at the final rung.
set +e
"$synth" -n 4 --engine level --timeout 0.05 > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || { echo "timeout exited $code, want 2" >&2; exit 1; }
set +e
"$synth" -n 4 --engine level --state-budget 10 > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] || { echo "exhaustion exited $code, want 3" >&2; exit 1; }
# A dead pool worker fails its job, not the batch: the run completes,
# reports the crash in place, and exits 1 (mixed/other failure class).
set +e
crash_out="$("$synth" batch "$jobs" --no-cache \
    --fault-plan 'seed=7;serve.worker_death=always' 2> /dev/null)"
code=$?
set -e
[ "$code" -eq 1 ] || { echo "crashed batch exited $code, want 1" >&2; exit 1; }
echo "$crash_out" | grep -q "CRASHED" \
  || { echo "crashed batch did not report the crash" >&2; exit 1; }
rm -rf "$reg" "$jobs"

fi # SMOKE_ONLY=chaos guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "serve" ]; then

echo "== synthesis daemon: LRU, coalescing, sharded registry =="
servedir="${TMPDIR:-/tmp}/sortsynth-serve-smoke"
rm -rf "$servedir"; mkdir -p "$servedir"
sock="$servedir/synthd.sock"
reg="$servedir/registry"
statsf="$servedir/final-stats.json"
"$synth" serve --socket "$sock" --cache-dir "$reg" --stats-json "$statsf" \
  > "$servedir/serve.log" 2>&1 &
serve_pid=$!
# The daemon prints its ready line after binding; the socket appearing is
# the machine-checkable version of the same signal.
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
# Cold request: a real search, served and stored.
cold_out="$servedir/cold.out"
"$synth" client --server "$sock" -n 3 --stats-json "$servedir/cold.json" \
  > "$cold_out" || { echo "cold client request failed" >&2; exit 1; }
grep -q "# synthesized from search" "$cold_out" \
  || { echo "cold request was not synthesized" >&2; exit 1; }
# --stats-json writes the served answer for every op, not only stats.
jq -e '.status == "synthesized"' "$servedir/cold.json" > /dev/null \
  || { echo "client --stats-json did not write the served answer" >&2; exit 1; }
# `synth --cache` is the same executor in process: on a fresh store it
# keeps the entry the daemon's cold request kept, byte for byte but for
# the search time.
"$synth" -n 3 --cache --cache-dir "$servedir/cli-fresh" > /dev/null \
  || { echo "synth --cache failed on a fresh store" >&2; exit 1; }
served_entry="$(dirname "$(find "$reg/store" -name kernel.txt)")"
cli_entry="$(dirname "$(find "$servedir/cli-fresh/store" -name kernel.txt)")"
cmp -s "$served_entry/kernel.txt" "$cli_entry/kernel.txt" \
  || { echo "synth --cache stored a different kernel.txt than the daemon" >&2; exit 1; }
[ "$(jq -S 'del(.elapsed_s)' "$served_entry/meta.json")" \
  = "$(jq -S 'del(.elapsed_s)' "$cli_entry/meta.json")" ] \
  || { echo "synth --cache stored a different meta.json than the daemon" >&2; exit 1; }
# Warm request: must be served from memory with ZERO directory scans and
# ZERO n! re-certifications — proved by the process-wide monotone
# counters not moving between the two stats snapshots around it.
"$synth" client --server "$sock" --op stats > "$servedir/before.json"
warm_out="$servedir/warm.out"
"$synth" client --server "$sock" --op lookup -n 3 > "$warm_out" \
  || { echo "warm lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$warm_out" \
  || { echo "warm lookup was not served from memory" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$servedir/after.json"
echo "cold: $(grep '^#' "$cold_out")"
echo "warm: $(grep '^#' "$warm_out")"
unchanged "$servedir/before.json" "$servedir/after.json" \
  .process.readdir_calls "warm lookup performed a directory scan"
unchanged "$servedir/before.json" "$servedir/after.json" \
  .process.certifications "warm lookup re-certified the kernel"
hits_before="$(counter "$servedir/before.json" .serve.cache_hits)"
hits_after="$(counter "$servedir/after.json" .serve.cache_hits)"
[ "$hits_after" -gt "$hits_before" ] \
  || { echo "warm lookup did not count as a cache hit" >&2; exit 1; }
# Concurrent clients on one warm key: every one is a memory hit.
conc_pids=""
for i in 1 2 3 4; do
  "$synth" client --server "$sock" --op lookup -n 3 \
    > "$servedir/conc$i.out" &
  conc_pids="$conc_pids $!"
done
for p in $conc_pids; do
  wait "$p" || { echo "concurrent lookup client $p failed" >&2; exit 1; }
done
for i in 1 2 3 4; do
  grep -q "# cached from memory" "$servedir/conc$i.out" \
    || { echo "concurrent lookup $i missed the memory cache" >&2; exit 1; }
done
"$synth" client --server "$sock" --op stats > "$servedir/conc.json"
conc_hits="$(counter "$servedir/conc.json" .serve.cache_hits)"
[ "$conc_hits" -ge 5 ] \
  || { echo "concurrent lookups did not all hit the cache" >&2; exit 1; }
# batch --server prints byte-identical kernels to a local batch, as
# kernel text and as x86-64.
jobs="$servedir/jobs.json"
printf '[{"n":2},{"n":3},{"n":3,"engine":"level"}]\n' > "$jobs"
for fmt in "" --x86; do
  "$synth" batch "$jobs" --cache-dir "$servedir/local-reg" $fmt \
    | grep -v '^#' > "$servedir/local.kernels"
  "$synth" batch "$jobs" --server "$sock" $fmt \
    | grep -v '^#' > "$servedir/remote.kernels"
  cmp -s "$servedir/local.kernels" "$servedir/remote.kernels" \
    || { echo "batch --server $fmt kernels differ from the local batch" >&2; exit 1; }
done
# Clean shutdown on request; the daemon writes its final stats snapshot.
"$synth" client --server "$sock" --op shutdown > /dev/null \
  || { echo "shutdown request failed" >&2; exit 1; }
wait "$serve_pid" \
  || { echo "daemon exited non-zero after shutdown" >&2; exit 1; }
grep -q "# serve: listening on" "$servedir/serve.log" \
  || { echo "daemon never printed its ready line" >&2; exit 1; }
[ -s "$statsf" ] && grep -q '"cache_hits"' "$statsf" \
  || { echo "daemon did not write its final stats snapshot" >&2; exit 1; }
# Unreachable server: typed exit code 5.
set +e
"$synth" client --server "$sock" --op stats > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 5 ] || { echo "unreachable server exited $code, want 5" >&2; exit 1; }
# Migrate-at-open round trip: flatten the sharded store back to the v1
# layout by hand; the next open (here `registry verify`) moves every
# entry home, and the inventory must be identical.
flatten() {
  for d in "$1"/store/??; do
    [ -d "$d" ] || continue
    mv "$d"/* "$1/store/" 2> /dev/null || true
    rmdir "$d"
  done
}
"$synth" registry list --cache-dir "$reg" > "$servedir/sharded.list"
flatten "$reg"
"$synth" registry list --count --cache-dir "$reg" | grep -q "0 sharded" \
  || { echo "flattening the store for the migrate test failed" >&2; exit 1; }
"$synth" registry verify --cache-dir "$reg" > "$servedir/migrate-verify.log" \
  || { echo "registry verify failed on a flat store" >&2; exit 1; }
grep -q "flat v1 entries moved into shards" "$servedir/migrate-verify.log" \
  || { echo "registry verify did not report the migration" >&2; exit 1; }
"$synth" registry list --count --cache-dir "$reg" | grep -q "0 flat" \
  || { echo "opening the store left flat entries behind" >&2; exit 1; }
"$synth" registry list --cache-dir "$reg" > "$servedir/migrated.list"
cmp -s "$servedir/sharded.list" "$servedir/migrated.list" \
  || { echo "registry listing changed across the migrate round trip" >&2; exit 1; }
"$synth" registry verify --cache-dir "$reg" > /dev/null \
  || { echo "registry verify failed after migrate" >&2; exit 1; }
# The CLI's --cache open step migrates too: a kernel stored sharded, then
# flattened, is still a registry hit.
cp -R "$reg" "$servedir/cli-registry"
"$synth" -n 3 --cache --cache-dir "$servedir/cli-registry" > /dev/null
flatten "$servedir/cli-registry"
"$synth" -n 3 --cache --cache-dir "$servedir/cli-registry" \
  | grep -q "# cached from disk" \
  || { echo "synth --cache missed on a flattened store" >&2; exit 1; }

echo "== daemon overload: typed shed, exit 6, never a hang =="
# With the admission gate forced shut by the fault plan, every synth
# request must come back as a typed "overloaded" response with a retry
# hint (client exit 6) — not a hang and not a silent drop.
ov_sock="$servedir/ov.sock"
"$synth" serve --socket "$ov_sock" --cache-dir "$servedir/ov-registry" \
  --fault-plan 'seed=1;serve.overload=always' \
  > "$servedir/ov-serve.log" 2>&1 &
ov_pid=$!
i=0
while [ ! -S "$ov_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "overload daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
set +e
"$synth" client --server "$ov_sock" -n 3 \
  > "$servedir/ov.out" 2> "$servedir/ov.err"
code=$?
set -e
[ "$code" -eq 6 ] \
  || { echo "overloaded request exited $code, want 6" >&2; exit 1; }
grep -q "^# overloaded" "$servedir/ov.out" \
  || { echo "shed response was not typed overloaded" >&2; exit 1; }
grep -q "retry in" "$servedir/ov.err" \
  || { echo "shed response carried no retry_after hint" >&2; exit 1; }
"$synth" client --server "$ov_sock" --op shutdown > /dev/null \
  || { echo "overloaded daemon refused shutdown" >&2; exit 1; }
wait "$ov_pid" \
  || { echo "overload daemon exited non-zero" >&2; exit 1; }

echo "== graceful drain: SIGTERM, warm-set snapshot, warm restart =="
dr_sock="$servedir/drain.sock"
dr_reg="$servedir/drain-registry"
"$synth" serve --socket "$dr_sock" --cache-dir "$dr_reg" \
  > "$servedir/drain1.log" 2>&1 &
dr_pid=$!
i=0
while [ ! -S "$dr_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "drain daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$dr_sock" -n 3 > /dev/null \
  || { echo "drain-test synthesis failed" >&2; exit 1; }
# Load while the signal lands: warm lookups racing the drain either get
# served (warm hits serve during drain) or see the connection refused —
# both fine; the daemon must still exit 0 with a whole snapshot.
for i in 1 2 3; do
  "$synth" client --server "$dr_sock" --op lookup -n 3 > /dev/null 2>&1 &
done
kill -TERM "$dr_pid"
wait "$dr_pid" \
  || { echo "daemon exited non-zero after SIGTERM" >&2; exit 1; }
wait || true # collect the racing lookups, whatever they saw
[ -f "$dr_reg/warmset.json" ] \
  || { echo "drain left no warm-set snapshot" >&2; exit 1; }
grep -q "sortsynth-serve-warmset/v1" "$dr_reg/warmset.json" \
  || { echo "warm-set snapshot has the wrong schema" >&2; exit 1; }
# Warm restart: the snapshot is restored through the certified lookup
# path at open, and the first request is a memory hit — zero exact
# re-certifications across it.
"$synth" serve --socket "$dr_sock" --cache-dir "$dr_reg" \
  > "$servedir/drain2.log" 2>&1 &
dr2_pid=$!
i=0
while [ ! -S "$dr_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "restarted daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$dr_sock" --op stats > "$servedir/dr-before.json"
restored="$(counter "$servedir/dr-before.json" .serve.snapshot.restored)"
[ "$restored" -ge 1 ] \
  || { echo "restart did not restore the warm set" >&2; exit 1; }
"$synth" client --server "$dr_sock" --op lookup -n 3 > "$servedir/dr-warm.out" \
  || { echo "restored lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$servedir/dr-warm.out" \
  || { echo "restored key was not served from memory" >&2; exit 1; }
"$synth" client --server "$dr_sock" --op stats > "$servedir/dr-after.json"
unchanged "$servedir/dr-before.json" "$servedir/dr-after.json" \
  .process.certifications "warm restart re-certified on the serving path"
"$synth" client --server "$dr_sock" --op shutdown > /dev/null \
  || { echo "restarted daemon refused shutdown" >&2; exit 1; }
wait "$dr2_pid" \
  || { echo "restarted daemon exited non-zero" >&2; exit 1; }
rm -rf "$servedir"

fi # SMOKE_ONLY=serve guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "certify" ]; then

echo "== one certifier: symcert analysis, counted exact check =="
certdir="${TMPDIR:-/tmp}/sortsynth-certify-smoke"
rm -rf "$certdir"; mkdir -p "$certdir"
# `synth certify` keeps the symbolic certifier as an analysis: every
# shipped example kernel proves SYMBOLICALLY, with no Unknown verdict
# and no exact fallback.
"$synth" certify examples/kernels/*.txt --json > "$certdir/kernels.json" \
  || { echo "synth certify rejected a shipped example kernel" >&2; exit 1; }
if grep -q '"certified":false' "$certdir/kernels.json"; then
  echo "an example kernel failed to certify" >&2; exit 1
fi
if grep -q '"method":"exact"' "$certdir/kernels.json"; then
  echo "an example kernel needed the exact n! fallback" >&2; exit 1
fi
if grep -q '"verdict":"unknown"' "$certdir/kernels.json"; then
  echo "an example kernel came back unknown" >&2; exit 1
fi
# The Machine.Zeroone gap kernel — sorts all 2^n binary inputs, fails a
# permutation — is the standing adversarial regression: it must be
# rejected, NEVER proved.
if "$synth" certify examples/gap/zeroone_gap.txt --json \
    > "$certdir/gap.json" 2>&1; then
  echo "synth certify ACCEPTED the Zeroone gap kernel" >&2; exit 1
fi
if grep -q '"verdict":"proved"' "$certdir/gap.json"; then
  echo "symcert PROVED the Zeroone gap kernel (unsound)" >&2; exit 1
fi
grep -q '"certified":false' "$certdir/gap.json" \
  || { echo "gap kernel was not reported uncertified" >&2; exit 1; }
# A fresh synthesis certifies its kernel with the one counted exact
# check, and the stats snapshot reports it.
"$synth" -n 3 --stats-json "$certdir/stats.json" > /dev/null \
  || { echo "fresh n=3 synthesis failed" >&2; exit 1; }
certs="$(counter "$certdir/stats.json" .certifications)"
[ "$certs" -gt 0 ] \
  || { echo "--stats-json reports no certification after -n 3" >&2; exit 1; }
# Trust-boundary counters on the daemon: cold admission runs the exact
# check (certifications moves), and a warm memory hit moves no counter.
sock="$certdir/synthd.sock"
"$synth" serve --socket "$sock" --cache-dir "$certdir/registry" \
  > "$certdir/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "certify daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$sock" --op stats > "$certdir/start.json"
"$synth" client --server "$sock" -n 3 > /dev/null \
  || { echo "cold certify-smoke request failed" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$certdir/before.json"
certs_start="$(counter "$certdir/start.json" .process.certifications)"
certs_cold="$(counter "$certdir/before.json" .process.certifications)"
[ "$certs_cold" -gt "$certs_start" ] \
  || { echo "cold admission ran no exact certification" >&2; exit 1; }
"$synth" client --server "$sock" --op lookup -n 3 > "$certdir/warm.out" \
  || { echo "warm certify-smoke lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$certdir/warm.out" \
  || { echo "warm certify-smoke lookup missed the memory cache" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$certdir/after.json"
for c in certifications readdir_calls; do
  unchanged "$certdir/before.json" "$certdir/after.json" \
    ".process.$c" "warm hit moved the $c counter"
done
"$synth" client --server "$sock" --op shutdown > /dev/null 2>&1 || true
wait "$serve_pid" 2>/dev/null || true
rm -rf "$certdir"

fi # SMOKE_ONLY=certify guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "devlint" ]; then

echo "== devlint: tree is clean =="
# The whole tree must scan clean (unwaived findings exit 1), and the JSON
# report must agree.
devout="${TMPDIR:-/tmp}/sortsynth-devlint-smoke.json"
"$synth" devlint --json > "$devout" \
  || { echo "devlint found unwaived findings in lib/ or bin/" >&2; exit 1; }
grep -q '"ok":true' "$devout" \
  || { echo "devlint JSON report does not say ok" >&2; exit 1; }
rm -f "$devout"

echo "== devlint: one JSON emitter =="
# Every JSON document is built as a Json.t and rendered by lib/json; a
# hand-rolled emitter would need its own string escaper, so the escape
# format must occur in exactly one file under lib/ and bin/.
escapers="$(grep -rlF 'u%04x' lib bin || true)"
[ "$escapers" = "lib/json/json.ml" ] \
  || { echo "JSON string escaping outside lib/json/json.ml: $escapers" >&2; exit 1; }

echo "== devlint: corpus still fails =="
# The gate is only a gate if a known-bad file trips it: every corpus file
# must produce findings and a non-zero exit with no waivers applied.
for bad in test/devlint_corpus/*.ml; do
  if "$synth" devlint --waivers /dev/null "$bad" > /dev/null 2>&1; then
    echo "devlint passed known-bad corpus file $bad" >&2; exit 1
  fi
done

fi # SMOKE_ONLY=devlint guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "bench" ]; then

echo "== search-throughput regression gate =="
dune build bench/main.exe
# Measure a fresh trajectory point into a scratch file (never the committed
# baseline) and gate it against the last committed BENCH_search.json entry:
# >20% states/sec regression on any workload, or a `generated`, `expanded`
# or `optimal_length` fingerprint that differs from its baseline row, fails the
# smoke. Each row is the best of three repeats, as the committed baseline
# rows are: a single repeat of the 10 ms n=3 search read 38-74% of its
# baseline on a noisy host with nothing regressed.
benchout="${TMPDIR:-/tmp}/sortsynth-bench-smoke.json"
rm -f "$benchout"
BENCH_REPEATS="${BENCH_REPEATS:-3}" dune exec bench/main.exe -- \
    --bench-search "$benchout" --rev smoke \
    --check BENCH_search.json --tolerance 0.2 \
  || { echo "search throughput or fingerprint drifted vs BENCH_search.json" >&2; exit 1; }
grep -q '"schema":"sortsynth-bench-search/v1"' "$benchout" \
  || { echo "bench snapshot is missing its schema tag" >&2; exit 1; }
rm -f "$benchout"

fi # SMOKE_ONLY=bench guard

echo "smoke ok"
