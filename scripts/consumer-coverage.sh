#!/usr/bin/env bash
# consumer-coverage.sh — which functions does nothing but their own unit
# tests execute?
#
# A *consumer* of a function is anything that reaches it from outside
# its package's own tests:
#
#   - every other package's tests (each package's profile is taken with
#     -coverpkg=./... and the lines of the package under test are dropped);
#   - the root benchmarks (bench_test.go: the figure table);
#   - the benchmark/ module's tests (own go.mod, -coverpkg=sdm/...);
#   - every cmd/ and examples/ program, built with `go build -cover` and
#     driven through the smokes CI runs (restart write/fsck/read, sdmd +
#     remote sdmcat/sdmls, sdmsql, sdmbench per experiment, sdmtrace, the
#     RT example with -vtk, ...).
#
# The script prints, sorted, every non-test function of the root module
# in which no consumer executed a statement, as
#
#   <import path>/<file>.go:<Receiver.>Func
#
# and then compares that list with scripts/consumer-coverage.allow
# ("<entry> — <reason>" per line). It exits non-zero when the two differ
# in either direction — a new dead function, or a stale allow line — or
# when an allow line has no reason. 0 % means guilty, not convicted: a
# function that must stay is entered in the allow file with the reason.
#
# Everything it writes goes to a temp dir; nothing is left in the
# checkout. Takes a couple of minutes. Needs the go toolchain and curl.
#
# With -programs it is a report of what programs execute: it skips the
# test stages (1-3) and runs stage 4's smokes, `sdmbench -experiment
# all`, and a cover build of the lifecycle benchmark on every
# BENCHMARK.json workload for 3 s at --trace 0 and --trace 1, then
# prints every function no program executed. It compares nothing with
# the allow file and exits 0 unless a program fails.
#
#   scripts/consumer-coverage.sh            # list + check
#   scripts/consumer-coverage.sh > list.txt # keep the list
#   scripts/consumer-coverage.sh -programs  # what no program executes
set -euo pipefail
programs=""
case "${1:-}" in
"") ;;
-programs) programs=1 ;;
*)
	echo "usage: $0 [-programs]" >&2
	exit 2
	;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
allow="$root/scripts/consumer-coverage.allow"
work="$(mktemp -d)"
sdmd_pid=""
cleanup() {
	[ -n "$sdmd_pid" ] && kill "$sdmd_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
mkdir -p "$work/prof" "$work/bin" "$work/covdata" "$work/tmp"
log() { echo "consumer-coverage: $*" >&2; }

# --- 1. every package's tests, minus the package's own lines -------------
[ -n "$programs" ] || for pkg in $(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do
	log "tests of $pkg"
	out="$work/prof/test-$(echo "$pkg" | tr '/' '_').out"
	go test -count=1 -coverpkg=./... -coverprofile="$out.all" "$pkg" >"$work/tmp/test.log" 2>&1 ||
		{ cat "$work/tmp/test.log" >&2; exit 1; }
	# "sdm/internal/mpi/" + a file name with no further slash = own package.
	grep -vE "^${pkg}/[^/]+\.go:" "$out.all" >"$out" || true
	rm -f "$out.all"
done

if [ -z "$programs" ]; then
	# --- 2. the root benchmarks (figure workloads) count for every package ---
	log "root benchmarks"
	go test -run '^$' -bench . -benchtime=1x -coverpkg=./... \
		-coverprofile="$work/prof/rootbench.out" . >"$work/tmp/bench.log" 2>&1 ||
		{ cat "$work/tmp/bench.log" >&2; exit 1; }

	# --- 3. the lifecycle benchmark module ------------------------------------
	log "benchmark/ module tests"
	(cd benchmark && go test -count=1 -coverpkg=sdm/... \
		-coverprofile="$work/prof/benchmod.out" ./... >"$work/tmp/benchmod.log" 2>&1) ||
		{ cat "$work/tmp/benchmod.log" >&2; exit 1; }
fi

# --- 4. cmd/ and examples/ binaries through the CI smokes -----------------
log "building cover binaries"
for d in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$d")" "./$d"
done
export GOCOVERDIR="$work/covdata"
bin="$work/bin"
t="$work/tmp"
run() { "$@" >>"$t/smoke.log" 2>&1 || { log "smoke failed: $*"; tail -n 30 "$t/smoke.log" >&2; exit 1; }; }
fails() { if "$@" >>"$t/smoke.log" 2>&1; then log "smoke should have failed: $*"; exit 1; fi; }

log "smokes: examples"
run "$bin/quickstart"
run "$bin/fun3d" -nx 8 -procs 4
run "$bin/history" -nx 8 -procs 4
run "$bin/rayleightaylor" -nx 8 -procs 4 -steps 2 -vtk "$t/rt.vtk"
run "$bin/restart" -phase write -dir "$t/bundle"
run "$bin/sdmfsck" "$t/bundle"
run "$bin/restart" -phase read -dir "$t/bundle"
run "$bin/restart" -phase both -dir "$t/bundle-dir" -backend dir
# fsck reports a planted orphan, and repairs it.
echo stray >"$t/bundle-dir/data/stray.dat"
fails "$bin/sdmfsck" "$t/bundle-dir"
run "$bin/sdmfsck" -repair "$t/bundle-dir"
run "$bin/sdmfsck" -q "$t/bundle-dir"
# ...and refuses, repair or not, a manifest of a format it does not know.
cp -r "$t/bundle-dir" "$t/bundle-v2"
sed -i 's/"format": 1/"format": 2/' "$t/bundle-v2/MANIFEST.json"
fails "$bin/sdmfsck" -repair "$t/bundle-v2"

log "smokes: local tools"
run "$bin/meshgen" -nx 6 -o "$t/uns3d.msh" -partition 4
run "$bin/sdmcat" -list "$t/bundle"
run "$bin/sdmcat" -dataset pressure -timestep 2 -head 5 "$t/bundle"
run "$bin/sdmcat" -dataset pressure -timestep 1 -as raw -o "$t/local.bin" "$t/bundle"
run "$bin/sdmls" "$t/bundle/catalog.db"
fails "$bin/sdmcat" -dataset pressure -timestep 99 "$t/bundle" # no write recorded: catalog.NotFound, said locally
fails "$bin/sdmcat" -list                                       # no bundle named: usage, exit 2
fails "$bin/sdmls"
fails "$bin/sdmls" -table bogus "$t/bundle/catalog.db"                  # no such table: usage, exit 2
fails "$bin/sdmcat" -dataset pressure -timestep 2 -head -3 "$t/bundle" # negative count: usage, exit 2
sql_session() { # <expected exit status> <output file> <sdmsql args...>, statements on stdin
	local want="$1" out="$2" got=0
	shift 2
	"$bin/sdmsql" "$@" >"$out" 2>&1 || got=$?
	[ "$got" -eq "$want" ] || { log "smoke failed: sdmsql $* exited $got, want $want"; cat "$out" >&2; exit 1; }
	cat "$out" >>"$t/smoke.log"
}
# Raw SQL over a saved snapshot: a bundle's catalog and, since nothing
# in the tree writes an MDB1 snapshot (a bundle saved before PR 18) any
# more, the golden one. Each query must answer rows, not an error...
sql_session 0 "$t/sql-bundle.out" -db "$t/bundle/catalog.db" <<<'SELECT runid, dataset FROM execution_table WHERE timestep = 1'
sql_session 0 "$t/sql-v1.out" -db "$root/internal/metadb/testdata/golden_v1.mdb" <<<'SELECT id, name, payload FROM obs'
if grep -q -e 'error:' -e '^(0 rows)' "$t/sql-bundle.out" "$t/sql-v1.out"; then
	log "sdmsql answered a saved snapshot's query with an error or no rows:"
	cat "$t/sql-bundle.out" "$t/sql-v1.out" >&2
	exit 1
fi
# ...and a snapshot cut short is refused, not read as a shorter table.
head -c 300 "$root/internal/metadb/testdata/golden_v1.mdb" >"$t/cut.mdb"
fails "$bin/sdmsql" -db "$t/cut.mdb" <<<'SELECT id FROM obs'
# The SQL a user can type at the shell is the dialect the program
# issues: DDL, INSERT and DELETE, range and ordered plans, aggregates,
# EXPLAIN, the meta commands, and a write-back. Its one error is the
# missing table, so the script exits 1.
cp "$t/bundle/catalog.db" "$t/scratch.db"
sql_session 1 "$t/sql-kept.out" -db "$t/scratch.db" <<'SQL'
CREATE TABLE t (x INTEGER, y TEXT, z REAL);
CREATE INDEX t_x ON t (x);
INSERT INTO t (x, y, z) VALUES (1, 'a', 0.5);
INSERT INTO t (x, y, z) VALUES (2, 'b', 1.5), (3, 'c;d', 2.5), (-1, NULL, -0.5);
SELECT * FROM t WHERE x >= 2 AND x < 3 ORDER BY x;
SELECT COUNT(*), MAX(x), MIN(z) FROM t
  WHERE y != 'a';
SELECT y, z FROM t WHERE z > 1 ORDER BY y, x ASC;
EXPLAIN SELECT * FROM t WHERE x > 1;
DELETE FROM t WHERE x = 2;
INSERT INTO t VALUES (2, 'e', 1.5);
DELETE FROM t WHERE x = 1;
SELECT COUNT(*) FROM run_table;
\t
\d t
\stats
DROP TABLE t;
\w
SELECT * FROM nosuch
SQL
if [ "$(grep -c 'error:' "$t/sql-kept.out")" -ne 1 ] || ! grep -q 'error:.*nosuch' "$t/sql-kept.out"; then
	log "sdmsql refused statements of its dialect (only the missing table may fail):"
	grep 'error:' "$t/sql-kept.out" >&2
	exit 1
fi
# Everything outside the dialect is refused, one error per statement
# (and the script exits 1).
cat >"$t/refused.sql" <<'SQL'
UPDATE t SET y = 'e' WHERE x = 2;
SELECT * FROM t ORDER BY x DESC;
SELECT * FROM t LIMIT 1;
SELECT * FROM t WHERE x = 1 OR x = 2;
SELECT * FROM t WHERE NOT x = 1;
SELECT * FROM t WHERE y IS NULL;
DELETE FROM t WHERE y IS NOT NULL;
SELECT y, x + z FROM t;
INSERT INTO t (x) VALUES (2 - 1);
SELECT * FROM t WHERE x * 2 = 4;
SELECT MAX(x / 2) FROM t;
DELETE FROM t WHERE x = -(1);
SQL
{
	echo "CREATE TABLE t (x INTEGER, y TEXT, z REAL);"
	cat "$t/refused.sql"
} | sql_session 1 "$t/sql-refused.out"
if [ "$(grep -c 'error:' "$t/sql-refused.out")" -ne "$(grep -c ';$' "$t/refused.sql")" ]; then
	log "sdmsql answered statements outside its dialect:"
	cat "$t/sql-refused.out" >&2
	exit 1
fi

log "smokes: sdmd + remote sdmcat/sdmls"
port=$((20000 + $$ % 20000))
"$bin/sdmd" -addr "127.0.0.1:$port" "$t/bundle" >>"$t/smoke.log" 2>&1 &
sdmd_pid=$!
up=""
for _ in $(seq 1 100); do
	if "$bin/sdmcat" -remote "http://127.0.0.1:$port" -list >/dev/null 2>&1; then up=1; break; fi
	sleep 0.1
done
[ -n "$up" ] || { log "sdmd did not come up"; exit 1; }
run "$bin/sdmcat" -remote "http://127.0.0.1:$port" -list
run "$bin/sdmcat" -remote "http://127.0.0.1:$port" -dataset pressure -timestep 1 -as raw -o "$t/remote.bin"
run cmp "$t/remote.bin" "$t/local.bin"
run "$bin/sdmls" -remote "http://127.0.0.1:$port"
fails "$bin/sdmcat" -remote "http://127.0.0.1:$port" -dataset nosuch -timestep 1
# The operator endpoints, as CI's curl probes them, and the refusals:
# a malformed run id, a path that is no endpoint, an unsatisfiable range.
for path in ping cache metrics; do
	run curl -sf "http://127.0.0.1:$port/v1/$path"
done
fails curl -sf "http://127.0.0.1:$port/v1/runs/x/datasets"
fails curl -sf "http://127.0.0.1:$port/v1/sessions/nosuch"
fails curl -sf "http://127.0.0.1:$port/v1/read/1/pressure/1?off=999999999"
kill -TERM "$sdmd_pid" && wait "$sdmd_pid" || true # graceful: flushes its counters
sdmd_pid=""
fails "$bin/sdmls" -remote "http://127.0.0.1:$port" # nobody listening any more

log "smokes: sdmbench per experiment, sdmtrace"
for e in fig5 fig6 fig7 ablations; do
	run "$bin/sdmbench" -experiment "$e" -nx 12 -rtnx 12 -procs 8 -rtsteps 2 -pipesteps 4
done
run "$bin/sdmbench" -experiment pipeline -nx 12 -procs 8 -pipesteps 4 \
	-trace "$t/pipe-trace.json" -json "$t/BENCH_1.json" -bundle "$t/bench-bundle"
# A second -json run beside the first drives the drift gate: the same
# run passes, a different step count fails until BENCH_MOVED names it.
run "$bin/sdmbench" -experiment pipeline -nx 12 -procs 8 -pipesteps 4 -json "$t/BENCH_2.json"
fails "$bin/sdmbench" -experiment pipeline -nx 12 -procs 8 -pipesteps 2 -json "$t/BENCH_3.json"
rm "$t/BENCH_3.json" # written before the gate fired; BENCH_2 is the baseline again
echo 'pipeline/* — smoke: two checkpoints instead of four' >"$t/BENCH_MOVED"
run "$bin/sdmbench" -experiment pipeline -nx 12 -procs 8 -pipesteps 2 -json "$t/BENCH_4.json"
run "$bin/sdmtrace" "$t/pipe-trace.json"

if [ -n "$programs" ]; then
	log "programs: sdmbench -experiment all, the lifecycle benchmark per workload"
	run "$bin/sdmbench" -experiment all
	(cd benchmark && go build -cover -coverpkg=sdm/... -o "$bin/sdm-benchmark" .)
	for w in $(sed -n '/"workloads"/,/]/s/^ *"name": "\([^"]*\)".*/\1/p' BENCHMARK.json); do
		for trace in 0 1; do
			run "$bin/sdm-benchmark" --workload "$w" --seed 1 --seconds 3 --trace "$trace" --root "$t/bench-$w-$trace"
		done
	done
fi
unset GOCOVERDIR
go tool covdata textfmt -i="$work/covdata" -o "$work/prof/binaries.out"

# --- 5. merge, list the functions with no covered statement ---------------
{
	echo "mode: set"
	cat "$work"/prof/*.out | grep -v '^mode:' | grep -v '^sdm/benchmark/'
} >"$work/merged.out"

go tool cover -func="$work/merged.out" |
	awk '$NF == "0.0%" && $1 != "total:" { sub(/:$/, "", $1); print $1 }' |
	while IFS=: read -r file line; do
		# Name the function as Receiver.Func from its declaration line.
		src="${file#sdm/}"
		decl="$(sed -n "${line}p" "$src")"
		name="$(echo "$decl" | sed -E 's/^func (\([A-Za-z_0-9]* ?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) )?([A-Za-z_0-9]+).*/\2.\4/; s/^\.//')"
		echo "$file:$name"
	done | sort -u >"$work/list.txt"

cat "$work/list.txt"
[ -z "$programs" ] || exit 0

# --- 6. gate against the allow file ---------------------------------------
[ -f "$allow" ] || { log "no $allow; $(wc -l <"$work/list.txt") functions listed, nothing to compare"; exit 0; }
status=0
grep -vE '^(#|$)' "$allow" >"$work/allow.lines" || true
if grep -vE ' — .+' "$work/allow.lines" >&2; then
	log "the allow lines above carry no reason (want '<entry> — <reason>')"
	status=1
fi
sed -E 's/ — .*$//' "$work/allow.lines" | sort -u >"$work/allow.txt"
new="$(comm -23 "$work/list.txt" "$work/allow.txt")"
stale="$(comm -13 "$work/list.txt" "$work/allow.txt")"
if [ -n "$new" ]; then
	log "no consumer reaches these functions and the allow file does not excuse them (delete them with their unit tests, or add a line with the reason):"
	echo "$new" >&2
	status=1
fi
if [ -n "$stale" ]; then
	log "stale allow lines (the function is gone or a consumer reaches it now):"
	echo "$stale" >&2
	status=1
fi
[ "$status" -eq 0 ] && log "$(wc -l <"$work/list.txt") functions, all allow-listed"
exit "$status"
