#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build and the tier-1 test command.
#
# Everything here runs without network access — the workspace has no
# external dependencies and the proptest-based suites are feature-gated
# off by default.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no tracked build output =="
# Build artifacts must never be committed (9.8k of them once were). Fail if
# the index contains anything under a target/ directory or other build
# output.
tracked_artifacts=$(git ls-files -- 'target/*' '*/target/*' '*.rlib' '*.rmeta' '*.o' '*.d' || true)
if [ -n "${tracked_artifacts}" ]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "${tracked_artifacts}" | head -20 >&2
    echo "(run: git rm -r --cached target)" >&2
    exit 1
fi

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== offline release build =="
cargo build --release --offline

echo "== benchmark package (own workspace, not covered by --workspace) =="
# perfbench is a separate Cargo workspace over the library crates, so
# nothing above builds it: a public-API trim could otherwise break the
# benchmark without failing CI.
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1 tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== fbt-lint golden reports =="
# Every bundled benchmark's JSON report must be bit-identical to the
# checked-in golden file, and well-formed JSON. The --json payload now
# carries spliced "fix"/"perf" keys (per-rule wall-clock and cache
# counters); the helper asserts they are well-formed, then strips them so
# the pinned report bodies stay byte-comparable.
cargo build --release -q -p fbt-lint
lint_bin=target/release/fbt-lint
lint_out=$(mktemp)
lint_body=$(mktemp)
strip_lint_json() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
raw = open(sys.argv[1]).read().rstrip("\n")
d = json.loads(raw)
perf = d["perf"]
assert perf["groups"], "no per-rule perf groups in --json output"
for g in perf["groups"]:
    assert g["cache"] in ("hit", "miss"), g
    assert isinstance(g["micros"], int) and g["micros"] >= 0, g
assert perf["cache_hits"] + perf["cache_misses"] >= len(perf["groups"]), perf
cuts = [i for i in (raw.find(',"fix":'), raw.find(',"perf":')) if i != -1]
body = raw[: min(cuts)] + "}" if cuts else raw
open(sys.argv[2], "w").write(body + "\n")
EOF
}
for gold in crates/lint/tests/golden/s*.json; do
    name=$(basename "${gold}" .json)
    "${lint_bin}" --json "${name}" 2>/dev/null > "${lint_out}"
    python3 -m json.tool "${lint_out}" > /dev/null
    strip_lint_json "${lint_out}" "${lint_body}"
    diff -u "${gold}" "${lint_body}"
done
# The incremental engine must hit its digest-keyed cache for every rule
# group when the same circuit is analyzed twice in one process.
"${lint_bin}" --json s27 s27 2>/dev/null > "${lint_out}"
python3 - "${lint_out}" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert len(lines) == 2, f"expected two reports, got {len(lines)}"
first, second = (json.loads(l) for l in lines)
assert any(g["cache"] == "miss" for g in first["perf"]["groups"]), first["perf"]
assert all(g["cache"] == "hit" for g in second["perf"]["groups"]), (
    f"stale-cache: {second['perf']}"
)
EOF
# The seeded defective circuit (comb cycle + undriven net + shadowed PI +
# unsatisfiable constraint cube) must exit non-zero under the default
# --deny error filter, with the exact golden report...
if "${lint_bin}" --json \
    --constraints crates/lint/tests/fixtures/bad_circuit.constraints \
    crates/lint/tests/fixtures/bad_circuit.bench 2>/dev/null > "${lint_out}"; then
    echo "error: fbt-lint exited 0 on the seeded bad circuit" >&2
    exit 1
fi
python3 -m json.tool "${lint_out}" > /dev/null
strip_lint_json "${lint_out}" "${lint_body}"
diff -u crates/lint/tests/golden/bad_circuit.json "${lint_body}"
rm -f "${lint_body}"
# ...and every bundled benchmark must pass it (warnings/notes allowed).
"${lint_bin}" --deny error \
    s27 s298 s344 s349 s382 s386 s444 s510 s526 s641 s713 \
    s820 s832 s953 s1196 s1238 s1488 s1494 > /dev/null 2>&1

echo "== fbt-lint --fix (SAT-certified autofixes) =="
# Dry-run over the full 18-circuit catalog: every circuit must exit below
# 2 and no applied fix may be SAT-refuted.
for name in s27 s298 s344 s349 s382 s386 s444 s510 s526 s641 s713 \
            s820 s832 s953 s1196 s1238 s1488 s1494; do
    code=0
    "${lint_bin}" --json --fix-dry-run "${name}" 2>/dev/null > "${lint_out}" || code=$?
    if [ "${code}" -ge 2 ]; then
        echo "error: fbt-lint --fix-dry-run ${name} exited ${code}" >&2
        exit 1
    fi
    python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["refuted"] == 0, f"SAT-refuted applied fixes: {fix}"
EOF
done
# The seeded fixable circuit: the repair applies every rule, the written
# output is byte-deterministic, and the repair is idempotent (a second
# --fix over the repaired circuit applies nothing).
fix_dir=$(mktemp -d)
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable1.bench" \
    crates/lint/tests/fixtures/fixable.bench 2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ge 2 ]; then
    echo "error: fbt-lint --fix on the fixable fixture exited ${code}" >&2
    exit 1
fi
python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["applied"] >= 5 and fix["refuted"] == 0 and fix["changed"], fix
rules = {f["rule"] for f in fix["fixes"]}
want = {"undriven-stub", "const-fold", "chain-collapse", "dup-dedup", "dead-cone"}
assert want <= rules, f"missing fix rules: {want - rules}"
EOF
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable2.bench" \
    crates/lint/tests/fixtures/fixable.bench > /dev/null 2>&1 || true
cmp "${fix_dir}/fixable1.bench" "${fix_dir}/fixable2.bench"
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable3.bench" \
    "${fix_dir}/fixable1.bench" 2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ge 2 ]; then
    echo "error: fbt-lint --fix on the repaired circuit exited ${code}" >&2
    exit 1
fi
python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["applied"] == 0 and fix["refuted"] == 0 and not fix["changed"], (
    f"--fix is not idempotent: {fix}"
)
EOF
# Unparseable input degrades gracefully: exit 2, no output file, the
# bench-parse diagnostic preserved in the report.
bad_in=$(mktemp)
echo "this is not bench" > "${bad_in}"
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/never.bench" "${bad_in}" \
    2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ne 2 ]; then
    echo "error: --fix on unparseable input exited ${code}, want 2" >&2
    exit 1
fi
if [ -e "${fix_dir}/never.bench" ]; then
    echo "error: --fix wrote an output file for unparseable input" >&2
    exit 1
fi
grep -q "bench-parse" "${lint_out}"
rm -rf "${fix_dir}" "${bad_in}"

echo "== frontend twins (Verilog import == .bench import, byte-for-byte) =="
# Every golden-report circuit is exported in both wire formats and
# re-imported: the structural digests must agree across formats, and the
# lint report over the Verilog twin (via the strict --netlist route) must
# be byte-identical to the committed .bench-era golden. The verilog_twins
# suite then proves the *generation* artifacts over re-imported twins match
# the committed Chapter-4 fixtures byte-exactly.
cargo build --release -q -p fbt-bench --bin fbt-conv
conv_bin=target/release/fbt-conv
conv_dir=$(mktemp -d)
lint_body=$(mktemp)
for gold in crates/lint/tests/golden/s*.json; do
    name=$(basename "${gold}" .json)
    "${conv_bin}" emit "${name}" -o "${conv_dir}/${name}.bench"
    "${conv_bin}" emit "${name}" -o "${conv_dir}/${name}.v"
    digests=$("${conv_bin}" digest "${conv_dir}/${name}.bench" "${conv_dir}/${name}.v" \
        | awk '{print $1}' | sort -u | wc -l)
    if [ "${digests}" -ne 1 ]; then
        echo "error: ${name}: structural digest differs across wire formats" >&2
        "${conv_bin}" digest "${conv_dir}/${name}.bench" "${conv_dir}/${name}.v" >&2
        exit 1
    fi
    "${lint_bin}" --json --netlist "${conv_dir}/${name}.v" 2>/dev/null > "${lint_out}"
    strip_lint_json "${lint_out}" "${lint_body}"
    diff -u "${gold}" "${lint_body}"
done
# Transcoding is involutive at the structure level: .v -> .bench -> .v
# keeps the digest.
"${conv_bin}" convert "${conv_dir}/s298.v" -o "${conv_dir}/s298.rt.bench"
"${conv_bin}" convert "${conv_dir}/s298.rt.bench" -o "${conv_dir}/s298.rt.v"
rt_digests=$("${conv_bin}" digest "${conv_dir}/s298.v" "${conv_dir}/s298.rt.v" \
    | awk '{print $1}' | sort -u | wc -l)
if [ "${rt_digests}" -ne 1 ]; then
    echo "error: s298: transcode round trip changed the structural digest" >&2
    exit 1
fi
cargo test --release -q -p fbt-core --test verilog_twins
rm -rf "${conv_dir}" "${lint_body}"

echo "== lint cache warm restart (disk spill across processes) =="
# With FBT_LINT_CACHE_DIR set, a second *process* analyzing the same
# circuit must serve every rule group from the spilled cache, and the
# stripped report bodies must be byte-identical across the restart.
cache_dir=$(mktemp -d)
warm1=$(mktemp)
warm2=$(mktemp)
FBT_LINT_CACHE_DIR="${cache_dir}" "${lint_bin}" --json s27 2>/dev/null > "${warm1}"
if [ -z "$(ls -A "${cache_dir}")" ]; then
    echo "error: the lint run spilled nothing into FBT_LINT_CACHE_DIR" >&2
    exit 1
fi
FBT_LINT_CACHE_DIR="${cache_dir}" "${lint_bin}" --json s27 2>/dev/null > "${warm2}"
python3 - "${warm1}" "${warm2}" <<'EOF'
import json, sys
cold, warm = (json.load(open(p)) for p in sys.argv[1:3])
assert any(g["cache"] == "miss" for g in cold["perf"]["groups"]), cold["perf"]
assert all(g["cache"] == "hit" for g in warm["perf"]["groups"]), (
    f"cold cache after process restart: {warm['perf']}"
)
EOF
warm_body1=$(mktemp)
warm_body2=$(mktemp)
strip_lint_json "${warm1}" "${warm_body1}"
strip_lint_json "${warm2}" "${warm_body2}"
cmp "${warm_body1}" "${warm_body2}"
rm -rf "${cache_dir}" "${warm1}" "${warm2}" "${warm_body1}" "${warm_body2}" "${lint_out}"

echo "== compiled kernels (18-circuit builds + compiled-vs-interpreter golden) =="
# The compiled-kernel layer must (a) build a kernel for every catalog
# circuit the lint golden step covers and (b) be bit-identical to the
# gate-walking interpreter on values, detections, per-lane SWA and every
# outcome field. For fault simulation the pin is the compiled
# PackedParallelSim against the interpreter oracle SerialSim, including the
# s27 grouped fixture at batch {1, 4, 16}.
cargo test --release -q -p fbt-sim --test kernel_differential
cargo test --release -q -p fbt-fault --test compiled_kernel

echo "== golden Chapter-4 outcomes (bit-identity vs committed fixtures) =="
# The three generation modes must reproduce the committed pre-engine
# fixtures byte-exactly across batch/thread combinations (batch {1, 4, 16});
# the determinism suite diffs the switching-activity and signal-transition-
# pattern searches against an independent serial reference.
cargo test --release -q -p fbt-core --test golden_ch4
cargo test --release -q -p fbt-core --test speculative_determinism

echo "== bench_ch4 smoke (speculative search stats + JSON) =="
# One small constrained generation with stats printing (restricted to one
# circuit via the filter argument); the run itself asserts the serial and
# candidate-packed batch-8 modes reach identical coverage, and the JSON
# summary must record the unified engine it was measured on.
bench_json=$(mktemp)
BENCH_CH4_OUT="${bench_json}" cargo run --release -q -p fbt-bench --bin bench_ch4 smoke spi
python3 - "${bench_json}" <<'EOF'
import json, sys

d = json.load(open(sys.argv[1]))
assert d.get("engine") == "unified", f"missing/stale engine field: {d.get('engine')!r}"
assert all(e["circuit"] == "spi" for e in d["entries"]), "circuit filter ignored"
modes = {e["mode"] for e in d["entries"]}
assert modes == {"serial", "packed8"}, f"unexpected mode set: {modes}"
assert all("threads_capped" in e for e in d["entries"]), "threads_capped missing"
for method in ("unconstrained", "constrained"):
    rows = {e["mode"]: e for e in d["entries"] if e["method"] == method}
    assert len({e["fc_pct"] for e in rows.values()}) == 1, f"{method}: coverage drifted"
EOF
rm -f "${bench_json}"

echo "== ablation_metric smoke (signal-transition-pattern policy through the engine) =="
# The only binary that runs StpLibrary, a policy that probes each lane
# instead of reading its activity trace, through GenerationEngine.
cargo run --release -q -p fbt-bench --bin ablation_metric smoke

echo "== bench_sat smoke (CDCL solver stats + JSON) =="
# Solves every transition fault of the smoke circuits through the SAT
# backend; the run itself asserts repeated solving is bit-identical.
sat_json=$(mktemp)
BENCH_SAT_OUT="${sat_json}" cargo run --release -q -p fbt-bench --bin bench_sat smoke
python3 -m json.tool "${sat_json}" > /dev/null
rm -f "${sat_json}"

echo "== fbt-serve smoke (HTTP job service + loadgen + graceful shutdown) =="
# Start the job service on an ephemeral port, replay a small concurrent
# request mix over the 18-circuit catalog with the load generator, and
# check the report: zero errors, every job committed exactly once, ordered
# latency percentiles, a warm keep-alive round trip well under the ~40 ms a
# Nagle/delayed-ACK stall adds to every exchange, and the finished-job
# registry within its 64-job retention cap. The loadgen --shutdown flag
# then drains the server through POST /admin/shutdown; the server process
# must exit 0 on its own (no kill), which is the graceful-shutdown gate.
serve_port_file=$(mktemp); rm -f "${serve_port_file}"
serve_out=$(mktemp)
target/release/fbt-serve --addr 127.0.0.1:0 --shards 2 --workers 2 \
    --port-file "${serve_port_file}" > "${serve_out}" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "${serve_port_file}" ] && break; sleep 0.1; done
if [ ! -s "${serve_port_file}" ]; then
    echo "error: fbt-serve did not start" >&2
    cat "${serve_out}" >&2
    exit 1
fi
serve_json=$(mktemp)
target/release/loadgen --addr "$(cat "${serve_port_file}")" \
    --requests 60 --concurrency 8 --out "${serve_json}" \
    --label ci-smoke --shutdown
python3 - "${serve_json}" <<'EOF'
import json, sys

d = json.load(open(sys.argv[1]))
assert d["errors"] == 0, f"loadgen saw {d['errors']} errors: {d['error_samples']}"
assert d["completed"] == d["requests"] == 60, (d["completed"], d["requests"])
lat = d["latency"]
assert lat["count"] == 60, lat
assert 0 < lat["p50_ms"] <= lat["p90_ms"] <= lat["p99_ms"] <= lat["max_ms"], lat
pool = d["server_stats"]["pool"]
assert pool["submitted"] == pool["completed"] == 60, pool
assert pool["failed"] == 0 and pool["double_commits"] == 0, pool
assert pool["queued"] == 0 and pool["inflight"] == 0, pool
assert pool["retained"] <= 64, pool
assert pool["retained"] + pool["evicted"] == pool["completed"], pool
assert d["server_stats"]["kernel_cache"]["builds"] >= 1, d["server_stats"]
assert d["rtt_ms"] < 10, f"per-exchange stall: GET /health takes {d['rtt_ms']} ms"
EOF
wait "${serve_pid}"
grep -q "drained and stopped" "${serve_out}"
rm -f "${serve_port_file}" "${serve_json}" "${serve_out}"

echo "== fbt-serve repaired-artifact smoke (lint+fix job, content-addressed fetch) =="
# A dedicated server instance (so the loadgen's exact pool counters above
# stay undisturbed): upload the fixable fixture, run a lint job with
# "fix":true, and fetch the repaired netlist both by its content digest
# and by its derived name alias; the original alias must keep pointing at
# the circuit as uploaded.
fix_port_file=$(mktemp); rm -f "${fix_port_file}"
fix_serve_out=$(mktemp)
target/release/fbt-serve --addr 127.0.0.1:0 --shards 1 --workers 1 \
    --port-file "${fix_port_file}" > "${fix_serve_out}" 2>&1 &
fix_serve_pid=$!
for _ in $(seq 1 100); do [ -s "${fix_port_file}" ] && break; sleep 0.1; done
if [ ! -s "${fix_port_file}" ]; then
    echo "error: fbt-serve (fix smoke) did not start" >&2
    cat "${fix_serve_out}" >&2
    exit 1
fi
python3 - "$(cat "${fix_port_file}")" <<'EOF'
import http.client, json, sys, time

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

# The fixable fixture minus its undriven net: the upload path only admits
# buildable circuits (undriven-stub repairs are a CLI/raw-level concern).
MESSY = """INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
f = DFF(y)
na = NOT(a)
k0 = AND(a, na)
u = OR(b, k0)
b1 = BUFF(u)
b2 = BUFF(b1)
b3 = NOT(b2)
d1 = AND(a, f)
d2 = AND(a, f)
y = OR(d1, b3)
z = OR(d2, a)
dead = XOR(a, b)
dead2 = NOT(dead)
"""

def req(method, url, body=None):
    c = http.client.HTTPConnection(host, int(port), timeout=10)
    c.request(method, url, body=body.encode() if isinstance(body, str) else body)
    r = c.getresponse()
    data = r.read().decode()
    c.close()
    return r.status, data

status, body = req("POST", "/circuits?name=fixable", MESSY)
assert status == 201, (status, body)
orig_digest = json.loads(body)["digest"]

status, body = req("POST", "/jobs", json.dumps(
    {"circuit": "fixable", "kind": "lint", "fix": True}))
assert status == 202, (status, body)
job = json.loads(body)["job"]
for _ in range(200):
    status, body = req("GET", f"/jobs/{job}/result")
    if status == 200:
        break
    time.sleep(0.05)
assert status == 200, (status, body)
result = json.loads(body)
assert result["fix"]["refuted"] == 0, result["fix"]
assert result["fix"]["applied"] >= 4, result["fix"]
fixed = result["fixed_digest"]
assert fixed != orig_digest, "the repair must change the structure"

status, body = req("GET", f"/circuits/{fixed}/bench")
assert status == 200 and "dead" not in body, (status, body[:200])
status, body = req("GET", "/circuits/fixable.fixed")
assert status == 200 and json.loads(body)["digest"] == fixed, (status, body)
status, body = req("GET", "/circuits/fixable")
assert status == 200 and json.loads(body)["digest"] == orig_digest, (status, body)

status, body = req("POST", "/admin/shutdown")
assert status == 200, (status, body)
EOF
wait "${fix_serve_pid}"
grep -q "drained and stopped" "${fix_serve_out}"
rm -f "${fix_port_file}" "${fix_serve_out}"

echo "CI OK"
