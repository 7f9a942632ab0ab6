#!/usr/bin/env bash
# End-to-end smoke test of `wbist serve` (the CI serve-smoke job and
# `make serve-smoke`): start the service, demand HTTP 400 for an
# out-of-range config, submit s27, poll the job to completion, fetch an
# artifact, resubmit and demand a cache hit with byte-identical artifacts,
# then SIGTERM the server and demand a clean, prompt exit. Needs curl and
# a go toolchain; everything runs on a random free port against a
# throwaway store directory.
set -euo pipefail

workdir="$(mktemp -d)"
addr="localhost:${WBIST_SMOKE_PORT:-8341}"
log="$workdir/serve.log"
pid=""

cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    [[ -f "$log" ]] && sed 's/^/serve_smoke: server: /' "$log" >&2
    exit 1
}

api() { curl -sf "http://$addr/api/v1/$1"; }

# shellcheck source=lib_poll.sh
. "$(dirname "$0")/lib_poll.sh"

echo "serve_smoke: building wbist"
go build -o "$workdir/wbist" ./cmd/wbist

echo "serve_smoke: starting wbist serve on $addr (store $workdir/store)"
"$workdir/wbist" serve -addr "$addr" -store "$workdir/store" -drain 30s 2>"$log" &
pid=$!

healthy() {
    kill -0 "$pid" 2>/dev/null || fail "server died during startup"
    api healthz >/dev/null 2>&1
}
poll_until 10 healthy || fail "server did not become healthy"

submit() {
    curl -sf -X POST "http://$addr/api/v1/jobs" \
        -d '{"circuit":"s27","config":{"lg":200,"seed":1}}'
}

json_field() { # json_field <json> <key> -> bare string value
    printf '%s' "$1" | sed -n "s/.*\"$2\": *\"\([^\"]*\)\".*/\1/p" | head -1
}

echo "serve_smoke: submitting an out-of-range config (expect 400)"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/api/v1/jobs" \
    -d '{"circuit":"s27","config":{"lg":-1}}')"
[[ "$code" == 400 ]] || fail "config lg -1 got HTTP $code, want 400"

echo "serve_smoke: submitting s27"
resp="$(submit)" || fail "submission rejected"
job="$(json_field "$resp" id)"
[[ -n "$job" ]] || fail "no job id in response: $resp"

poll="" state=""
job_done() { # job_done <job-id>; sets $poll/$state, exits on terminal failure
    poll="$(api "jobs/$1")" || fail "poll failed"
    state="$(json_field "$poll" state)"
    case "$state" in
        failed|cancelled) fail "job reached state $state: $poll" ;;
    esac
    [[ "$state" == done ]]
}
poll_until 30 job_done "$job" || fail "job did not finish (state $state)"
printf '%s' "$poll" | grep -q '"cached": false' || fail "first run claims cached: $poll"

api "jobs/$job/artifacts/result.json" > "$workdir/result1.json" || fail "artifact fetch failed"
grep -q '"circuit": "s27"' "$workdir/result1.json" || fail "implausible result.json"
api "jobs/$job/artifacts/generator.v" > "$workdir/gen1.v" || fail "generator fetch failed"
grep -q module "$workdir/gen1.v" || fail "generator.v is not Verilog"

echo "serve_smoke: resubmitting (expect cache hit)"
resp2="$(submit)" || fail "resubmission rejected"
job2="$(json_field "$resp2" id)"
poll_until 10 job_done "$job2" || fail "resubmission did not finish (state $state)"
poll2="$poll"
printf '%s' "$poll2" | grep -q '"cached": true' || fail "resubmission was not a cache hit: $poll2"
[[ "$(json_field "$resp2" key)" == "$(json_field "$resp" key)" ]] || fail "store key changed on resubmit"

api "jobs/$job2/artifacts/result.json" > "$workdir/result2.json"
cmp -s "$workdir/result1.json" "$workdir/result2.json" || fail "cached result.json differs"
api "jobs/$job2/artifacts/generator.v" > "$workdir/gen2.v"
cmp -s "$workdir/gen1.v" "$workdir/gen2.v" || fail "cached generator.v differs"

echo "serve_smoke: SIGTERM, expecting clean exit"
kill -TERM "$pid"
server_gone() { ! kill -0 "$pid" 2>/dev/null; }
if ! poll_until 10 server_gone; then
    fail "server still running 10s after SIGTERM"
fi
wait "$pid" || fail "server exited nonzero"
grep -q "shutdown complete" "$log" || fail "no graceful-shutdown log line"
pid=""

echo "serve_smoke: PASS"
