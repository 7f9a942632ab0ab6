# lib_poll.sh — deadline-based polling with exponential backoff, sourced by
# scripts/serve_smoke.sh (and unit-tested by scripts/poll_test.sh).
#
# The fixed-sleep loops this replaces (`for _ in $(seq 100); do ...; sleep
# 0.1; done`) had two failure modes: the real deadline silently stretched
# with the cost of the polled command (100 iterations of a slow poll is far
# more than 10 seconds), and a just-started service was hammered at 10 Hz
# for its whole startup. poll_until bounds the wait by wall clock, not by
# iteration count, and backs off exponentially from 50 ms to 1 s so early
# readiness is still detected quickly.

# poll_until <deadline-seconds> <command> [args...]
#
# Runs the command until it succeeds (status 0) or the wall-clock deadline
# expires. Returns 0 on success, 1 on deadline. The command runs in the
# calling shell, so predicate functions may set globals or exit the script
# outright (e.g. on a "process died" condition that makes further polling
# pointless).
poll_until() {
    local deadline=$1
    shift
    local start now interval=0.05
    start=$(_poll_now)
    while true; do
        if "$@"; then
            return 0
        fi
        now=$(_poll_now)
        if awk -v n="$now" -v s="$start" -v d="$deadline" \
            'BEGIN { exit !(n - s >= d) }'; then
            return 1
        fi
        sleep "$interval"
        interval=$(awk -v i="$interval" 'BEGIN { n = i * 2; if (n > 1) n = 1; print n }')
    done
}

# _poll_now prints the wall clock in (possibly fractional) seconds. GNU date
# supports %N; fall back to whole seconds where it does not.
_poll_now() {
    local t
    t=$(date +%s.%N)
    case "$t" in
    *N*) date +%s ;;
    *) printf '%s\n' "$t" ;;
    esac
}
