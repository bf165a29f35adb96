#!/usr/bin/env bash
# chaos-smoke: deterministic end-to-end robustness check.
#
# Part 1 runs experiment E21 (the kill/restart/corrupt loop over snapshot
# save/load under injected disk faults) at a fixed seed; it panics on any
# undetected fault or wrong recovered answer, so completing is the check.
#
# Part 2 exercises the real daemon lifecycle: boot coopserve with -snapshot,
# wait for ready, serve a query batch, SIGTERM it, and assert that it exits 0
# and left the snapshot it wrote at build byte for byte untouched (its shards
# are static, so the drain writes nothing but waits for the sidecar the boot
# writes once ready); then boot a second instance against the same path and
# assert it restores by mapping that sidecar instead of rebuilding, and
# serves the same answers. A third boot, over a truncated sidecar, must
# build and serve byte-identical answers, and a fourth must map the sidecar
# that build rewrote; a boot with another -seed over the same path must
# refuse the snapshot and build.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
ADDR=${CHAOS_SMOKE_ADDR:-localhost:8123}
WORK=$(mktemp -d)
SNAP="$WORK/shards.snap"
SERVE_PID=""

cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -9 "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== chaos-smoke: E21 kill/restart/corrupt loop =="
$GO run ./cmd/coopbench -experiment=e21 -seed=1

echo
echo "== chaos-smoke: coopserve SIGTERM drain + restore =="
$GO build -o "$WORK/coopserve" ./cmd/coopserve

SERVE_FLAGS=(-addr="$ADDR" -snapshot="$SNAP" -leaves=16 -entries=800 -regions=24 -tiles=20 -shards=2 -drain-timeout=5s)

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fs "http://$ADDR/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "chaos-smoke: daemon never became ready" >&2
    return 1
}

# A fixed request id: a minted one embeds the boot, so the two boots'
# responses could never be byte-identical.
query() {
    curl -fs -H 'X-Request-ID: chaos-smoke' \
        -d '{"queries":[{"kind":"catalog","shard":0,"key":400,"leaf":3},{"kind":"point","x":11,"y":7}]}' \
        "http://$ADDR/query"
}

# First boot: builds from scratch and saves a snapshot.
"$WORK/coopserve" "${SERVE_FLAGS[@]}" >"$WORK/boot1.log" 2>&1 &
SERVE_PID=$!
wait_ready
cp "$SNAP" "$WORK/built.snap"
# A snapshot save renames a new file over the path, so the inode shows a
# rewrite even when the bytes come out the same.
BUILT_INODE=$(ls -i "$SNAP" | awk '{print $1}')
FIRST=$(query)
echo "first boot answers: $FIRST"

# SIGTERM: must drain and exit 0, leaving the build-time snapshot as it was.
kill -TERM "$SERVE_PID"
EXIT=0
wait "$SERVE_PID" || EXIT=$?
SERVE_PID=""
if [ "$EXIT" -ne 0 ]; then
    echo "chaos-smoke: coopserve exited $EXIT on SIGTERM" >&2
    cat "$WORK/boot1.log" >&2
    exit 1
fi
grep -q 'drained, exiting' "$WORK/boot1.log"
if ! cmp -s "$SNAP" "$WORK/built.snap" || [ "$(ls -i "$SNAP" | awk '{print $1}')" != "$BUILT_INODE" ]; then
    echo "chaos-smoke: the drain rewrote the build-time snapshot" >&2
    exit 1
fi

# boot N [flags...]: start a daemon logging to bootN.log and wait for ready.
boot() {
    local n=$1
    shift
    "$WORK/coopserve" "${SERVE_FLAGS[@]}" "$@" >"$WORK/boot$n.log" 2>&1 &
    SERVE_PID=$!
    wait_ready
}

# stop: SIGTERM the daemon and wait for it to exit.
stop() {
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID" || true
    SERVE_PID=""
}

# expect_log N PATTERN: boot N's log must contain PATTERN.
expect_log() {
    if ! grep -qF "$2" "$WORK/boot$1.log"; then
        echo "chaos-smoke: boot $1 did not log \"$2\":" >&2
        cat "$WORK/boot$1.log" >&2
        exit 1
    fi
}

# Second boot: must restore by mapping the sidecar (no rebuild, no decode)
# and serve the same answers the first boot did.
boot 2
expect_log 2 "restored from $SNAP, mapped"
SECOND=$(query)
echo "second boot answers: $SECOND"
if [ "$FIRST" != "$SECOND" ]; then
    echo "chaos-smoke: restored daemon served different answers" >&2
    exit 1
fi
stop

# Third boot, over a sidecar cut short: must build from the seed and serve
# byte-identical answers. The drain waits for the sidecar it rewrites.
head -c 100 "$SNAP.flat" >"$WORK/cut.flat"
mv "$WORK/cut.flat" "$SNAP.flat"
boot 3
expect_log 3 "(built)"
THIRD=$(query)
echo "third boot answers: $THIRD"
if [ "$FIRST" != "$THIRD" ]; then
    echo "chaos-smoke: the rebuild served different answers" >&2
    exit 1
fi
stop

# Fourth boot: must map the sidecar the third boot rewrote and serve the
# same answers.
boot 4
expect_log 4 "restored from $SNAP, mapped"
if [ "$FIRST" != "$(query)" ]; then
    echo "chaos-smoke: the mapped restore after the rebuild served different answers" >&2
    exit 1
fi
stop

# A boot with another -seed over the same path must refuse the snapshot
# (its header's generation names other flags) and build.
boot 5 -seed=2
expect_log 5 "(built)"
stop

echo
echo "chaos-smoke: ok"
