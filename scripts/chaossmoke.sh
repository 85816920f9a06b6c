#!/usr/bin/env bash
# chaossmoke: the connection-lifecycle resilience suite under the race
# detector.
#
# Runs the netchaos differentials — a real broadcast routed through the
# in-process fault proxy while queries are mid-flight:
#
#   - a full network partition (heartbeat death, backoff reconnect, warm
#     resume, losses accounted into the recovery protocol)
#   - a mid-cycle server restart behind the same address (drain GOODBYE
#     with the restart hint, warm resume against the new instance with
#     zero preamble bytes re-transferred)
#   - seeded datagram loss, latency spikes, and reordering (answers
#     bit-identical to the in-process twin)
#   - a black-holed dial (connect timeout bounds the handshake)
#   - a spec change across a restart (terminal desync, never a wrong
#     answer)
#
# plus the netfeed lifecycle unit tests (Close idempotency and goroutine
# leak checks, Close during a handshake and during backoff, heartbeat
# death detection, drain semantics). Everything
# runs under -race: the reconnect path is exactly where session-swap
# races would live.
#
# Usage: scripts/chaossmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "chaossmoke: netchaos differentials under -race"
go test ./internal/netchaos/ -race -timeout 600s

echo "chaossmoke: netfeed lifecycle suite under -race"
go test ./internal/netfeed/ -race -run \
  'TestConnCloseIdempotent|TestServerCloseIdempotent|TestServerClosePendingHandshake|TestGoodbyeTerminal|TestHeartbeatDetectsSilentPeer|TestCloseDuringResumeHandshake|TestCloseDuringBackoff' \
  -timeout 300s

echo "chaossmoke: OK"
