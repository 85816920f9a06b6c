#!/usr/bin/env bash
# netsmoke: loopback end-to-end smoke for the networked broadcast layer.
#
# Starts tnnserve on an ephemeral loopback port, runs tnnquery -connect
# for all four algorithms against the live service, runs the identical
# workload in-process, and requires the ANSWER lines (object pair +
# transitive distance) to be byte-identical. It does so twice: for a
# two-channel server and for a -single one, which multiplexes both
# datasets on one physical channel. Answers are a pure function
# of the datasets, so any divergence is a transport bug, not timing.
# Timing metrics are deliberately NOT diffed here — they depend on the
# issue slot's cycle phase, and their bit-exactness (same issue slot on
# both sides) is asserted by the differential suite in internal/netfeed.
#
# The wire report line is also checked: the connection must end healthy
# and must have read at least one frame off the socket.
#
# Usage: scripts/netsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workload=(-s 500 -r 500 -data 64 -seed 1)
bin=$(mktemp -d)
logs=$(mktemp -d)
srvpid=""
cleanup() {
  [ -n "$srvpid" ] && kill "$srvpid" 2>/dev/null || true
  rm -rf "$bin" "$logs"
}
trap cleanup EXIT

go build -o "$bin/tnnserve" ./cmd/tnnserve
go build -o "$bin/tnnquery" ./cmd/tnnquery

"$bin/tnnquery" -algo all "${workload[@]}" >"$logs/local.out"

# The answer lines: "<algo> s=... r=... dist=... [exact]".
answers() { grep -E '^(window|double|hybrid|approx) +s=' "$1"; }

# serve NAME [FLAG...] starts tnnserve with the extra flags, queries it
# with every algorithm, requires the in-process answers, a healthy end
# (tnnquery exits non-zero otherwise) and at least one frame read, and
# stops the server.
serve() {
  local name=$1
  shift
  # Ephemeral port: tnnserve prints the bound address on its first line.
  "$bin/tnnserve" -addr 127.0.0.1:0 "${workload[@]}" -slot 500us "$@" >"$logs/$name.serve" &
  srvpid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^tnnserve: broadcasting on \([^ ]*\) .*/\1/p' "$logs/$name.serve")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "netsmoke: $name tnnserve did not come up" >&2
    cat "$logs/$name.serve" >&2
    exit 1
  fi
  echo "netsmoke: $name tnnserve on $addr"

  "$bin/tnnquery" -algo all -connect "$addr" >"$logs/$name.out"
  if ! diff <(answers "$logs/local.out") <(answers "$logs/$name.out"); then
    echo "netsmoke: $name live-wire answers diverge from the in-process run" >&2
    exit 1
  fi

  local wire frames
  wire=$(grep '^wire:' "$logs/$name.out")
  frames=$(echo "$wire" | sed -n 's/^wire: \([0-9]*\) frames.*/\1/p')
  if [ -z "$frames" ] || [ "$frames" -eq 0 ]; then
    echo "netsmoke: $name: no frames read off the wire: $wire" >&2
    exit 1
  fi
  kill "$srvpid"
  wait "$srvpid" 2>/dev/null || true
  srvpid=""
  echo "netsmoke: $name OK — $wire"
}

serve two-channel
serve single -single
