#!/bin/sh
# Standard verify entry point, the one copy of the gate: `make check`
# runs this script, and `make <stage>` runs `scripts/check.sh <stage>`.
# With no arguments every stage runs in order; with arguments only the
# named stages do. Run from the repository root.
set -eu

# gofmt is a failing gate: any unformatted file lists here and aborts.
stage_fmtcheck() {
  unformatted=$(gofmt -l .)
  [ -z "$unformatted" ] || { echo "gofmt needed: $unformatted" >&2; exit 1; }
}

stage_vet() { go vet ./...; }
stage_build() { go build ./...; }
stage_test() { go test ./...; }

# The whole module must stay race-clean: the partitioned worker pools
# drive exec replicas concurrently, and everything else rides along.
stage_race() { go test -race ./...; }

# Multi-producer ingestion stress, repeated under the race detector: one
# pass rarely covers the interleavings of concurrent SendBatch producers,
# a wire ingester, and Stats/Checkpoint barriers, against both the plain
# shard's mailbox and the partitioned front.
stage_racestress() { go test -race -run TestParallelIngestStress -count 5 ./engine/; }

# Warm-standby failover chaos soak under the race detector: repeated
# kill -> promote -> re-seed cycles over one continuous stream, requiring
# an element-exact delivery stream and one epoch bump per promotion.
# SOAKFAILOVER_CYCLES raises the round count.
stage_soakfailover() {
  SOAKFAILOVER_CYCLES=${SOAKFAILOVER_CYCLES:-5} \
    go test -race -run 'TestFailoverSoak|TestStandbyFailoverChaos' -count 1 ./server/
}

# Fuzz targets over their checked-in seed corpus: wire-format framing
# (truncated frames, oversized lengths, unknown streams), the serving
# handshake front door (bad magic, bad role, absurd name lengths), the
# MJS2 decoder's reserved cold-segment fields (a snapshot with frozen rows
# from the removed two-tier state, torn and garbled), the
# join-state and punctuation-store models (operation strings
# replayed against a plain map, pools checked against their rules), the
# two-word value model (pairs of values held to a three-field reference)
# and the shape-and-constants punctuation (held to the one-pattern-per-
# column form it replaced). `go test -fuzz` explores further; the seed set
# is the gate.
stage_fuzzseed() { go test -run Fuzz ./stream/... ./engine/... ./server/... ./exec/...; }

# Checkpoint round-trip smoke: run a sharded workload writing periodic
# snapshots, then restore from the final snapshot and resume (a no-op
# resume at end-of-feed still exercises open -> parse -> install -> run).
stage_ckptsmoke() {
  ckpt=$(mktemp -u)
  go run ./cmd/punctrun -scenario auction -n 300 -parallel \
    -checkpoint "$ckpt" -checkpoint-every 500 > /dev/null
  go run ./cmd/punctrun -scenario auction -n 300 -parallel \
    -checkpoint "$ckpt" -restore | grep '^restore: resuming' > /dev/null
  rm -f "$ckpt"
}

stage_allocfloors() {
  # Allocation floors for the hot path (testing.AllocsPerRun guards): the
  # steady-state probe must stay ~alloc-free, also into a state that has
  # compacted, a chained-purge cycle within its scratch budget with and
  # without §5.1 punctuation purging, and a warmed ordered-bound
  # (heartbeat) purge round at zero; a batch through a warmed tree
  # allocates only its result tuples, 16 bytes per column (a value is two
  # words, which the layout test pins), and a tree that lends its results
  # allocates not even those.
  # An emitted punctuation shares the stored one's constants and costs
  # nothing; a decoded one costs one allocation, 16 bytes per constant.
  # Store entries and index buckets come from what purges freed, and those
  # pools hold nothing and never outgrow the state's high-water mark. The
  # partitioned gate allocates one key per new punctuation identity, its
  # text appended into a kept buffer. The join state copies what it stores
  # into value pages it keeps, and the page slots past its last row are
  # zero. WireReader.Read, whose elements are the caller's, keeps its
  # per-frame bound; wire ingest decodes into one buffer it reuses and the
  # mailbox copies the values in, so a warmed string-free tuple frame
  # allocates 0 and a punctuation frame 1. The lending decoder's string
  # table shares a string it holds, 0 allocations, and allocates one it
  # does not hold or one over its length cap.
  go test -run 'TestValueLayout|TestPunctuationAppendTo|TestDecodePunctAllocs|TestStringTable' -count 1 ./stream/
  go test -run 'TestSteadyStateProbeAllocs|TestProbeAfterCompactionAllocs|TestChainedPurgeAllocs|TestPunctStorePurgeAllocs|TestOrderedPurgeRoundAllocs|TestPushBatchAllocFloor|TestResultBytesFloor|TestRecycledStateHoldsNothing|TestAlignmentGateAllocs' -count 1 ./exec/...
  go test -run 'TestWireReaderReadAllocs|TestIngestWireAllocFloor' -count 1 ./engine/...
  # Producer-side floor: Send, SendAt and SendBatch of any length copy the
  # run straight into each subscribed shard's mailbox, 0 allocations once
  # its buffers have reached their high-water mark; so is a run scattered
  # over two partitions by the partitioned front, in recycled buffers.
  go test -run 'TestRouteSingleElementAllocs|TestPartitionFrontAllocFloor' -count 1 ./engine/
  # Shared-tree fan-out alloc floor: delivering one output batch to extra
  # subscribers (callback or passive) must not allocate per subscriber —
  # sharing is O(subscribers) pointer work, never O(subscribers) copies;
  # the passive log's one copy of each result tuple is all it allocates.
  # Every tree lends its result tuples, to a hook or an OnResult callback,
  # and so does every partition worker through a real partition front: 0
  # allocations per result once warmed.
  go test -run 'TestFanOutDeliveryAllocs|TestHookDeliveryAllocFloor|TestPartitionedDeliveryAllocFloor' -count 1 ./engine/
  # Output-ring floor: retaining one more delivery is one encoding into the
  # bytes its slot already holds, 0 allocations. Client floor: a warmed
  # subscriber lends what it decodes, each result tuple in one value buffer
  # and each punctuation's constants in one pattern buffer, and shares a
  # string its table holds: a tuple costs one allocation per string its
  # table has not seen (0 with repeated strings or none), a punctuation 0.
  go test -run 'TestHubPublishAllocs|TestSubscriberNextAllocs' -count 1 ./server/
}

# Code budget: no package's non-test Go may hold more non-blank lines
# than scripts/linebudget.txt allows. A change that grows a package raises
# its line there and says why in CHANGES.md.
stage_linebudget() { go run ./scripts/linebudget; }

# The benchmark module (its own go.mod) and its end-to-end correctness
# run: all four workloads, oracle-checked, a few seconds.
stage_benchsmoke() {
  (cd bench && go vet ./... && go test ./...)
  bash bench/run.sh --smoke
}

[ $# -gt 0 ] || set -- fmtcheck vet build test race racestress soakfailover \
  fuzzseed ckptsmoke allocfloors benchsmoke linebudget
for stage; do
  type "stage_$stage" > /dev/null 2>&1 || { echo "check.sh: unknown stage '$stage'" >&2; exit 2; }
  (set -x; "stage_$stage")
done
