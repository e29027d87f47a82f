// Package congest implements a simulator for the synchronous CONGEST model
// of distributed computing (Peleg 2000), the model the paper's algorithms are
// designed for.
//
// The network topology is an undirected graph. Computation proceeds in
// synchronous rounds; in every round each node performs arbitrary local
// computation and sends one message of O(log n) bits to each of its
// neighbors. Messages sent in round r are delivered at the start of round
// r+1.
//
// The simulator offers:
//
//   - one Engine whose Config.Workers sets how a round executes: inline on
//     the caller's goroutine at Workers ≤ 1, or on a persistent team of k
//     goroutines that runs both the per-node state machines and message
//     delivery, sharded by node. Every worker count is byte-deterministic
//     with every other (identical message orders, colorings and Metrics);
//   - a preallocated, edge-sliced message plane over unboxed messages: every
//     directed edge owns a fixed slot (graph.EdgeIndex), outbox buckets and
//     inbox buffers are reused across rounds, inboxes arrive sorted by sender
//     by construction, and a message's payload is a plain uint64 word (see
//     Message), so a warmed-up simulation executes rounds without touching
//     the allocator at all — including the payloads;
//   - bandwidth accounting: every message declares its size in O(log n)-bit
//     words, and the simulator records the maximum per-edge per-round load
//     and any violations of a configured bandwidth limit;
//   - round charging: the paper frequently pipelines fixed-length
//     sub-protocols whose internal scheduling does not affect the outcome;
//     ChargeRounds lets an algorithm account for those rounds without
//     simulating each bit (every use in this repository cites the paper's
//     cost statement).
package congest

import (
	"fmt"

	"d2color/internal/graph"
)

// Kind is a small per-protocol message tag. Kinds are local to the protocol
// running on a network: two different protocols may reuse the same values.
// The tag models the constant number of message types a CONGEST protocol
// distinguishes (its O(1) bits ride along with the payload word and are
// charged inside the message's declared word count).
type Kind uint8

// Message is a single CONGEST message. The payload is a fixed-width word:
// Kind says which of the protocol's message types this is, and Word carries
// the O(log n)-bit content, encoded by the protocol's codec (see codec.go
// and each protocol's encode/decode helpers). Words declares the size in
// O(log n)-bit words for bandwidth accounting; 0 is treated as 1.
//
// The struct is deliberately flat — no interfaces, no pointers — so that the
// message plane's per-edge buckets hold messages inline and a warmed-up
// round never boxes a payload onto the heap.
type Message struct {
	From  graph.NodeID
	To    graph.NodeID
	Kind  Kind
	Words uint16
	Word  uint64
}

// words returns the accounted size of the message.
func (m Message) words() int {
	if m.Words == 0 {
		return 1
	}
	return int(m.Words)
}

// String formats the message for diagnostics.
func (m Message) String() string {
	return fmt.Sprintf("msg %d→%d kind=%d (%d words): %#x", m.From, m.To, m.Kind, m.words(), m.Word)
}
