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
//   - one Engine whose worker count (New's workers) sets how a round
//     executes: inline on the caller's goroutine at workers ≤ 1, or on a
//     persistent team of k goroutines that runs both the per-node state
//     machines and message delivery, sharded by node. Every worker count is
//     byte-deterministic with every other (identical message orders,
//     colorings and Metrics);
//   - a preallocated, edge-sliced message plane over unboxed messages: every
//     directed edge owns a fixed slot (graph.EdgeIndex), a node addresses
//     its i-th neighbor by that slot (Context.SendToNeighbor, Broadcast),
//     inbox buffers are reused across rounds, inboxes arrive sorted by
//     sender by construction, and a message's payload is a plain uint64 word
//     (see Message), so a warmed-up simulation executes rounds without
//     touching the allocator at all — including the payloads;
//   - bandwidth accounting against the model's fixed bound: every message is
//     one O(log n)-bit word, and an edge that carries more than one message
//     in a round is counted in Metrics.BandwidthViolations (the messages are
//     still delivered, so a protocol bug is observable rather than masked).
//
// The engine runs a protocol for a fixed number of rounds (RunRounds); the
// protocol's own phase loop decides when it is done.
package congest

import "d2color/internal/graph"

// Kind is a small per-protocol message tag. Kinds are local to the protocol
// running on a network: two different protocols may reuse the same values.
// The tag models the constant number of message types a CONGEST protocol
// distinguishes (its O(1) bits ride along with the payload word).
type Kind uint8

// Message is a single CONGEST message: one O(log n)-bit word. Kind says
// which of the protocol's message types this is, and Word carries the
// content, encoded by the protocol's codec (see each protocol's
// encode/decode helpers).
//
// The struct is deliberately flat — no interfaces, no pointers, 16 bytes —
// so that the message plane's per-edge slots hold messages inline and a
// warmed-up round never boxes a payload onto the heap.
type Message struct {
	From graph.NodeID
	Kind Kind
	Word uint64
}
