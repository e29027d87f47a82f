package fault

import (
	"sync/atomic"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

// The engine-side fault models. congest.FaultModel demands pure functions of
// (round, slot) and (round, node) — a multi-worker engine calls them from
// many workers and its byte-identity-with-inline guarantee relies on the
// answer not depending on evaluation order. Both plans therefore decide by
// rehashing a stack-allocated SplitMix64 stream per query instead of
// advancing shared state; the only mutation is an atomic loss counter, which
// observes decisions without influencing them.

// Domain-separation salts so a DropPlan and a CrashPlan sharing a seed do
// not correlate.
const (
	dropSalt  = 0xD20B_0001
	crashSalt = 0xD20B_0002
)

// hashBernoulli is a pure coin: true with probability p, as a function of
// (seed, key) only.
func hashBernoulli(seed, key uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	var s rng.Source
	s.ResetSplit(seed, key)
	return s.Float64() < p
}

// DropPlan drops each delivered message independently with probability P
// during rounds [FromRound, ToRound) — ToRound <= 0 means "forever". The
// decision is a pure hash of (Seed, round, slot), so a given message's fate
// is fixed regardless of engine, worker count, or delivery order.
type DropPlan struct {
	Seed      uint64
	P         float64
	FromRound int // first lossy round (0-based)
	ToRound   int // first reliable round again; <= 0 means no end

	drops atomic.Int64
}

// DropMessage implements congest.FaultModel.
func (d *DropPlan) DropMessage(round int, slot int32) bool {
	if round < d.FromRound || (d.ToRound > 0 && round >= d.ToRound) {
		return false
	}
	if !hashBernoulli(d.Seed^dropSalt, uint64(round)<<32|uint64(uint32(slot)), d.P) {
		return false
	}
	d.drops.Add(1)
	return true
}

// Crashed implements congest.FaultModel; a pure drop plan crashes nobody.
func (d *DropPlan) Crashed(round int, v graph.NodeID) bool { return false }

// Drops returns how many messages the engine actually discarded so far (the
// engine only consults the plan for slots carrying a fresh message).
func (d *DropPlan) Drops() int64 { return d.drops.Load() }

// ResetCounters zeroes the loss counter, e.g. between runs sharing a plan.
func (d *DropPlan) ResetCounters() { d.drops.Store(0) }

// CrashPlan crashes each node independently with probability P for the
// round window [FromRound, FromRound+Downtime) and restarts it afterwards
// with its state intact (crash-restart, not crash-stop). Downtime <= 0
// disables the plan. Which nodes crash is a pure hash of (Seed, node).
type CrashPlan struct {
	Seed      uint64
	P         float64
	FromRound int
	Downtime  int
}

// DropMessage implements congest.FaultModel; a pure crash plan drops nothing.
func (c *CrashPlan) DropMessage(round int, slot int32) bool { return false }

// Crashed implements congest.FaultModel.
func (c *CrashPlan) Crashed(round int, v graph.NodeID) bool {
	if round < c.FromRound || round >= c.FromRound+c.Downtime {
		return false
	}
	return hashBernoulli(c.Seed^crashSalt, uint64(v), c.P)
}

// Selected reports whether v is one of the nodes this plan crashes during
// its window — useful for asserting which nodes were frozen.
func (c *CrashPlan) Selected(v graph.NodeID) bool {
	if c.Downtime <= 0 {
		return false
	}
	return hashBernoulli(c.Seed^crashSalt, uint64(v), c.P)
}

// Plan composes an optional DropPlan and an optional CrashPlan into one
// congest.FaultModel. Either field may be nil.
type Plan struct {
	Drop  *DropPlan
	Crash *CrashPlan
}

// DropMessage implements congest.FaultModel.
func (p Plan) DropMessage(round int, slot int32) bool {
	return p.Drop != nil && p.Drop.DropMessage(round, slot)
}

// Crashed implements congest.FaultModel.
func (p Plan) Crashed(round int, v graph.NodeID) bool {
	return p.Crash != nil && p.Crash.Crashed(round, v)
}
