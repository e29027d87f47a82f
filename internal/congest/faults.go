package congest

import "d2color/internal/graph"

// This file is the engine side of the robustness plane: partial activation
// (only a masked subset of nodes runs — how the repair kernel confines a
// recoloring to a dirty distance-2 ball) and fault injection (message drops
// and transient node crashes, decided by a pluggable FaultModel).
//
// Both features are strictly opt-in overlays on the round loop: with a nil
// mask and a nil fault model the engine takes the exact code paths it took
// before, so the byte-determinism goldens of the all-active case are
// untouched. Reset clears both — a reset engine is byte-identical to a
// freshly constructed one, which is the contract the warm-reuse machinery
// depends on.

// FaultModel injects faults into an engine's round loop. Implementations
// must be deterministic pure functions of their own configuration and the
// (round, slot/node) arguments — the engine may evaluate them from multiple
// workers concurrently and in any order, so any internal counters must be
// atomic and must not influence results.
//
// Concrete models live in internal/fault; the interface is defined here so
// the engine does not depend on the injector package.
type FaultModel interface {
	// DropMessage reports whether the message in directed-edge out-slot slot
	// is lost during round's delivery phase. It is consulted once per slot
	// that actually carries a message this round, so implementations may
	// count invocations to report exact loss totals.
	DropMessage(round int, slot int32) bool
	// Crashed reports whether node v is down in round: a crashed node does
	// not step and its incoming messages for the round are lost. A node
	// whose crash window ends resumes from its retained process state
	// (crash-restart, not crash-stop).
	Crashed(round int, v graph.NodeID) bool
}

// SetActive installs a partial-activation mask: nodes with mask[v] false are
// frozen — they do not step, and their incoming messages are discarded. A nil
// mask (the default) activates every node. The mask must have length
// NumNodes; the engine keeps a reference, so the caller must not mutate it
// while rounds run. Reset clears the mask.
//
// Frozen nodes never halt, so Run would spin against AllHalted; partial
// activation is therefore a RunRounds-driven mode — AllHalted and Run ignore
// inactive nodes, matching "the frozen part of the network is not the
// protocol's problem".
func (e *Engine) SetActive(mask []bool) {
	if mask != nil && len(mask) != e.g.NumNodes() {
		panic("congest: activation mask length does not match node count")
	}
	e.active = mask
}

// SetFaults installs a fault model for subsequent rounds (nil disables
// injection). Reset clears it.
func (e *Engine) SetFaults(f FaultModel) { e.faults = f }

// SetCancel installs a cooperative cancellation hook, polled by RunRounds
// (and Run) between rounds: the first poll that returns true stops the loop
// before the next round starts, so a canceled run ends within O(one round)
// regardless of how many rounds were requested. The hook is never consulted
// mid-round — a round either runs to completion or not at all — which keeps
// the per-round state machine (message plane epoch, inbox buffers, metrics)
// consistent at every stopping point. Reset clears the hook along with the
// activation mask and fault model, so warm reuse after a cancel is
// byte-identical to a fresh engine. A nil hook (the default) disables
// polling entirely; the hot path pays one nil check per round.
func (e *Engine) SetCancel(f func() bool) { e.cancel = f }

// skipped reports whether node v sits out the current round — masked
// inactive or inside a crash window. Used by both the compute and delivery
// phases, which run within the same round, so the two observe the same
// answer.
func (e *Engine) skipped(v int) bool {
	if e.active != nil && !e.active[v] {
		return true
	}
	return e.faults != nil && e.faults.Crashed(e.round, graph.NodeID(v))
}
