package congest

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"d2color/internal/graph"
)

// This file holds the multi-worker machinery of the engine (workers > 1): the
// edge-balanced shard plan, the padded per-worker state, and the worker team
// with its epoch gate and single per-round barrier. See DESIGN.md §10.

// Shard plan tuning constants.
const (
	// shardChunksPerWorker subdivides each worker's owned range so the
	// work-stealing tail has chunks to migrate when the degree distribution
	// is skewed; with a perfectly balanced plan the extra cursors cost a few
	// atomic adds per round and nothing else.
	shardChunksPerWorker = 8
	// shardMinChunkWeight floors the weight (edge slots + nodes) of one
	// chunk, so tiny graphs do not shatter into chunks whose claim overhead
	// exceeds their work.
	shardMinChunkWeight = 2048
)

// shardPlan is the ownership map of a multi-worker engine, computed once per
// topology from the CSR offsets and shared by the compute and delivery
// phases. The node range is cut into edge-balanced chunks — boundaries
// chosen so every chunk carries roughly the same weight, where the weight of
// node u is its directed slot count plus one (slots dominate the cost of
// both stepping and delivering a node; the +1 keeps zero-edge graphs
// balanced by node count) — and each worker owns a contiguous run of chunks,
// hence a contiguous node range: compute writes (contexts, the plane's out-slots) and
// delivery writes (inboxes) stay partition-local.
type shardPlan struct {
	workers int
	// chunkLo has nChunks+1 entries; chunk c covers nodes
	// [chunkLo[c], chunkLo[c+1]). A chunk may be empty when a single node
	// outweighs the chunk target (a hub in a star-heavy topology).
	chunkLo []int32
	// firstChunk has workers+1 entries; worker w owns chunks
	// [firstChunk[w], firstChunk[w+1]).
	firstChunk []int32
}

// buildShardPlan cuts n nodes into edge-balanced chunks grouped into one
// contiguous owned run per worker. The cumulative weight of the first u
// nodes is Offsets[u] + u, strictly increasing, so boundary b_c for target
// weight total·c/nChunks is found by binary search; equal chunk counts per
// worker then give equal worker weights up to one chunk. The plan is written
// into reuse's slices when they are large enough.
func buildShardPlan(ix *graph.EdgeIndex, n, workers int, reuse shardPlan) shardPlan {
	total := int(ix.Offsets[n]) + n // slots + nodes
	nChunks := workers * shardChunksPerWorker
	if most := total / shardMinChunkWeight; nChunks > most {
		nChunks = most
	}
	if nChunks > n {
		nChunks = n
	}
	if nChunks < workers {
		nChunks = workers
	}
	plan := shardPlan{
		workers:    workers,
		chunkLo:    slices.Grow(reuse.chunkLo[:0], nChunks+1)[:nChunks+1],
		firstChunk: slices.Grow(reuse.firstChunk[:0], workers+1)[:workers+1],
	}
	weight := func(u int) int { return int(ix.Offsets[u]) + u }
	for c := 1; c < nChunks; c++ {
		target := total * c / nChunks
		// Smallest u with weight(u) >= target; boundaries are monotone
		// because the targets are.
		plan.chunkLo[c] = int32(sort.Search(n, func(u int) bool { return weight(u) >= target }))
	}
	plan.chunkLo[nChunks] = int32(n)
	for w := 0; w <= workers; w++ {
		plan.firstChunk[w] = int32(w * nChunks / workers)
	}
	return plan
}

// shardWorker is the per-worker round state: the two phase cursors the
// work-stealing walk claims chunks through, and the worker's delivery
// metrics. The trailing pad keeps adjacent workers on separate cache lines —
// the cursors are hammered by atomics and the metrics by delivery-phase
// stores, and false sharing here is exactly the kind of silent multicore
// regression this engine exists to avoid.
type shardWorker struct {
	computeNext atomic.Int32
	deliverNext atomic.Int32
	metrics     Metrics
	_           [56]byte // pad past one 64-byte line (8B cursors + 64B Metrics + 56B = 128)
}

// shardTeam is the persistent worker pool: workers-1 long-lived goroutines
// (the engine's calling goroutine acts as rank 0) parked on an epoch gate.
// step publishes a round by bumping the epoch; every rank runs the fused
// compute+deliver pipeline — compute its chunks, cross the one barrier (the
// plane is frozen from here), deliver its chunks — and the spawned ranks
// mark the round done on the WaitGroup the publisher drains. Per round that
// is one broadcast wake, one barrier crossing and one wait, against the two
// full spawn+join cycles of the per-round-goroutine design it replaces.
type shardTeam struct {
	e *Engine

	mu      sync.Mutex
	cond    sync.Cond
	epoch   uint64 // guarded by mu
	closed  bool   // guarded by mu
	started bool   // guarded by mu; goroutines spawn on first publish

	barrier phaseBarrier   // compute → deliver crossing, all ranks
	done    sync.WaitGroup // round completion of ranks 1..workers-1
}

func newShardTeam(e *Engine) *shardTeam {
	t := &shardTeam{e: e}
	t.cond.L = &t.mu
	t.barrier.cond.L = &t.barrier.mu
	t.barrier.parties = e.plan.workers
	return t
}

// publish wakes the team for one round (spawning it on first use) and runs
// rank 0's share on the calling goroutine; it returns once every rank has
// finished delivery. The caller must reset the per-worker cursors first.
func (t *shardTeam) publish() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		panic("congest: round stepped on a closed engine")
	}
	if !t.started {
		t.started = true
		for w := 1; w < t.e.plan.workers; w++ {
			go t.workerLoop(w)
		}
	}
	t.done.Add(t.e.plan.workers - 1)
	t.epoch++
	t.cond.Broadcast()
	t.mu.Unlock()

	t.e.computePhase(0)
	t.barrier.await()
	t.e.deliverPhase(0)
	t.done.Wait()
}

// workerLoop is one spawned rank: wait for a new epoch, run the fused round,
// repeat until closed. A close that races with a published round still runs
// that round to completion first, so publish never hangs on a dying team.
func (t *shardTeam) workerLoop(w int) {
	var seen uint64
	for {
		t.mu.Lock()
		for t.epoch == seen && !t.closed {
			t.cond.Wait()
		}
		if t.epoch == seen { // closed, no round pending
			t.mu.Unlock()
			return
		}
		seen = t.epoch
		t.mu.Unlock()

		t.e.computePhase(w)
		t.barrier.await()
		t.e.deliverPhase(w)
		t.done.Done()
	}
}

// stop parks the team permanently. Idempotent and finalizer-free: the
// spawned ranks drain any round already published, then exit.
func (t *shardTeam) stop() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// phaseBarrier is a reusable generation barrier: the parties-th arrival of a
// generation releases the rest and opens the next one. It allocates nothing
// per crossing, so a warmed-up multi-worker round stays at 0 allocs/op.
type phaseBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	gen     uint64
}

func (b *phaseBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
