package congest

import (
	"slices"
	"sync"

	"d2color/internal/graph"
)

// plane is the preallocated, edge-sliced message plane at the heart of the
// engine. Every directed edge of the topology owns a fixed slot (see
// graph.EdgeIndex); a slot holds the messages sent over that edge in the
// current round.
//
// The storage is two-tier. The first message of a slot's round lives inline
// in a flat []Message — one 24-byte record per slot, no per-slot slice
// header, no per-slot heap object. Every protocol in this repository sends
// at most one message per directed edge per round, so the overflow tier
// (per-slot []Message buckets for the second and later messages) is
// allocated lazily on the first double-send of the plane's lifetime; a
// protocol that never double-sends never pays its 24 bytes per slot of
// headers. At n = 10⁷ / avg degree 8 the inline tier is what bounds the
// plane: ~0.5 GB instead of the ~1 GB the bucket-per-slot layout cost.
//
// Freshness is tracked with a per-slot generation stamp instead of clearing:
// advancing the generation at the end of a round logically empties every
// slot in O(1). A slot's count is reset lazily on its first write of a
// round.
//
// Ownership discipline: only the tail node of a directed edge writes its
// slot, and writes happen strictly before reads of the same round (the
// worker team places a barrier between the compute and delivery phases).
// That makes the plane data-race free under any worker count without any
// locking; the overflow tier's one-time allocation goes through a sync.Once
// so concurrent first double-sends from different workers stay safe.
type plane struct {
	ix    *graph.EdgeIndex
	first []Message // inline tier: the first message written to each slot this round
	cnt   []int32   // messages written to the slot this round (valid when gen matches)
	gen   []uint32  // generation that last wrote each slot
	cur   uint32    // generation of the round being filled

	extra     [][]Message // overflow tier; nil until the first double-send
	extraOnce sync.Once
}

// rebind sizes the plane for ix's slots, growing the inline tier (and an
// already allocated overflow tier) only past every earlier size, and
// restarts the generation stamps so no slot reads as fresh.
func (p *plane) rebind(ix *graph.EdgeIndex) {
	n := ix.NumSlots()
	p.ix = ix
	p.first = slices.Grow(p.first[:0], n)[:n]
	p.cnt = slices.Grow(p.cnt[:0], n)[:n]
	p.gen = slices.Grow(p.gen[:0], n)[:n]
	clear(p.gen)
	p.cur = 1
	if p.extra != nil && len(p.extra) < n {
		p.extra = append(p.extra, make([][]Message, n-len(p.extra))...)
	}
}

// put appends m to slot e. Must only be called by the node owning the
// out-slot (the edge's tail).
func (p *plane) put(e int32, m Message) {
	if p.gen[e] != p.cur {
		p.gen[e] = p.cur
		p.cnt[e] = 1
		p.first[e] = m
		return
	}
	p.extraOnce.Do(p.growExtra)
	if p.cnt[e] == 1 {
		p.extra[e] = p.extra[e][:0] // first overflow write of the round truncates lazily
	}
	p.extra[e] = append(p.extra[e], m)
	p.cnt[e]++
}

// growExtra allocates the overflow tier's headers (once per plane lifetime;
// bucket capacities then persist across rounds like the old layout's did,
// and rebind extends the headers when a larger topology arrives).
func (p *plane) growExtra() {
	p.extra = make([][]Message, len(p.first))
}

// appendFresh appends the messages written into slot e this round to dst in
// send order and returns the extended slice plus their total accounted word
// count; words is 0 iff the slot was not written this round.
func (p *plane) appendFresh(e int32, dst []Message) (out []Message, words int) {
	if p.gen[e] != p.cur {
		return dst, 0
	}
	m := p.first[e]
	dst = append(dst, m)
	words = m.words()
	if k := p.cnt[e]; k > 1 {
		for _, om := range p.extra[e][:k-1] {
			dst = append(dst, om)
			words += om.words()
		}
	}
	return dst, words
}

// advance starts the next round's generation, logically clearing every slot.
func (p *plane) advance() {
	p.cur++
	if p.cur == 0 {
		// uint32 wraparound (once every 2³² rounds): wipe the stamps so a
		// slot last written 2³² rounds ago cannot alias as fresh.
		clear(p.gen)
		p.cur = 1
	}
}
