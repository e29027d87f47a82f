package serve

import (
	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// hashBlock is the number of nodes per block digest of HashColors. A churn
// epoch that changes k nodes rehashes at most k blocks of this many colors
// and refolds the ⌈n/hashBlock⌉ digests.
const hashBlock = 256

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64⁷ mod 2⁶⁴: byte 1's multiply and the six rounds over a
	// color's zero high bytes (each xor a no-op), folded into one.
	fnvPrime64Pow7 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

// HashColors is the served coloring hash: FNV-64a over the 8-byte
// little-endian digests of consecutive 256-node blocks (the last one may be
// shorter), where a block's digest is FNV-64a over its colors as 8-byte
// little-endian words. An empty coloring hashes to the FNV-64a offset basis.
// Two colorings hash equal iff they are byte-identical (modulo hash
// collisions). It is not the registry golden's flat FNV-64a over the whole
// coloring: the block form lets a session rehash only the blocks a churn
// epoch changed (see blockDigests).
func HashColors(c coloring.Coloring) uint64 {
	var d blockDigests
	return d.full(c)
}

// fnvWord folds the 8-byte little-endian word w into the FNV-64a state h.
func fnvWord(h, w uint64) uint64 {
	for b := 0; b < 8; b++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// block returns the colors of c's i-th hash block.
func block(c coloring.Coloring, i int) []int {
	lo := i * hashBlock
	return c[lo:min(lo+hashBlock, len(c))]
}

// blockDigest is FNV-64a over c's colors as 8-byte little-endian words.
func blockDigest(c []int) uint64 {
	h := uint64(fnvOffset64)
	for _, col := range c {
		w := uint64(col)
		if w < 1<<16 { // colors in [0, 2¹⁶): only the two low bytes are nonzero
			h = ((h^w&0xff)*fnvPrime64 ^ w>>8) * fnvPrime64Pow7
			continue
		}
		h = fnvWord(h, w)
	}
	return h
}

// blockDigests keeps the block digests of one coloring, so that a change to
// a few nodes costs their blocks plus a fold of the digests instead of a
// pass over every color.
type blockDigests []uint64

// full recomputes every block digest of c and returns HashColors(c).
func (d *blockDigests) full(c coloring.Coloring) uint64 {
	nb := (len(c) + hashBlock - 1) / hashBlock
	if cap(*d) < nb {
		*d = make(blockDigests, nb)
	}
	*d = (*d)[:nb]
	for i := range *d {
		(*d)[i] = blockDigest(block(c, i))
	}
	return d.fold()
}

// update rehashes the blocks of c that hold the changed nodes and returns
// HashColors(c). It is exact only when the digests described c before the
// change and changed names every node whose color changed since.
func (d blockDigests) update(c coloring.Coloring, changed []graph.NodeID) uint64 {
	last := -1
	for _, v := range changed {
		i := int(v) / hashBlock
		if i == last {
			continue // an ascending list rehashes each block once
		}
		last = i
		d[i] = blockDigest(block(c, i))
	}
	return d.fold()
}

func (d blockDigests) fold() uint64 {
	h := uint64(fnvOffset64)
	for _, x := range d {
		h = fnvWord(h, x)
	}
	return h
}
