package ext

import "swex/internal/mem"

// hashTable maps blocks to extended directory entries with chaining. The
// flexible coherence interface administers a table like this one for every
// protocol; the hand-tuned assembly version sidesteps it by exploiting the
// format of Alewife's hardware directory for direct lookup, which is where
// much of its factor-of-two advantage comes from (Table 2: 80 and 74
// cycles of hash-table administration against N/A).
type hashTable struct {
	buckets []*entry
	n       int
}

func newHashTable(buckets int) *hashTable {
	if buckets <= 0 {
		buckets = 64
	}
	return &hashTable{buckets: make([]*entry, buckets)}
}

// reset empties the table, keeping its bucket array. The chained entries
// are dropped, not recycled. A table holding no entries has only nil
// buckets, so it needs no clearing.
func (h *hashTable) reset() {
	if h.n > 0 {
		clear(h.buckets)
		h.n = 0
	}
}

func (h *hashTable) bucket(b mem.Block) int {
	// Multiplicative hash; blocks are sequential in each node's segment,
	// so a plain modulus would cluster.
	x := uint64(b) * 0x9E3779B97F4A7C15
	return int(x % uint64(len(h.buckets)))
}

// lookup finds the entry for b, reporting the chain length probed.
func (h *hashTable) lookup(b mem.Block) (*entry, int) {
	probes := 0
	for e := h.buckets[h.bucket(b)]; e != nil; e = e.next {
		probes++
		if e.block == b {
			return e, probes
		}
	}
	return nil, probes
}

// insert links a (fresh) entry for b into the table.
func (h *hashTable) insert(e *entry, b mem.Block) {
	e.block = b
	i := h.bucket(b)
	e.next = h.buckets[i]
	h.buckets[i] = e
	h.n++
}

// remove unlinks and returns the entry for b, if present, reporting the
// chain length probed as lookup does.
func (h *hashTable) remove(b mem.Block) (*entry, int) {
	probes := 0
	for link := &h.buckets[h.bucket(b)]; *link != nil; link = &(*link).next {
		probes++
		if e := *link; e.block == b {
			*link = e.next
			e.next = nil
			h.n--
			return e, probes
		}
	}
	return nil, probes
}

// Len reports the number of extended entries resident.
func (h *hashTable) Len() int { return h.n }
