// Package cache models the processor-side memory hierarchy of an Alewife
// node: a 64 Kbyte direct-mapped cache combined for instructions and data,
// optionally backed by a small fully-associative victim cache, or built
// set-associative instead.
//
// The combined direct-mapped organization is not incidental: the paper's
// TSP case study (Section 6, Figure 3) hinges on instruction/data
// thrashing, where two memory blocks shared by every node are repeatedly
// displaced by commonly-run instructions. The paper's conclusion names the
// two remedies this package implements: "adding extra associativity to the
// processor side of the memory system, by implementing victim caches or by
// building set-associative caches" (Section 8). Alewife's own remedy is
// the victim cache built from transaction-store buffers (Jouppi-style).
package cache

import (
	"fmt"
	"math/bits"

	"swex/internal/mem"
)

// LineState is the cache-side coherence state of a line (MSI). It is a
// byte so that it packs next to Dirty: a Line is then 48 bytes, not 56.
type LineState uint8

const (
	// Invalid means the slot holds no valid line.
	Invalid LineState = iota
	// Shared is a read-only copy; the directory has a pointer to it.
	Shared
	// Exclusive is the sole writable copy; it may be dirty.
	Exclusive
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Line is one cache line: a block's identity, state, and contents.
type Line struct {
	Block mem.Block
	State LineState
	Dirty bool
	Words [mem.WordsPerBlock]uint64
}

// Config sets the cache geometry.
type Config struct {
	// Lines is the total number of cache lines. Alewife: 64 KB of
	// 16-byte lines = 4096.
	Lines int
	// Ways is the set associativity; 0 or 1 is direct-mapped. Lines
	// must be divisible by Ways.
	Ways int
	// VictimLines is the size of the fully-associative victim cache;
	// zero disables it.
	VictimLines int
}

// DefaultConfig is the Alewife geometry: direct-mapped, with the victim
// cache disabled (the paper's baseline; experiments enable the victim
// cache explicitly).
func DefaultConfig() Config {
	return Config{Lines: 4096, VictimLines: 0}
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64 // data hits in the set-associative array
	Misses     uint64 // data misses (after victim check)
	VictimHits uint64 // data hits satisfied by the victim cache
	IHits      uint64 // instruction hits
	IMisses    uint64 // instruction misses
	Evictions  uint64 // lines pushed out of the hierarchy entirely
	DirtyEvict uint64 // evictions that required a writeback
}

// Cache is one node's cache hierarchy. It is a passive structure: all
// timing and protocol interaction lives in the cache controller
// (internal/proto); this package answers "is it here, and what fell out".
type Cache struct {
	cfg    Config
	ways   int
	sets   int
	slots  []Line // st.lines: sets*ways lines; within a set, index 0 is MRU
	victim []Line // fully associative, LRU order: index 0 = most recent
	Stats  Stats
	st     *store
}

// store is a cache's line array plus a bitmap of the sets Insert has
// filled since the array was last cleared. The bitmap has one bit per line, so it covers the
// sets of any geometry with that line count.
type store struct {
	lines   []Line
	written []uint64
}

// New builds a cache. It panics on degenerate geometry: cache shape is
// fixed at machine construction.
func New(cfg Config) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// Reset returns the cache in place to what New(cfg) builds: every line
// zero, no victim lines, zero statistics, cfg's geometry. It keeps the
// line array when cfg has as many lines, and the victim array when it
// is large enough. It panics on degenerate geometry, as New does.
//
// Only the sets marked since the array was last cleared are zeroed. A
// line enters a set that holds none only through Insert's free-way fill,
// which marks the set first. Every other write lands in a set that
// already holds a line: an Insert refill or displacement, a victim-cache
// hit moved back into the set it was displaced from, and the reordering
// and zeroing done by Lookup and Invalidate. So every non-zero line lies
// in a marked set, and the cleared array equals a freshly made one.
func (c *Cache) Reset(cfg Config) {
	if cfg.Lines <= 0 {
		panic(fmt.Sprintf("cache: %d lines", cfg.Lines))
	}
	ways := cfg.Ways
	if ways <= 0 {
		ways = 1
	}
	if cfg.Lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", cfg.Lines, ways))
	}
	if st := c.st; st != nil && len(st.lines) == cfg.Lines {
		for i, word := range st.written {
			for ; word != 0; word &= word - 1 {
				clear(c.set(i*64 + bits.TrailingZeros64(word)))
			}
			st.written[i] = 0
		}
	} else {
		c.st = &store{lines: make([]Line, cfg.Lines), written: make([]uint64, (cfg.Lines+63)/64)}
	}
	if cap(c.victim) < cfg.VictimLines {
		c.victim = make([]Line, 0, cfg.VictimLines)
	}
	c.cfg, c.ways, c.sets = cfg, ways, cfg.Lines/ways
	c.slots, c.victim, c.Stats = c.st.lines, c.victim[:0], Stats{}
}

// CloneInto returns an independent cache with this one's geometry and
// contents, reusing dst's storage when dst is not nil and has the same
// geometry. Its statistics start at zero.
func (c *Cache) CloneInto(dst *Cache) *Cache {
	if dst == nil || dst.cfg != c.cfg {
		st := &store{lines: make([]Line, len(c.st.lines)), written: make([]uint64, len(c.st.written))}
		dst = &Cache{cfg: c.cfg, ways: c.ways, sets: c.sets, st: st, slots: st.lines,
			victim: make([]Line, 0, c.cfg.VictimLines)}
	}
	copy(dst.slots, c.slots)
	copy(dst.st.written, c.st.written)
	dst.victim = append(dst.victim[:0], c.victim...)
	dst.Stats = Stats{}
	return dst
}

// Set returns the set index for a block.
func (c *Cache) Set(b mem.Block) int { return int(uint64(b) % uint64(c.sets)) }

// set returns the ways of a set as a slice (index 0 = most recently used).
func (c *Cache) set(idx int) []Line {
	return c.slots[idx*c.ways : (idx+1)*c.ways]
}

// findWay locates b within its set, returning the way index or -1.
func (c *Cache) findWay(set []Line, b mem.Block) int {
	for w := range set {
		if set[w].State != Invalid && set[w].Block == b {
			return w
		}
	}
	return -1
}

// touch moves way w of the set to the most-recently-used position.
func touch(set []Line, w int) {
	if w == 0 {
		return
	}
	l := set[w]
	copy(set[1:w+1], set[0:w])
	set[0] = l
}

// Lookup finds a block, promoting a victim-cache hit back into the
// set-associative array (swapping with the set's LRU occupant). The
// returned pointer aliases cache storage and is invalidated by the next
// mutating call. The instruction flag selects which hit/miss counters to
// charge, matching the combined cache's shared storage but split
// accounting.
func (c *Cache) Lookup(b mem.Block, instruction bool) (*Line, bool) {
	set := c.set(c.Set(b))
	if w := c.findWay(set, b); w >= 0 {
		touch(set, w)
		c.countHit(instruction, false)
		return &set[0], true
	}
	// Search the victim cache.
	for i := range c.victim {
		if c.victim[i].Block == b && c.victim[i].State != Invalid {
			c.countHit(instruction, true)
			// Swap: the victim line returns to its set (evicting the
			// set's LRU way into the victim cache if the set is full).
			promoted := c.victim[i]
			lru := len(set) - 1
			if set[lru].State != Invalid {
				c.victim[i] = set[lru]
				c.touchVictim(i)
			} else {
				c.victim = append(c.victim[:i], c.victim[i+1:]...)
			}
			set[lru] = promoted
			touch(set, lru)
			return &set[0], true
		}
	}
	if instruction {
		c.Stats.IMisses++
	} else {
		c.Stats.Misses++
	}
	return nil, false
}

func (c *Cache) countHit(instruction, victim bool) {
	switch {
	case instruction:
		c.Stats.IHits++
	case victim:
		c.Stats.VictimHits++
		c.Stats.Hits++
	default:
		c.Stats.Hits++
	}
}

// touchVictim moves victim entry i to the most-recently-used position.
func (c *Cache) touchVictim(i int) {
	if i == 0 {
		return
	}
	e := c.victim[i]
	copy(c.victim[1:i+1], c.victim[0:i])
	c.victim[0] = e
}

// Insert places a line for block b, displacing whatever conflicts with it.
// The displaced occupant (the set's LRU way) moves into the victim cache
// when one is configured; the line that leaves the hierarchy entirely
// (from the victim cache's LRU slot, or the set when there is no victim
// cache) is returned so the controller can write it back if dirty.
func (c *Cache) Insert(l Line) (evicted Line, wasEvicted bool) {
	idx := c.Set(l.Block)
	set := c.set(idx)
	if w := c.findWay(set, l.Block); w >= 0 {
		// Refill of a resident block (e.g. upgrade): overwrite in place.
		set[w] = l
		touch(set, w)
		return Line{}, false
	}
	// Drop any stale victim-cache copy so a block is never resident twice.
	for i := range c.victim {
		if c.victim[i].State != Invalid && c.victim[i].Block == l.Block {
			c.victim = append(c.victim[:i], c.victim[i+1:]...)
			break
		}
	}
	// Use a free way if one exists.
	for w := range set {
		if set[w].State == Invalid {
			c.st.written[idx>>6] |= 1 << (idx & 63)
			set[w] = l
			touch(set, w)
			return Line{}, false
		}
	}
	// Displace the LRU way.
	lru := len(set) - 1
	displaced := set[lru]
	set[lru] = l
	touch(set, lru)
	if c.cfg.VictimLines == 0 {
		c.Stats.Evictions++
		if displaced.Dirty {
			c.Stats.DirtyEvict++
		}
		return displaced, true
	}
	// Push into the victim cache, spilling its LRU entry if full.
	if len(c.victim) < c.cfg.VictimLines {
		c.victim = append(c.victim, Line{})
	} else {
		evicted = c.victim[len(c.victim)-1]
		wasEvicted = evicted.State != Invalid
		if wasEvicted {
			c.Stats.Evictions++
			if evicted.Dirty {
				c.Stats.DirtyEvict++
			}
		}
	}
	copy(c.victim[1:], c.victim[0:len(c.victim)-1])
	c.victim[0] = displaced
	return evicted, wasEvicted
}

// Invalidate removes block b from the hierarchy, returning the line it
// held if present. The protocol uses the returned contents to build the
// UPDATE (dirty data) reply to an invalidation.
func (c *Cache) Invalidate(b mem.Block) (Line, bool) {
	set := c.set(c.Set(b))
	if w := c.findWay(set, b); w >= 0 {
		l := set[w]
		set[w] = Line{}
		return l, true
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid && c.victim[i].Block == b {
			l := c.victim[i]
			c.victim = append(c.victim[:i], c.victim[i+1:]...)
			return l, true
		}
	}
	return Line{}, false
}

// Peek returns the line for b without promoting or counting.
func (c *Cache) Peek(b mem.Block) (Line, bool) {
	set := c.set(c.Set(b))
	if w := c.findWay(set, b); w >= 0 {
		return set[w], true
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid && c.victim[i].Block == b {
			return c.victim[i], true
		}
	}
	return Line{}, false
}

// Resident reports how many valid lines the hierarchy holds (testing aid).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].State != Invalid {
			n++
		}
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid {
			n++
		}
	}
	return n
}
