package dir

import (
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// homeBlocks returns n distinct blocks of one home segment, spread over
// its first allocations the way a home's directory sees them.
func homeBlocks(n int) []mem.Block {
	const segBlocks = mem.SegWords / mem.WordsPerBlock
	r := sim.NewRand(1)
	seen := map[mem.Block]bool{}
	out := make([]mem.Block, 0, n)
	for len(out) < n {
		b := 7*segBlocks + mem.Block(r.Intn(4096))
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// BenchmarkDirectoryLookup times one lookup of an existing entry, the
// home's per-message directory access, in a directory of 64 entries
// (the Figure 5 TSP homes hold 4 to 58).
func BenchmarkDirectoryLookup(b *testing.B) {
	blocks := homeBlocks(64)
	d := New(5)
	for _, blk := range blocks {
		d.Entry(blk)
	}
	order := make([]mem.Block, 4096)
	r := sim.NewRand(2)
	for i := range order {
		order[i] = blocks[r.Intn(len(blocks))]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Peek(order[i%len(order)]); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkDirectoryInsert times creating one entry: a reset directory
// (as a reused home controller's) filled with 64 new blocks.
func BenchmarkDirectoryInsert(b *testing.B) {
	blocks := homeBlocks(64)
	d := New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(blocks) == 0 {
			d.Reset(5)
		}
		d.Entry(blocks[i%len(blocks)])
	}
}
