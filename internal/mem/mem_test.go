package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockMapping(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(3) != 0 {
		t.Fatal("addresses 0..3 should share block 0")
	}
	if BlockOf(4) != 1 {
		t.Fatalf("BlockOf(4) = %d, want 1", BlockOf(4))
	}
	if Block(5).Base() != 20 {
		t.Fatalf("Block(5).Base() = %d, want 20", Block(5).Base())
	}
}

func TestHomeMapping(t *testing.T) {
	if HomeOf(0) != 0 {
		t.Fatal("address 0 should live on node 0")
	}
	if HomeOf(SegWords) != 1 {
		t.Fatalf("HomeOf(SegWords) = %d, want 1", HomeOf(SegWords))
	}
	if HomeOf(SegWords-1) != 0 {
		t.Fatal("last word of segment 0 should live on node 0")
	}
	if HomeOfBlock(BlockOf(SegBase(3))) != 3 {
		t.Fatal("block home disagrees with address home")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4)
	a := m.AllocOn(2, 8)
	if m.Read(a) != 0 {
		t.Fatal("fresh memory should read zero")
	}
	m.Write(a, 42)
	if m.Read(a) != 42 {
		t.Fatalf("Read = %d, want 42", m.Read(a))
	}
}

func TestBlockReadWrite(t *testing.T) {
	m := New(1)
	a := m.AllocOn(0, WordsPerBlock)
	b := BlockOf(a)
	m.WriteBlock(b, [WordsPerBlock]uint64{1, 2, 3, 4})
	got := m.ReadBlock(b)
	for i, v := range []uint64{1, 2, 3, 4} {
		if got[i] != v {
			t.Fatalf("ReadBlock[%d] = %d, want %d", i, got[i], v)
		}
	}
	if m.Read(a+1) != 2 {
		t.Fatal("block write not visible through word read")
	}
}

func TestAllocOnPlacement(t *testing.T) {
	m := New(4)
	for n := NodeID(0); n < 4; n++ {
		a := m.AllocOn(n, 10)
		if HomeOf(a) != n {
			t.Fatalf("AllocOn(%d) returned address homed on %d", n, HomeOf(a))
		}
	}
}

func TestAllocBlockAligned(t *testing.T) {
	m := New(1)
	m.AllocOn(0, 1) // leaves cursor mid-block
	a := m.AllocOn(0, 4)
	if a%WordsPerBlock != 0 {
		t.Fatalf("allocation base %d not block aligned", a)
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	m := New(1)
	a := m.AllocOn(0, 1)
	b := m.AllocOn(0, 1)
	if BlockOf(a) == BlockOf(b) {
		t.Fatal("separate allocations share a block")
	}
}

func TestAllocStriped(t *testing.T) {
	m := New(8)
	addrs := m.AllocStriped(16)
	if len(addrs) != 8 {
		t.Fatalf("AllocStriped returned %d bases, want 8", len(addrs))
	}
	for n, a := range addrs {
		if HomeOf(a) != NodeID(n) {
			t.Fatalf("stripe %d homed on %d", n, HomeOf(a))
		}
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(1)
	defer func() {
		if recover() == nil {
			t.Error("segment exhaustion did not panic")
		}
	}()
	m.AllocOn(0, SegWords+1)
}

func TestAllocBadNodePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("AllocOn out-of-range node did not panic")
		}
	}()
	m.AllocOn(5, 1)
}

func TestNewZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestInUse(t *testing.T) {
	m := New(2)
	m.AllocOn(1, 7)
	if m.InUse(1) != 7 {
		t.Fatalf("InUse = %d, want 7", m.InUse(1))
	}
	if m.InUse(0) != 0 {
		t.Fatal("untouched node shows usage")
	}
}

// Property: allocations on the same node never overlap.
func TestAllocPropertyNoOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1)
		type span struct{ lo, hi Addr }
		var spans []span
		for _, s := range sizes {
			w := int(s%64) + 1
			a := m.AllocOn(0, w)
			spans = append(spans, span{a, a + Addr(w)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every address maps to exactly one home and block bases are
// consistent with BlockOf.
func TestMappingPropertyConsistent(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		b := BlockOf(a)
		if b.Base() > a || a-b.Base() >= WordsPerBlock {
			return false
		}
		return HomeOf(a) == HomeOfBlock(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the block store reads as a word map. Every word written
// reads back, and every other word reads 0 — in a block partly written,
// after CloneInto, and after CloneInto reuses a store holding other
// words.
func TestPropertyStoreMatchesWordModel(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(27))
	addr := func() Addr {
		off := Addr(rng.Intn(64))
		if rng.Intn(2) == 0 {
			off = SegWords - 1 - off
		}
		return SegBase(NodeID(rng.Intn(nodes))) + off
	}
	fill := func(m *Memory, n int) map[Addr]uint64 {
		model := map[Addr]uint64{}
		for i := 0; i < n; i++ {
			a := addr()
			if rng.Intn(4) == 0 {
				var w [WordsPerBlock]uint64
				for j := range w {
					w[j] = rng.Uint64()
					model[BlockOf(a).Base()+Addr(j)] = w[j]
				}
				m.WriteBlock(BlockOf(a), w)
			} else {
				v := rng.Uint64()
				m.Write(a, v)
				model[a] = v
			}
		}
		return model
	}
	check := func(what string, m *Memory, model map[Addr]uint64) {
		t.Helper()
		for i := 0; i < 400; i++ {
			a := addr()
			if got := m.Read(a); got != model[a] {
				t.Fatalf("%s: Read(%d) = %d, want %d", what, a, got, model[a])
			}
			w := m.ReadBlock(BlockOf(a))
			for j, v := range w {
				if want := model[BlockOf(a).Base()+Addr(j)]; v != want {
					t.Fatalf("%s: ReadBlock(%d)[%d] = %d, want %d", what, BlockOf(a), j, v, want)
				}
			}
		}
		for a, v := range model {
			if got := m.Read(a); got != v {
				t.Fatalf("%s: Read(%d) = %d, want %d", what, a, got, v)
			}
		}
	}
	var reused *Memory
	for round := 0; round < 20; round++ {
		src := New(nodes)
		model := fill(src, 80)
		check("source", src, model)
		check("fresh clone", src.CloneInto(nil), model)
		if reused == nil {
			reused = New(nodes)
		}
		fill(reused, 80) // words the clone must not keep
		reused = src.CloneInto(reused)
		check("reused clone", reused, model)
	}
}
