package proto

import (
	"testing"

	"swex/internal/cache"
	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/sim"
)

// BenchmarkSendRetire times one message through the fabric with about
// 100 others in flight: Send (counter, registry, mesh injection), the
// delivery's retirement from the in-flight registry, and the home's
// processing. The messages are check-ins (REL) between random nodes of
// a 64-node full-map machine, which leave no protocol state behind, so
// distances differ and retirement runs out of send order.
func BenchmarkSendRetire(b *testing.B) {
	const nodes, depth = 64, 100
	engine := sim.NewEngine()
	f, err := NewFabric(engine, mesh.New(engine, mesh.DefaultConfig(nodes)), mem.New(nodes),
		FullMap(), DefaultTiming(), nil, CacheConfig{Cache: cache.Config{Lines: 64}, PerfectIfetch: true})
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(1)
	msgs := make([]Msg, 4096)
	for i := range msgs {
		home := mem.NodeID(r.Intn(nodes))
		msgs[i] = Msg{
			Kind: MsgREL, Src: mem.NodeID(r.Intn(nodes)), Dst: home,
			Block: mem.BlockOf(mem.SegBase(home)) + mem.Block(r.Intn(64)),
		}
	}
	send := func(i int) {
		f.Send(msgs[i%len(msgs)])
		for f.inflight.n > depth {
			engine.Step()
		}
	}
	for i := 0; i < 10*depth; i++ {
		send(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
}
