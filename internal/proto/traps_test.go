package proto

import (
	"testing"

	"swex/internal/sim"
)

// TestTrapsReservePreemptedByHandlers: handlers preempt user code, so a
// Compute is pushed past every handler window it would overlap, while a
// handler starts when the handler chain is free and never waits for user
// computation.
func TestTrapsReservePreemptedByHandlers(t *testing.T) {
	var tr Traps
	tr.reset(sim.NewEngine(), 1)
	if done := tr.Schedule(0, 40); done != 40 {
		t.Fatalf("idle handler completes at %d, want 40", done)
	}
	if done := tr.Reserve(0, 10); done != 50 {
		t.Fatalf("compute completes at %d, want 50 (after the handler window)", done)
	}
	if done := tr.Schedule(0, 40); done != 80 {
		t.Fatalf("second handler completes at %d, want 80 (chained, not behind compute)", done)
	}
	// The next compute would start at 50, inside the window 40..80.
	if done := tr.Reserve(0, 30); done != 110 {
		t.Fatalf("compute completes at %d, want 110 (pushed past the window)", done)
	}
}

// TestTrapsHandlerBusy: HandlerBusy counts handler cycles only, per node,
// and a copied schedule keeps the chain with fresh statistics.
func TestTrapsHandlerBusy(t *testing.T) {
	var tr Traps
	tr.reset(sim.NewEngine(), 2)
	tr.Schedule(0, 100)
	tr.Reserve(0, 50)
	if got := tr.HandlerBusy(0); got != 100 {
		t.Fatalf("HandlerBusy(0) = %d, want 100", got)
	}
	if got := tr.HandlerBusy(1); got != 0 {
		t.Fatalf("HandlerBusy(1) = %d, want 0", got)
	}
	var c Traps
	tr.cloneInto(&c, sim.NewEngine())
	if got := c.HandlerBusy(0); got != 0 {
		t.Fatalf("copy's HandlerBusy(0) = %d, want 0", got)
	}
	if done := c.Schedule(0, 10); done != 110 {
		t.Fatalf("copy's handler completes at %d, want 110 (behind the copied chain)", done)
	}
	if done := c.Reserve(0, 10); done != 160 {
		t.Fatalf("copy's compute completes at %d, want 160 (after the copied reservation)", done)
	}
}
