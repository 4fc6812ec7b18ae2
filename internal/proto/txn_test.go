package proto

import (
	"bytes"
	"testing"

	"swex/internal/mem"
)

// pendingRetry returns the BUSY retry pending on f's engine, failing the
// test unless there is exactly one.
func pendingRetry(t *testing.T, f *Fabric) *retryTag {
	t.Helper()
	var found *retryTag
	for _, ev := range f.Engine.PendingTagged(nil) {
		if r, ok := ev.Tag.(*retryTag); ok {
			if found != nil {
				t.Fatal("more than one retry pending")
			}
			found = r
		}
	}
	if found == nil {
		t.Fatal("no retry pending")
	}
	return found
}

// TestStaleRetryOnRecycledTxn pins the generation check that lets miss
// transaction records be recycled. A BUSY retry captured for a
// transaction that then fills must stay a no-op even when the next miss
// to the same block opens in the very record the fill freed: the retry
// must neither count as live (the snapshot encodes liveness) nor
// re-issue when it fires, and a clone must carry it as stale too.
func TestStaleRetryOnRecycledTxn(t *testing.T) {
	r := newRig(t, 2, FullMap())
	// The retry fires one cycle after the BUSY, before any request
	// reaches the home, so nothing else fires first.
	r.f.Timing.RetryDelay = 1
	a := r.mem.AllocOn(0, mem.WordsPerBlock)
	b := mem.BlockOf(a)
	cc := r.f.Cache(1)

	read := false
	cc.Access(a, Op{Done: func(uint64) { read = true }})
	first := cc.txns[b]
	cc.Deliver(&Msg{Kind: MsgBUSY, Src: 0, Dst: 1, Block: b})
	retry := pendingRetry(t, r.f)
	if !retry.live() {
		t.Fatal("setup: the retry of the open transaction is not live")
	}
	cc.Deliver(&Msg{Kind: MsgRDATA, Src: 0, Dst: 1, Block: b})
	if !read || cc.HasTxn(b) {
		t.Fatal("setup: the fill did not complete the read and close the transaction")
	}
	if cc.txnFree != first {
		t.Fatal("the fill did not return the transaction's record to the free list")
	}
	for _, w := range first.waiters[:cap(first.waiters)] {
		if w.op.Done != nil {
			t.Fatal("a freed record still holds a waiter's Done callback")
		}
	}
	if retry.live() {
		t.Fatal("the retry is live after its transaction filled")
	}

	// A write to the Shared copy upgrades: a new transaction, in the
	// record the fill freed.
	cc.Access(a, Op{ID: 1, Write: true, Value: 7})
	if cc.txns[b] != first {
		t.Fatal("setup: the upgrade did not reuse the freed record")
	}
	if retry.live() {
		t.Fatal("a stale retry is live against its record's next transaction")
	}

	clone, err := r.f.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pendingRetry(t, clone).live() {
		t.Fatal("the clone carries the stale retry as live")
	}
	blocks := []mem.Block{b}
	if got, want := clone.AppendSnapshot(nil, blocks), r.f.AppendSnapshot(nil, blocks); !bytes.Equal(got, want) {
		t.Fatalf("the clone snapshots\n  %q\nbut the original\n  %q", got, want)
	}

	before := len(r.f.InFlight())
	if ev, ok := r.engine.Next(); !ok || ev.Tag != retry {
		t.Fatal("setup: the retry is not the next event")
	}
	r.engine.Step()
	if got := len(r.f.InFlight()); got != before {
		t.Fatalf("the stale retry sent a request: %d messages in flight, want %d", got, before)
	}
}
