package proto

import (
	"errors"
	"testing"

	"swex/internal/memtier"
)

// TestCloneRefusesDirectorylessAndTier pins that Clone copies only the
// directory spectrum over flat memory: a directoryless fabric, whose
// direct-access queues Clone does not copy, and a fabric with a memory
// tier, whose link and channel schedules it does not copy, fail with the
// named error rather than yield half a machine.
func TestCloneRefusesDirectorylessAndTier(t *testing.T) {
	dls := newRig(t, 2, Directoryless())
	tiered := newRig(t, 2, FullMap())
	tiered.f.Tier = memtier.New(tiered.engine, 2, memtier.Config{Kind: memtier.KindTiered, DRAMBlocks: 1, PromoteAfter: 1})
	for name, f := range map[string]*Fabric{"directoryless": dls.f, "tier": tiered.f} {
		if _, err := f.Clone(nil); !errors.Is(err, ErrNotCopyable) {
			t.Errorf("%s: Clone error %v, want ErrNotCopyable", name, err)
		}
	}
}
