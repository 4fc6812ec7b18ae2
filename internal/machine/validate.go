package machine

import (
	"errors"
	"fmt"

	"swex/internal/dir"
)

// Named validation errors. Validate wraps these with the offending value,
// so callers can match the cause with errors.Is while logs still say what
// was wrong. Spec and memory-tier errors pass through from their own
// packages (proto.Spec.Validate, memtier.Config.Validate).
var (
	// ErrNodes flags a machine size outside 1..dir.MaxNodes. The upper
	// bound is the hardware pointer bitset's capacity; a node ID past it
	// would index out of the directory's fixed-size pointer words.
	ErrNodes = errors.New("machine: node count must be in 1..dir.MaxNodes")
	// ErrLoseInv flags a negative lost-invalidation index. Zero disables
	// the fault fixture; positive selects the N-th invalidation; negative
	// selects nothing and almost certainly means a sign bug at the call
	// site.
	ErrLoseInv = errors.New("machine: LoseInv must be non-negative")
)

// Validate reports configuration errors before any machine state is
// built. machine.New runs it; experiment drivers can run it early to
// fail fast on a bad sweep matrix.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > dir.MaxNodes {
		return fmt.Errorf("%w: got %d", ErrNodes, c.Nodes)
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.LoseInv < 0 {
		return fmt.Errorf("%w: got %d", ErrLoseInv, c.LoseInv)
	}
	return c.MemTier.Validate()
}
