package machine

import (
	"errors"
	"fmt"

	"swex/internal/cache"
	"swex/internal/dir"
	"swex/internal/proc"
)

// Named validation errors. Validate wraps these with the offending value,
// so callers can match the cause with errors.Is while logs still say what
// was wrong. Spec errors pass through from proto.Spec.Validate.
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
	// ErrCacheGeometry flags a cache shape the cache cannot be built
	// with: a negative line, way, or victim-line count, or a way count
	// that does not divide the line count (the default 4096 lines unless
	// CacheLines overrides it).
	ErrCacheGeometry = errors.New("machine: invalid cache geometry")
	// ErrThreads flags a ThreadsPerNode outside 0..proc.MaxContexts:
	// a Sparcle processor has four hardware contexts, and each context
	// is a coroutine the run starts on every node.
	ErrThreads = errors.New("machine: ThreadsPerNode must be in 0..proc.MaxContexts")
	// ErrIncomplete flags a run that stopped before every thread
	// finished: the cycle limit came first, or the event queue drained
	// (a deadlock). Run wraps it with the cycle, the stuck nodes and the
	// pending event count.
	ErrIncomplete = errors.New("machine: run did not complete")
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
	if c.ThreadsPerNode < 0 || c.ThreadsPerNode > proc.MaxContexts {
		return fmt.Errorf("%w: got %d", ErrThreads, c.ThreadsPerNode)
	}
	if c.CacheLines < 0 || c.CacheWays < 0 || c.VictimLines < 0 {
		return fmt.Errorf("%w: %d lines, %d ways, %d victim lines must be non-negative",
			ErrCacheGeometry, c.CacheLines, c.CacheWays, c.VictimLines)
	}
	lines := c.CacheLines
	if lines == 0 {
		lines = cache.DefaultConfig().Lines
	}
	if c.CacheWays > 1 && lines%c.CacheWays != 0 {
		return fmt.Errorf("%w: %d lines not divisible by %d ways", ErrCacheGeometry, lines, c.CacheWays)
	}
	return nil
}

// Threads reports how many hardware contexts each node runs: the
// ThreadsPerNode of a configuration Validate accepts, where zero means
// the paper's one.
func (c Config) Threads() int {
	return max(c.ThreadsPerNode, 1)
}
