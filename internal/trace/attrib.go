package trace

import (
	"sort"

	"swex/internal/sim"
)

// Component is one destination of the critical-path attribution pass: a
// machine-wide generalization of the paper's Table 2, splitting each
// observed transaction latency by the resource responsible for it.
type Component uint8

// Latency components.
const (
	// CompProcessor is requesting-processor time (issue, fetch).
	CompProcessor Component = iota
	// CompCache is cache-controller time (BUSY retry backoff).
	CompCache
	// CompNetQueue is mesh transmit/receive queueing.
	CompNetQueue
	// CompNetTransit is serialization and flight time.
	CompNetTransit
	// CompHWDir is home hardware-directory processing and DRAM.
	CompHWDir
	// CompSWHandler is protocol extension software execution.
	CompSWHandler
	// CompOther is window time no traced span accounts for (handler
	// dispatch latency, same-cycle hand-offs).
	CompOther

	// NumComponents bounds the enum.
	NumComponents
)

// String names the component for reports.
func (c Component) String() string {
	switch c {
	case CompProcessor:
		return "processor"
	case CompCache:
		return "cache"
	case CompNetQueue:
		return "net-queue"
	case CompNetTransit:
		return "net-transit"
	case CompHWDir:
		return "hw-dir"
	case CompSWHandler:
		return "sw-handler"
	case CompOther:
		return "other"
	case NumComponents:
		panic("trace: NumComponents is not a component")
	default:
		panic("trace: unknown component")
	}
}

// priority orders components for the critical-path sweep: when spans
// overlap inside a transaction window, the cycle is charged to the most
// specific resource. Software handlers outrank the hardware directory,
// which outranks queueing, transit, cache, and processor time.
func (c Component) priority() int {
	switch c {
	case CompSWHandler:
		return 6
	case CompHWDir:
		return 5
	case CompNetQueue:
		return 4
	case CompNetTransit:
		return 3
	case CompCache:
		return 2
	case CompProcessor:
		return 1
	case CompOther:
		return 0
	case NumComponents:
		panic("trace: NumComponents is not a component")
	default:
		panic("trace: unknown component")
	}
}

// componentOf maps a span category to the latency component it occupies.
// The second result is false for categories that are not components
// (transaction windows, nested activity segments, engine counters).
func componentOf(c Category) (Component, bool) {
	switch c {
	case CatProc:
		return CompProcessor, true
	case CatCache:
		return CompCache, true
	case CatNetQueue:
		return CompNetQueue, true
	case CatNetTransit:
		return CompNetTransit, true
	case CatHWDir:
		return CompHWDir, true
	case CatSWHandler:
		return CompSWHandler, true
	case CatMemOp, CatActivity, CatEngine:
		return CompOther, false
	case NumCategories:
		panic("trace: NumCategories is not a category")
	default:
		panic("trace: unknown category")
	}
}

// TxnRecord is one completed memory transaction with its latency split.
type TxnRecord struct {
	// Txn is the transaction flow id.
	Txn uint64
	// Node is the requesting node.
	Node int32
	// Block is the accessed memory block.
	Block int64
	// Write marks write (and check-out) transactions.
	Write bool
	// Start and End bound the observed transaction window.
	Start, End sim.Cycle
	// Path is the critical-path split of the observed latency: the
	// window is swept cycle by cycle and each cycle is charged to the
	// highest-priority component active at that instant, so the entries
	// sum exactly to End - Start.
	Path [NumComponents]sim.Cycle
	// Work is the total work performed on behalf of the flow per
	// component, unclipped and without overlap resolution: concurrent
	// INV transmissions count each of their wire times, and a software
	// handler that outlives the window (a LimitLESS read, whose data is
	// sent by hardware before the handler finishes recording sharers)
	// still contributes its full cost.
	Work [NumComponents]sim.Cycle
}

// Latency reports the observed window length.
func (r *TxnRecord) Latency() sim.Cycle { return r.End - r.Start }

// interval is one component-tagged span clipped for the sweep.
type interval struct {
	start, end sim.Cycle
	comp       Component
}

// Attribute runs the critical-path attribution pass: it finds every
// completed memory-transaction window in events, gathers the spans
// correlated to each transaction, and splits the observed latency into
// components. Records are returned ordered by window start, then id.
func Attribute(events []Event) []TxnRecord {
	windows := make(map[uint64]*TxnRecord)
	for i := range events {
		e := &events[i]
		if e.Cat != CatMemOp || e.Txn == 0 {
			continue
		}
		windows[e.Txn] = &TxnRecord{
			Txn:   e.Txn,
			Node:  e.Node,
			Block: e.Arg,
			Write: e.Op == OpMemWrite,
			Start: e.Start,
			End:   e.End,
		}
	}
	spans := make(map[uint64][]interval)
	for i := range events {
		e := &events[i]
		if e.Txn == 0 || e.End <= e.Start {
			continue
		}
		comp, ok := componentOf(e.Cat)
		if !ok {
			continue
		}
		if _, open := windows[e.Txn]; !open {
			continue
		}
		spans[e.Txn] = append(spans[e.Txn], interval{start: e.Start, end: e.End, comp: comp})
	}

	ids := make([]uint64, 0, len(windows))
	for id := range windows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]TxnRecord, 0, len(ids))
	for _, id := range ids {
		rec := windows[id]
		attributeWindow(rec, spans[id])
		out = append(out, *rec)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Txn < out[j].Txn
	})
	return out
}

// attributeWindow fills rec.Work (plain per-component sums) and rec.Path
// (priority sweep over the clipped spans; remainder goes to CompOther).
func attributeWindow(rec *TxnRecord, spans []interval) {
	clipped := make([]interval, 0, len(spans))
	cuts := make([]sim.Cycle, 0, 2*len(spans)+2)
	cuts = append(cuts, rec.Start, rec.End)
	for _, s := range spans {
		rec.Work[s.comp] += s.end - s.start
		cs, ce := s.start, s.end
		if cs < rec.Start {
			cs = rec.Start
		}
		if ce > rec.End {
			ce = rec.End
		}
		if ce > cs {
			clipped = append(clipped, interval{start: cs, end: ce, comp: s.comp})
			cuts = append(cuts, cs, ce)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := CompOther
		for _, s := range clipped {
			if s.start <= lo && s.end >= hi && s.comp.priority() > best.priority() {
				best = s.comp
			}
		}
		rec.Path[best] += hi - lo
	}
}
