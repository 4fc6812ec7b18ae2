package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"swex/internal/sim"
)

// WritePerfetto renders the events as Chrome trace-event JSON, loadable
// in ui.perfetto.dev (or chrome://tracing). The layout:
//
//   - one process per node, with one thread per resource: proc (compute,
//     ifetch), mem (transaction windows, retry backoff), cmmu (hardware
//     directory processing), handlers (software handlers with nested
//     activity segments), and net (per-message async spans grouped from
//     the message's queue/DRAM/wire component events);
//   - one extra "engine" process carrying the pending-event counter;
//   - flow events with id = transaction id connecting each transaction's
//     window, home-directory, and handler slices, so a whole miss reads
//     as one flow.
//
// Timestamps and durations are raw simulated cycles printed as integers
// (the JSON declares no time unit), so identical event sequences produce
// byte-identical output.
func WritePerfetto(w io.Writer, events []Event, nodes int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"traceEvents\":[")
	first := true
	item := func(format string, args ...any) {
		if first {
			fmt.Fprintf(bw, "\n")
			first = false
		} else {
			fmt.Fprintf(bw, ",\n")
		}
		fmt.Fprintf(bw, format, args...)
	}

	writeMetadata(item, nodes)

	// Deterministic render order: by span start, emission order breaking
	// ties.
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return events[order[i]].Start < events[order[j]].Start
	})

	writeSlices(item, events, order)
	writeMessages(item, events, order)
	writeCounters(item, events, order, nodes)

	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// Thread ids within a node's process.
const (
	tidProc     = 0
	tidMem      = 1
	tidCMMU     = 2
	tidHandlers = 3
	tidNet      = 4
)

// tidOf places a slice event on its node's thread. Message components
// and counters are rendered separately and never reach here.
func tidOf(e *Event) int {
	switch e.Cat {
	case CatProc:
		return tidProc
	case CatMemOp, CatCache:
		return tidMem
	case CatHWDir:
		return tidCMMU
	case CatSWHandler, CatActivity:
		return tidHandlers
	case CatNetQueue, CatNetTransit, CatEngine:
		panic("trace: category has no slice thread")
	case NumCategories:
		panic("trace: NumCategories is not a category")
	default:
		panic("trace: unknown category")
	}
}

func writeMetadata(item func(string, ...any), nodes int) {
	threads := [...]string{tidProc: "proc", tidMem: "mem", tidCMMU: "cmmu", tidHandlers: "handlers", tidNet: "net"}
	for pid := 0; pid < nodes; pid++ {
		item(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"node%d"}}`, pid, pid)
		item(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`, pid, pid)
		for tid, name := range threads {
			item(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}`, pid, tid, name)
			item(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, pid, tid, tid)
		}
	}
	item(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"engine"}}`, nodes)
	item(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`, nodes, nodes)
}

// isSlice reports whether the event renders as a synchronous "X" slice
// on a node thread (as opposed to a message component or a counter).
func isSlice(e *Event) bool {
	if e.Seq != 0 || e.Op == OpPending {
		return false
	}
	switch e.Cat {
	case CatProc, CatMemOp, CatCache, CatHWDir, CatSWHandler, CatActivity:
		return true
	case CatNetQueue, CatNetTransit, CatEngine:
		return false
	case NumCategories:
		panic("trace: NumCategories is not a category")
	default:
		panic("trace: unknown category")
	}
}

// flowStep marks whether a transaction's flow starts, steps, or
// finishes at a given slice.
type flowStep uint8

const (
	flowNone flowStep = iota
	flowStart
	flowMid
	flowEnd
)

// flowSteps assigns flow roles to the transaction-correlated anchor
// slices (the window, home-directory, and handler spans) of every
// transaction that has at least two of them, in render order.
func flowSteps(events []Event, order []int) map[int]flowStep {
	anchors := make(map[uint64][]int)
	for _, idx := range order {
		e := &events[idx]
		if e.Txn == 0 || !isSlice(e) {
			continue
		}
		if e.Op == OpMemRead || e.Op == OpMemWrite || e.Op == OpHomeProc || e.Op == OpHandler {
			anchors[e.Txn] = append(anchors[e.Txn], idx)
		}
	}
	steps := make(map[int]flowStep)
	txns := make([]uint64, 0, len(anchors))
	for id := range anchors {
		txns = append(txns, id)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, id := range txns {
		idxs := anchors[id]
		if len(idxs) < 2 {
			continue
		}
		for i, idx := range idxs {
			switch {
			case i == 0:
				steps[idx] = flowStart
			case i == len(idxs)-1:
				steps[idx] = flowEnd
			default:
				steps[idx] = flowMid
			}
		}
	}
	return steps
}

func writeSlices(item func(string, ...any), events []Event, order []int) {
	steps := flowSteps(events, order)
	for _, idx := range order {
		e := &events[idx]
		if !isSlice(e) {
			continue
		}
		tid := tidOf(e)
		argName := "block"
		switch e.Op {
		case OpCompute, OpIfetch:
			argName = "cycles"
		case OpMemRead, OpMemWrite, OpRetryWait, OpHomeProc, OpHandler, OpActivity:
			// block
		case OpTxQueue, OpRxQueue, OpDRAM, OpWire, OpRecv, OpPending:
			panic("trace: op does not render as a slice")
		case NumOps:
			panic("trace: NumOps is not an op")
		default:
			panic("trace: unknown op")
		}
		item(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"cat":"%s","name":"%s","args":{"txn":%d,"%s":%d}}`,
			e.Node, tid, uint64(e.Start), uint64(e.End-e.Start), e.Cat, jsonEscape(e.Name), e.Txn, argName, e.Arg)
		switch steps[idx] {
		case flowNone:
		case flowStart:
			item(`{"ph":"s","pid":%d,"tid":%d,"ts":%d,"cat":"txn","name":"txn","id":%d}`, e.Node, tid, uint64(e.Start), e.Txn)
		case flowMid:
			item(`{"ph":"t","pid":%d,"tid":%d,"ts":%d,"cat":"txn","name":"txn","id":%d}`, e.Node, tid, uint64(e.Start), e.Txn)
		case flowEnd:
			item(`{"ph":"f","bp":"e","pid":%d,"tid":%d,"ts":%d,"cat":"txn","name":"txn","id":%d}`, e.Node, tid, uint64(e.Start), e.Txn)
		}
	}
}

// msgAgg folds one message's component events back into a single
// lifecycle with a per-component breakdown.
type msgAgg struct {
	seq                        uint64
	start, end                 sim.Cycle
	txn                        uint64
	block                      int64
	src, dst                   int32
	name                       string
	txq, rxq, dram, wire, recv sim.Cycle
}

func writeMessages(item func(string, ...any), events []Event, order []int) {
	bysSeq := make(map[uint64]*msgAgg)
	var seqs []uint64 // first-seen order == deterministic render order
	for _, idx := range order {
		e := &events[idx]
		if e.Seq == 0 {
			continue
		}
		a := bysSeq[e.Seq]
		if a == nil {
			a = &msgAgg{seq: e.Seq, start: e.Start, end: e.End, txn: e.Txn,
				block: e.Arg, src: e.Node, dst: e.Peer, name: e.Name}
			bysSeq[e.Seq] = a
			seqs = append(seqs, e.Seq)
		}
		if e.Start < a.start {
			a.start = e.Start
		}
		if e.End > a.end {
			a.end = e.End
		}
		d := e.End - e.Start
		switch e.Op {
		case OpTxQueue:
			a.txq += d
		case OpRxQueue:
			a.rxq += d
		case OpDRAM:
			a.dram += d
		case OpWire:
			a.wire += d
		case OpRecv:
			a.recv += d
		case OpCompute, OpIfetch, OpMemRead, OpMemWrite, OpRetryWait,
			OpHomeProc, OpHandler, OpActivity, OpPending:
			panic("trace: op is not a message component")
		case NumOps:
			panic("trace: NumOps is not an op")
		default:
			panic("trace: unknown op")
		}
	}
	for _, seq := range seqs {
		a := bysSeq[seq]
		item(`{"ph":"b","pid":%d,"tid":%d,"ts":%d,"cat":"net","id":%d,"name":"%s","args":{"txn":%d,"block":%d,"src":%d,"dst":%d,"txq":%d,"dram":%d,"wire":%d,"rxq":%d,"recv":%d}}`,
			a.src, tidNet, uint64(a.start), a.seq, jsonEscape(a.name),
			a.txn, a.block, a.src, a.dst,
			uint64(a.txq), uint64(a.dram), uint64(a.wire), uint64(a.rxq), uint64(a.recv))
		item(`{"ph":"e","pid":%d,"tid":%d,"ts":%d,"cat":"net","id":%d,"name":"%s"}`,
			a.src, tidNet, uint64(a.end), a.seq, jsonEscape(a.name))
	}
}

func writeCounters(item func(string, ...any), events []Event, order []int, nodes int) {
	for _, idx := range order {
		e := &events[idx]
		if e.Op != OpPending {
			continue
		}
		item(`{"ph":"C","pid":%d,"tid":0,"ts":%d,"name":"%s","args":{"pending":%d}}`,
			nodes, uint64(e.Start), jsonEscape(e.Name), e.Arg)
	}
}

// jsonEscape guards the few dynamic strings (event names) against
// JSON-breaking characters; the fast path returns the input unchanged.
func jsonEscape(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, fmt.Sprintf("\\u%04x", c)...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
