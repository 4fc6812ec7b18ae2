package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Activity identifies one of the cycle-consuming activities inside a
// software protocol handler. These are exactly the rows of the paper's
// Table 2, which accounts for every cycle spent in a median read and write
// request for both the flexible (C) and hand-tuned (assembly) handlers.
type Activity int

const (
	ActTrapDispatch  Activity = iota // hardware exception entry sequence
	ActMsgDispatch                   // system message dispatch
	ActProtoDispatch                 // protocol-specific dispatch (C only)
	ActDecodeModify                  // decode and modify hardware directory
	ActSaveState                     // save state for function calls (C only)
	ActMemMgmt                       // memory management (free lists)
	ActHashAdmin                     // hash table administration (C only)
	ActStorePointers                 // store pointers into extended directory
	ActInvalidate                    // invalidation lookup and transmit
	ActNonAlewife                    // support for non-Alewife protocols (C only)
	ActTrapReturn                    // return from trap
	NumActivities
)

var activityNames = [NumActivities]string{
	"trap dispatch",
	"system message dispatch",
	"protocol-specific dispatch",
	"decode and modify hardware directory",
	"save state for function calls",
	"memory management",
	"hash table administration",
	"store pointers into extended directory",
	"invalidation lookup and transmit",
	"support for non-Alewife protocols",
	"trap return",
}

// String returns the paper's row label for the activity.
func (a Activity) String() string {
	if a < 0 || a >= NumActivities {
		return fmt.Sprintf("activity(%d)", int(a))
	}
	return activityNames[a]
}

// Breakdown is a per-activity cycle account for a single handler
// invocation: one column cell group of Table 2.
type Breakdown [NumActivities]uint64

// Total sums the activity cycles.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// RequestKind distinguishes the software-handled request classes the paper
// measures separately: read requests (directory overflow on a read) and
// write requests (invalidation of an overflowed worker set).
type RequestKind int

const (
	ReadRequest RequestKind = iota
	WriteRequest
	AckRequest   // acknowledgment handled in software (ACK / LACK variants)
	LocalRequest // intra-node access trapped by the software-only directory
	NumRequestKinds
)

func (k RequestKind) String() string {
	switch k {
	case ReadRequest:
		return "read"
	case WriteRequest:
		return "write"
	case AckRequest:
		return "ack"
	case LocalRequest:
		return "local"
	}
	return fmt.Sprintf("request(%d)", int(k))
}

// HandlerRecord captures one software handler invocation: its kind, its
// total latency, and its per-activity breakdown. The sharers count records
// how many readers the affected block had, so Table 1 can be sliced by
// readers-per-block.
type HandlerRecord struct {
	Kind      RequestKind
	Cycles    uint64
	Sharers   int
	Breakdown Breakdown
}

// Ledger collects handler records for latency tables. It is the
// measurement instrument behind Tables 1 and 2.
//
// Handler invocations repeat a handful of distinct records (a run of
// hundreds of thousands of invocations typically produces a few dozen),
// so the ledger interns each distinct record once and stores one id per
// invocation, in invocation order. An invocation mostly repeats the last
// record of its kind, so Record compares with that one before it hashes.
type Ledger struct {
	ids      []uint32
	distinct []HandlerRecord
	intern   map[HandlerRecord]uint32
	// last holds, by request kind, the id plus one of the kind's last
	// record; zero means none yet.
	last [NumRequestKinds]uint32
}

// Record appends one handler invocation.
func (l *Ledger) Record(r HandlerRecord) {
	known := r.Kind >= 0 && r.Kind < NumRequestKinds
	if known && l.last[r.Kind] != 0 && l.distinct[l.last[r.Kind]-1] == r {
		l.ids = append(l.ids, l.last[r.Kind]-1)
		return
	}
	id, ok := l.intern[r]
	if !ok {
		if l.intern == nil {
			l.intern = make(map[HandlerRecord]uint32)
		}
		id = uint32(len(l.distinct))
		l.distinct = append(l.distinct, r)
		l.intern[r] = id
	}
	if known {
		l.last[r.Kind] = id + 1
	}
	l.ids = append(l.ids, id)
}

// N reports the number of recorded invocations.
func (l *Ledger) N() int { return len(l.ids) }

// matches reports whether r has the given kind and, when sharers >= 0,
// the given sharers count.
func matches(r *HandlerRecord, kind RequestKind, sharers int) bool {
	return r.Kind == kind && (sharers < 0 || r.Sharers == sharers)
}

// Mean returns the average latency in cycles of records matching kind,
// restricted to those with the given sharers count when sharers >= 0.
func (l *Ledger) Mean(kind RequestKind, sharers int) float64 {
	var sum uint64
	var n int
	for _, id := range l.ids {
		r := &l.distinct[id]
		if !matches(r, kind, sharers) {
			continue
		}
		sum += r.Cycles
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Median returns the record whose total latency is the median among records
// matching kind (and sharers, when sharers >= 0), mirroring the paper's
// method for Table 2 ("we choose a median request of each type"). Ties in
// latency keep invocation order. The boolean result is false when no
// records match.
func (l *Ledger) Median(kind RequestKind, sharers int) (HandlerRecord, bool) {
	var matching []uint32
	for _, id := range l.ids {
		if matches(&l.distinct[id], kind, sharers) {
			matching = append(matching, id)
		}
	}
	if len(matching) == 0 {
		return HandlerRecord{}, false
	}
	sort.SliceStable(matching, func(i, j int) bool {
		return l.distinct[matching[i]].Cycles < l.distinct[matching[j]].Cycles
	})
	return l.distinct[matching[len(matching)/2]], true
}

// Count reports how many records match kind.
func (l *Ledger) Count(kind RequestKind) int {
	n := 0
	for _, id := range l.ids {
		if l.distinct[id].Kind == kind {
			n++
		}
	}
	return n
}

// Reset discards all records, returning the ledger to its zero value
// while keeping its storage.
func (l *Ledger) Reset() {
	l.ids, l.distinct, l.last = l.ids[:0], l.distinct[:0], [NumRequestKinds]uint32{}
	if len(l.intern) > 0 {
		clear(l.intern)
	}
}

// FormatBreakdown renders read and write breakdowns side by side in the
// layout of Table 2.
func FormatBreakdown(read, write *Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %10s %10s\n", "activity", "read", "write")
	for a := Activity(0); a < NumActivities; a++ {
		r, w := read[a], write[a]
		rs, ws := "N/A", "N/A"
		if r > 0 {
			rs = fmt.Sprintf("%d", r)
		}
		if w > 0 {
			ws = fmt.Sprintf("%d", w)
		}
		fmt.Fprintf(&b, "%-42s %10s %10s\n", a.String(), rs, ws)
	}
	fmt.Fprintf(&b, "%-42s %10d %10d\n", "total (median latency)", read.Total(), write.Total())
	return b.String()
}

// MarshalJSON renders a breakdown as an {"activity": cycles} object,
// omitting zero rows (the table's N/A cells).
func (b Breakdown) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for a := Activity(0); a < NumActivities; a++ {
		if b[a] == 0 {
			continue
		}
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%q:%d", a.String(), b[a])
	}
	if !first {
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "%q:%d", "total", b.Total())
	sb.WriteByte('}')
	return []byte(sb.String()), nil
}
