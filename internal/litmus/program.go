// Package litmus implements memory-model fuzzing for the simulator: small
// concurrent programs (litmus tests), a generator that draws them at
// random, a hand-written corpus of the classical shapes, a compiler onto
// the simulated machine, and a sequential-consistency oracle that judges
// the observations each run produced.
//
// The protocol spectrum of the paper — Dir_H full-map hardware through
// Dir_1 SW software-extended directories — must be invisible to programs:
// every point implements the same memory model. The model checker
// (internal/mc) verifies that exhaustively for small protocol
// configurations; litmus complements it statistically. Thousands of
// generated programs run on the full cycle-level simulator across the
// spectrum, and every run's observed read values must be explainable by
// some total order of the program's operations consistent with each
// thread's program order (Lamport's sequential consistency). A protocol
// bug that lives in the layers the model checker abstracts away — cache
// replacement, network timing, handler occupancy — surfaces here as an
// unexplainable observation with a concrete constraint-cycle witness.
package litmus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OpKind enumerates the operations a litmus thread can perform.
type OpKind int

const (
	// OpRead loads a shared variable; the observed value is logged.
	OpRead OpKind = iota
	// OpWrite stores Op.Arg to a shared variable.
	OpWrite
	// OpRMW atomically exchanges a shared variable's value with Op.Arg;
	// the old value is logged.
	OpRMW
	// OpFence checks the variable's block back in to its home node (a
	// CICO release), forcing the thread's next access to refetch it.
	OpFence
	// OpCompute spins Op.Arg cycles of local work, perturbing the
	// timing of the surrounding memory operations.
	OpCompute
)

// Op is one operation of a litmus thread.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Var is the shared-variable index (ignored by OpCompute).
	Var int
	// Arg is the value written (OpWrite, OpRMW) or the cycle count
	// (OpCompute); unused otherwise.
	Arg uint64
}

// Program is a litmus test: per-thread operation sequences over a small
// set of shared variables, all initially zero. Every value written
// anywhere in the program is distinct and nonzero, so an observed value
// identifies the write that produced it — the property the
// sequential-consistency checker's reads-from derivation relies on.
type Program struct {
	// Vars is the shared-variable count; variables are indexed
	// 0..Vars-1.
	Vars int
	// Threads holds each thread's operations in program order. Thread t
	// runs on node t of the machine.
	Threads [][]Op
	// Specs optionally overrides the coherence protocol of individual
	// variables' blocks, keyed by variable index, with values from the
	// spectrum-alias vocabulary of SpecByAlias. Absent variables use
	// the machine's configured protocol.
	Specs map[int]string
}

// Program size caps: they keep every valid program within reach of both
// oracle decision procedures (the constraint checker's event bound is
// maxEvents) and bound the key length a program contributes to sweep-job
// hashing.
const (
	maxVars          = 16
	maxThreads       = 16
	maxOpsPerThread  = 64
	maxComputeCycles = 1_000_000
)

// String renders the canonical encoding, parseable by Parse:
//
//	v<vars>[;c<var>:<alias>]...[;t<thread>:<op>,<op>,...]...
//
// Spec overrides appear in ascending variable order, threads in index
// order, so equal programs encode identically. The encoding contains no
// '|' or '=' characters and therefore embeds verbatim in sweep job keys.
func (p Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", p.Vars)
	if len(p.Specs) > 0 {
		vs := make([]int, 0, len(p.Specs))
		for v := range p.Specs {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			fmt.Fprintf(&b, ";c%d:%s", v, p.Specs[v])
		}
	}
	for t, ops := range p.Threads {
		fmt.Fprintf(&b, ";t%d:", t)
		for j, op := range ops {
			if j > 0 {
				b.WriteByte(',')
			}
			switch op.Kind {
			case OpRead:
				fmt.Fprintf(&b, "R%d", op.Var)
			case OpWrite:
				fmt.Fprintf(&b, "W%d:%d", op.Var, op.Arg)
			case OpRMW:
				fmt.Fprintf(&b, "X%d:%d", op.Var, op.Arg)
			case OpFence:
				fmt.Fprintf(&b, "F%d", op.Var)
			case OpCompute:
				fmt.Fprintf(&b, "C%d", op.Arg)
			}
		}
	}
	return b.String()
}

// Parse decodes the canonical encoding produced by Program.String and
// validates the result. Threads must appear in index order starting at
// zero; spec overrides must precede the first thread. The threads'
// operations share one array, each thread's slice capped at its own
// length.
func Parse(s string) (Program, error) {
	head, rest, more := strings.Cut(s, ";")
	if len(head) < 2 || head[0] != 'v' {
		return Program{}, fmt.Errorf("litmus: encoding must start with v<vars> (got %q)", head)
	}
	vars, err := strconv.Atoi(head[1:])
	if err != nil {
		return Program{}, fmt.Errorf("litmus: variable count in %q: %v", head, err)
	}
	p := Program{Vars: vars}
	for more && strings.HasPrefix(rest, "c") {
		var sec string
		sec, rest, more = strings.Cut(rest, ";")
		vstr, alias, ok := strings.Cut(sec[1:], ":")
		if !ok {
			return Program{}, fmt.Errorf("litmus: spec override %q is not c<var>:<alias>", sec)
		}
		v, err := strconv.Atoi(vstr)
		if err != nil {
			return Program{}, fmt.Errorf("litmus: spec override variable in %q: %v", sec, err)
		}
		if p.Specs == nil {
			p.Specs = make(map[int]string)
		}
		if _, dup := p.Specs[v]; dup {
			return Program{}, fmt.Errorf("litmus: duplicate spec override for v%d", v)
		}
		p.Specs[v] = alias
	}
	if more {
		// Every section left is a thread, and each holds one more
		// operation than commas.
		threads := strings.Count(rest, ";") + 1
		p.Threads = make([][]Op, 0, threads)
		all := make([]Op, 0, strings.Count(rest, ",")+threads)
		for more {
			var sec string
			sec, rest, more = strings.Cut(rest, ";")
			body, ok := threadBody(sec, len(p.Threads))
			if !ok {
				want := fmt.Sprintf("t%d:", len(p.Threads))
				return Program{}, fmt.Errorf("litmus: expected section %q, got %q (threads must be in order, overrides before threads)", want, sec)
			}
			start := len(all)
			for {
				tok, after, comma := strings.Cut(body, ",")
				op, err := parseOp(tok)
				if err != nil {
					return Program{}, err
				}
				all = append(all, op)
				if !comma {
					break
				}
				body = after
			}
			p.Threads = append(p.Threads, all[start:len(all):len(all)])
		}
	}
	if err := p.Validate(); err != nil {
		return Program{}, err
	}
	return p, nil
}

// threadBody returns what follows sec's "t<t>:" prefix, and whether sec
// has that prefix.
func threadBody(sec string, t int) (string, bool) {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(t), 10)
	n := 1 + len(digits)
	if len(sec) <= n || sec[0] != 't' || sec[1:n] != string(digits) || sec[n] != ':' {
		return "", false
	}
	return sec[n+1:], true
}

// MustParse is Parse for known-good encodings (the corpus, fixtures).
func MustParse(s string) Program {
	p, err := Parse(s)
	if err != nil {
		panic(fmt.Sprintf("litmus: %v", err))
	}
	return p
}

// parseOp decodes one operation token.
func parseOp(tok string) (Op, error) {
	if len(tok) < 2 {
		return Op{}, fmt.Errorf("litmus: malformed operation %q", tok)
	}
	rest := tok[1:]
	switch tok[0] {
	case 'R', 'F':
		v, err := strconv.Atoi(rest)
		if err != nil {
			return Op{}, fmt.Errorf("litmus: variable in %q: %v", tok, err)
		}
		kind := OpRead
		if tok[0] == 'F' {
			kind = OpFence
		}
		return Op{Kind: kind, Var: v}, nil
	case 'W', 'X':
		vstr, valstr, ok := strings.Cut(rest, ":")
		if !ok {
			return Op{}, fmt.Errorf("litmus: %q is not %c<var>:<val>", tok, tok[0])
		}
		v, err := strconv.Atoi(vstr)
		if err != nil {
			return Op{}, fmt.Errorf("litmus: variable in %q: %v", tok, err)
		}
		val, err := strconv.ParseUint(valstr, 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("litmus: value in %q: %v", tok, err)
		}
		kind := OpWrite
		if tok[0] == 'X' {
			kind = OpRMW
		}
		return Op{Kind: kind, Var: v, Arg: val}, nil
	case 'C':
		c, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("litmus: cycles in %q: %v", tok, err)
		}
		return Op{Kind: OpCompute, Arg: c}, nil
	}
	return Op{}, fmt.Errorf("litmus: unknown operation %q", tok)
}

// Validate checks the program's well-formedness: size caps, variable
// indices in range, write values unique and nonzero across the whole
// program, compute delays positive and bounded, and spec overrides that
// name real variables and resolvable spectrum aliases.
func (p Program) Validate() error {
	if p.Vars < 1 || p.Vars > maxVars {
		return fmt.Errorf("litmus: %d variables (want 1..%d)", p.Vars, maxVars)
	}
	if len(p.Threads) < 1 || len(p.Threads) > maxThreads {
		return fmt.Errorf("litmus: %d threads (want 1..%d)", len(p.Threads), maxThreads)
	}
	for t, ops := range p.Threads {
		if len(ops) > maxOpsPerThread {
			return fmt.Errorf("litmus: thread %d has %d operations (max %d)", t, len(ops), maxOpsPerThread)
		}
		for j, op := range ops {
			switch op.Kind {
			case OpRead, OpWrite, OpRMW, OpFence:
				if op.Var < 0 || op.Var >= p.Vars {
					return fmt.Errorf("litmus: thread %d op %d references v%d of %d variables", t, j, op.Var, p.Vars)
				}
			case OpCompute:
				if op.Arg < 1 || op.Arg > maxComputeCycles {
					return fmt.Errorf("litmus: thread %d op %d computes %d cycles (want 1..%d)", t, j, op.Arg, maxComputeCycles)
				}
			default:
				return fmt.Errorf("litmus: thread %d op %d has unknown kind %d", t, j, op.Kind)
			}
			if op.Kind == OpWrite || op.Kind == OpRMW {
				if op.Arg == 0 {
					return fmt.Errorf("litmus: thread %d op %d writes zero (reserved for the initial value)", t, j)
				}
				if p.writtenBefore(t, j, op.Arg) {
					return fmt.Errorf("litmus: value %d written twice (written values must be unique)", op.Arg)
				}
			}
		}
	}
	if len(p.Specs) > 0 {
		vs := make([]int, 0, len(p.Specs))
		for v := range p.Specs {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			if v < 0 || v >= p.Vars {
				return fmt.Errorf("litmus: spec override for v%d of %d variables", v, p.Vars)
			}
			if _, err := SpecByAlias(p.Specs[v]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writtenBefore reports whether an operation ahead of thread t's op j in
// Validate's order writes v. Scanning the program itself needs no set:
// programs write a few values each, and zeroing a set sized for the
// largest valid program cost more than the scan.
func (p Program) writtenBefore(t, j int, v uint64) bool {
	for u, ops := range p.Threads[:t+1] {
		if u == t {
			ops = ops[:j]
		}
		for _, op := range ops {
			if (op.Kind == OpWrite || op.Kind == OpRMW) && op.Arg == v {
				return true
			}
		}
	}
	return false
}

// ObsCount reports how many values thread t logs when the program runs:
// one per read and one per exchange.
func (p Program) ObsCount(t int) int {
	n := 0
	for _, op := range p.Threads[t] {
		if op.Kind == OpRead || op.Kind == OpRMW {
			n++
		}
	}
	return n
}
